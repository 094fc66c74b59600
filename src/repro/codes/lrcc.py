"""Locally Recoverable Convertible Codes — LRCC(k, l, r).

An LRC whose parities are CC-mergeable (paper §5.1 and Appendix A):

* The **local parity** of a group is the *first* (point-0) CC parity over
  the group's data, with group-local position exponents. When a group is
  formed by merging an integral number of CC stripes (or smaller LRCC
  groups), the new local parity is a point-0 CC merge of the old first
  parities / local parities — no data reads.
* The **global parities** use points 1..r of the same family with
  stripe-global position exponents, so they merge exactly like plain CC
  parities.

Consequences the paper relies on:

* ``CC(k_I, n_I) -> LRCC(K, L, R)`` with each group an integral number of
  initial stripes and ``R <= r_I - 1`` reads only ``R + 1`` parities per
  initial stripe ("the first parity of each initial stripe remains
  unchanged and is used as the corresponding local parity").
* ``LRCC -> LRCC`` merges (cool -> frigid) read only local + global
  parities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.base import DecodeError, ErasureCode, LocalGroupCode, Stripe
from repro.codes.convertible import ConversionIO, ConvertibleCode
from repro.codes.pointsearch import FAMILY
from repro.gf.kernels import gf_scale_xor


class LocallyRecoverableConvertibleCode(LocalGroupCode):
    """LRCC(k, l, r): CC-mergeable LRC. Layout: k data, l locals, r globals."""

    def __init__(self, k: int, l: int, r_global: int, family_width: Optional[int] = None):
        super().__init__(k, l, r_global)
        if family_width is None:
            family_width = FAMILY.default_width(r_global + 1, k)
        self.family_width = max(family_width, k)
        # Point 0 -> local parities; points 1..r_global -> globals. The
        # family is shared with CC codes of r >= r_global + 1.
        self.points = FAMILY.points(r_global + 1, self.family_width)
        # A group's local parity has group-local exponents, a global
        # parity stripe-global ones.
        powers = self.field.vandermonde(self.points[:1], self.group_size)[:, 0]
        local = np.zeros((self.l, self.k), dtype=np.uint8)
        for g in range(self.l):
            local[g, g * self.group_size : (g + 1) * self.group_size] = powers
        self._generator = np.concatenate([
            np.eye(k, dtype=np.uint8),
            local,
            self.field.vandermonde(self.points[1:], k).T,
        ])

    @property
    def generator(self) -> np.ndarray:
        return self._generator

    def __repr__(self) -> str:
        return f"LRCC({self.k},{self.l},{self.r_global})"


def merge_sources(
    initial: ErasureCode, final: LocallyRecoverableConvertibleCode, n_stripes: int
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """The one table of an LRCC merge: ``(initial stripe, parity) ->
    (0, final parity)`` it is merged into — every parity the merge reads,
    and nothing else. A final local parity merges the first parities (a
    CC source: "the first parity of each initial stripe remains unchanged
    and is used as the corresponding local parity") or the local
    parities (an LRCC source) of the groups it covers; final global ``j``
    merges every stripe's parity ``j + 1`` (CC) or global ``j`` (LRCC)."""
    span = initial.group_size if isinstance(initial, LocalGroupCode) else initial.k
    locals_per_stripe = initial.k // span
    table: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for i in range(n_stripes):
        for g in range(locals_per_stripe):
            table[(i, g)] = (0, (i * initial.k + g * span) // final.group_size)
        for j in range(final.r_global):
            table[(i, locals_per_stripe + j)] = (0, final.l + j)
    return table


def _merge(
    initial: ErasureCode,
    final: LocallyRecoverableConvertibleCode,
    stripes: Sequence[Stripe],
) -> Tuple[Stripe, ConversionIO]:
    """Combine what :func:`merge_sources` names. A source's coefficient
    shifts it by the offset of the data it covers: within its final
    group for a local (point 0), within the stripe for global ``j``
    (point ``j + 1``)."""
    lam, k_i = len(stripes), initial.k
    if initial.points[: final.r_global + 1] != final.points[: final.r_global + 1]:
        raise ValueError("codes are from different CC families")
    table = merge_sources(initial, final, lam)
    span = initial.group_size if isinstance(initial, LocalGroupCode) else k_i
    out = np.zeros((final.n - final.k, stripes[0].chunk_size()), dtype=np.uint8)
    for (i, j), (_final, p) in table.items():
        chunk = stripes[i].chunks[k_i + j]
        if chunk is None:
            raise DecodeError(f"conversion requires erased parity ({i},{j})")
        if p < final.l:
            point, offset = final.points[0], i * k_i + j * span - p * final.group_size
        else:
            point, offset = final.points[p - final.l + 1], i * k_i
        gf_scale_xor(out[p], final.field.pow(point, offset), chunk)
    chunks: List[np.ndarray] = []
    for i in range(lam):
        chunks.extend(stripes[i].chunks[:k_i])
    chunks.extend(out)
    io = ConversionIO(
        data_chunks_read=0,
        parity_chunks_read=len(table),
        parity_chunks_written=final.l + final.r_global,
    )
    return Stripe(final.k, final.n, chunks), io


def convert_cc_to_lrcc(
    initial: ConvertibleCode,
    final: LocallyRecoverableConvertibleCode,
    stripes: Sequence[Stripe],
) -> Tuple[Stripe, ConversionIO]:
    """Merge CC stripes into one LRCC stripe, reading parities only.

    Requires: ``final.k == len(stripes) * initial.k``, each LRCC group an
    integral number of initial stripes, ``final.r_global <= initial.r - 1``,
    and both codes drawn from the same point family.
    """
    k_i = initial.k
    if final.k != len(stripes) * k_i:
        raise ValueError(f"need {final.k // k_i} stripes, got {len(stripes)}")
    if final.group_size % k_i != 0:
        raise ValueError(
            f"LRCC group size {final.group_size} is not a multiple of k_I={k_i}"
        )
    if final.r_global > initial.r - 1:
        raise ValueError(
            "LRCC needs r_global <= r_I - 1 (one initial parity becomes local)"
        )
    return _merge(initial, final, stripes)


def convert_lrcc_to_lrcc(
    initial: LocallyRecoverableConvertibleCode,
    final: LocallyRecoverableConvertibleCode,
    stripes: Sequence[Stripe],
) -> Tuple[Stripe, ConversionIO]:
    """Merge LRCC stripes into a wider LRCC stripe (cool -> frigid).

    Local parities of the final groups are point-0 merges of constituent
    initial local parities; global parities are point-(j+1) merges of the
    initial globals. Requires final groups to be integral numbers of
    initial groups and ``final.r_global <= initial.r_global``.
    """
    if final.k != len(stripes) * initial.k:
        raise ValueError(f"need {final.k // initial.k} stripes, got {len(stripes)}")
    if final.group_size % initial.group_size != 0:
        raise ValueError("final groups must be integral numbers of initial groups")
    if final.r_global > initial.r_global:
        raise ValueError("LRCC merge cannot add global parities")
    return _merge(initial, final, stripes)
