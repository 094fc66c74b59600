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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.base import DecodeError, ErasureCode, LocalGroupCode, Stripe
from repro.codes.convertible import (
    ConversionIO,
    ConversionPath,
    ConversionPlan,
    ConvertibleCode,
)
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


def _merge(
    path: ConversionPath,
    initial: ErasureCode,
    final: LocallyRecoverableConvertibleCode,
    stripes: Sequence[Stripe],
    plan: ConversionPlan,
) -> Tuple[List[Stripe], ConversionIO]:
    """Combine the parities the plan reads (``parity_reads``: ``(stripe,
    j) -> (0, final parity)``). A source's coefficient shifts it by the
    offset of the data it covers: within its final group for a local
    (point 0), within the stripe for global ``j`` (point ``j + 1``)."""
    plan.check(path, initial, final, stripes)
    k_i = initial.k
    span = initial.group_size if isinstance(initial, LocalGroupCode) else k_i
    out = np.zeros((final.n - final.k, stripes[0].chunk_size()), dtype=np.uint8)
    for (i, j), (_final, p) in plan.parity_reads.items():
        chunk = stripes[i].chunks[k_i + j]
        if chunk is None:
            raise DecodeError(f"conversion requires erased parity ({i},{j})")
        if p < final.l:
            point, offset = final.points[0], i * k_i + j * span - p * final.group_size
        else:
            point, offset = final.points[p - final.l + 1], i * k_i
        gf_scale_xor(out[p], final.field.pow(point, offset), chunk)
    chunks: List[np.ndarray] = []
    for stripe in stripes:
        chunks.extend(stripe.chunks[:k_i])
    chunks.extend(out)
    return [Stripe(final.k, final.n, chunks)], plan.io()


def convert_cc_to_lrcc(
    initial: ConvertibleCode,
    final: LocallyRecoverableConvertibleCode,
    stripes: Sequence[Stripe],
    plan: ConversionPlan,
) -> Tuple[List[Stripe], ConversionIO]:
    """Merge CC stripes into one LRCC stripe, reading parities only: the
    first parity of each stripe feeds the local of its group, parities
    ``1..`` the globals. Where the merge is possible is the plan's
    (:func:`repro.codes.convertible.plan_conversion`)."""
    return _merge(ConversionPath.CC_TO_LRCC, initial, final, stripes, plan)


def convert_lrcc_to_lrcc(
    initial: LocallyRecoverableConvertibleCode,
    final: LocallyRecoverableConvertibleCode,
    stripes: Sequence[Stripe],
    plan: ConversionPlan,
) -> Tuple[List[Stripe], ConversionIO]:
    """Merge LRCC stripes into a wider LRCC stripe (cool -> frigid):
    final locals are point-0 merges of the initial locals they cover,
    globals point-(j+1) merges of the initial globals."""
    return _merge(ConversionPath.LRCC_MERGE, initial, final, stripes, plan)
