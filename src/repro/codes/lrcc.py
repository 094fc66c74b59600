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

from repro.codes.base import DecodeError, LocalGroupCode, Stripe
from repro.codes.convertible import ConversionIO, ConvertibleCode
from repro.codes.pointsearch import find_family_points
from repro.gf.field import gf_pow
from repro.gf.kernels import gf_scale_xor
from repro.gf.matrix import gf_identity


class LocallyRecoverableConvertibleCode(LocalGroupCode):
    """LRCC(k, l, r): CC-mergeable LRC. Layout: k data, l locals, r globals."""

    def __init__(self, k: int, l: int, r_global: int, family_width: Optional[int] = None):
        super().__init__(k, l, r_global)
        if family_width is None:
            from repro.codes.convertible import default_family_width

            family_width = default_family_width(r_global + 1, k)
        self.family_width = max(family_width, k)
        # Point 0 -> local parities; points 1..r_global -> globals. The
        # family is shared with CC codes of r >= r_global + 1.
        self.points = find_family_points(r_global + 1, self.family_width)
        self._generator = self._build_generator()

    @property
    def generator(self) -> np.ndarray:
        return self._generator

    def _build_generator(self) -> np.ndarray:
        rows = [gf_identity(self.k)]
        local = np.zeros((self.l, self.k), dtype=np.uint8)
        alpha0 = self.points[0]
        for g in range(self.l):
            for u in range(self.group_size):
                local[g, g * self.group_size + u] = gf_pow(alpha0, u)
        rows.append(local)
        if self.r_global:
            glob = np.zeros((self.r_global, self.k), dtype=np.uint8)
            for j in range(self.r_global):
                alpha = self.points[j + 1]
                for t in range(self.k):
                    glob[j, t] = gf_pow(alpha, t)
            rows.append(glob)
        return np.concatenate(rows, axis=0)

    def __repr__(self) -> str:
        return f"LRCC({self.k},{self.l},{self.r_global})"


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
    lam = len(stripes)
    k_i = initial.k
    if final.k != lam * k_i:
        raise ValueError(f"need {final.k // k_i} stripes, got {lam}")
    if final.group_size % k_i != 0:
        raise ValueError(
            f"LRCC group size {final.group_size} is not a multiple of k_I={k_i}"
        )
    if final.r_global > initial.r - 1:
        raise ValueError(
            "LRCC needs r_global <= r_I - 1 (one initial parity becomes local)"
        )
    if initial.points[: final.r_global + 1] != final.points[: final.r_global + 1]:
        raise ValueError("codes are from different CC families")
    chunk_size = stripes[0].chunk_size()
    stripes_per_group = final.group_size // k_i

    def parity(i: int, j: int) -> np.ndarray:
        chunk = stripes[i].chunks[k_i + j]
        if chunk is None:
            raise DecodeError(f"conversion requires erased parity ({i},{j})")
        return chunk

    # Local parity of group g: point-0 merge of constituent first parities.
    locals_out: List[np.ndarray] = []
    for g in range(final.l):
        acc = np.zeros(chunk_size, dtype=np.uint8)
        for s in range(stripes_per_group):
            i = g * stripes_per_group + s
            coeff = gf_pow(final.points[0], s * k_i)  # group-local offset
            gf_scale_xor(acc, coeff, parity(i, 0))
        locals_out.append(acc)
    # Global parity j: point-(j+1) merge of initial parities j+1.
    globals_out: List[np.ndarray] = []
    for j in range(final.r_global):
        acc = np.zeros(chunk_size, dtype=np.uint8)
        for i in range(lam):
            coeff = gf_pow(final.points[j + 1], i * k_i)  # stripe-global offset
            gf_scale_xor(acc, coeff, parity(i, j + 1))
        globals_out.append(acc)

    chunks: List[np.ndarray] = []
    for i in range(lam):
        chunks.extend(stripes[i].chunks[:k_i])
    chunks.extend(locals_out)
    chunks.extend(globals_out)
    io = ConversionIO(
        data_chunks_read=0,
        parity_chunks_read=lam * (final.r_global + 1),
        parity_chunks_written=final.l + final.r_global,
    )
    return Stripe(final.k, final.n, chunks), io


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
    lam = len(stripes)
    k_i = initial.k
    if final.k != lam * k_i:
        raise ValueError(f"need {final.k // k_i} stripes, got {lam}")
    if final.group_size % initial.group_size != 0:
        raise ValueError("final groups must be integral numbers of initial groups")
    if final.r_global > initial.r_global:
        raise ValueError("LRCC merge cannot add global parities")
    if initial.points[: final.r_global + 1] != final.points[: final.r_global + 1]:
        raise ValueError("codes are from different CC families")
    chunk_size = stripes[0].chunk_size()
    groups_per_final = final.group_size // initial.group_size

    def chunk_at(i: int, idx: int) -> np.ndarray:
        chunk = stripes[i].chunks[idx]
        if chunk is None:
            raise DecodeError(f"conversion requires erased chunk ({i},{idx})")
        return chunk

    locals_out: List[np.ndarray] = []
    for g in range(final.l):
        acc = np.zeros(chunk_size, dtype=np.uint8)
        for s in range(groups_per_final):
            global_group = g * groups_per_final + s
            i = global_group * initial.group_size // k_i
            local_group_in_stripe = global_group - i * initial.l
            src = chunk_at(i, initial.local_parity_index(local_group_in_stripe))
            coeff = gf_pow(final.points[0], s * initial.group_size)
            gf_scale_xor(acc, coeff, src)
        locals_out.append(acc)
    globals_out: List[np.ndarray] = []
    for j in range(final.r_global):
        acc = np.zeros(chunk_size, dtype=np.uint8)
        for i in range(lam):
            src = chunk_at(i, initial.k + initial.l + j)
            coeff = gf_pow(final.points[j + 1], i * k_i)
            gf_scale_xor(acc, coeff, src)
        globals_out.append(acc)

    chunks: List[np.ndarray] = []
    for i in range(lam):
        chunks.extend(stripes[i].chunks[:k_i])
    chunks.extend(locals_out)
    chunks.extend(globals_out)
    io = ConversionIO(
        data_chunks_read=0,
        parity_chunks_read=lam * initial.l
        if final.r_global == 0
        else lam * (initial.l + final.r_global),
        parity_chunks_written=final.l + final.r_global,
    )
    return Stripe(final.k, final.n, chunks), io
