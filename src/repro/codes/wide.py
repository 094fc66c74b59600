"""Wide Convertible Codes over GF(2^16).

Same construction as :class:`repro.codes.convertible.ConvertibleCode` —
systematic code with parity ``p_j = sum_t d_t * alpha_j**t`` — but over
GF(2^16), where superregular point families exist at the stripe widths
GF(2^8) cannot support (r = 4..5 at widths 34+, e.g. the paper's
EC(17,20) -> EC(34,37) merge or wide late-life stripes).

Verification scope: families are re-verified at construction with
exhaustive submatrix checks for sizes <= 3 and large seeded samples for
sizes 4-5 (an exhaustive width-80 r=5 check is ~24M determinants; the
sampling is documented and deterministic). Erasure-decode tests cover the
MDS behaviour independently.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.base import ErasureCode
from repro.gf.field16 import (
    _EXP16,
    _LOG16,
    FIELD_ORDER_16,
    gf16_batch_det,
    gf16_element,
    gf16_pow,
)
from repro.gf.kernels import GF16, gf_scale_xor
from repro.obs.codec import record_codec

#: Curated nested exponent chain for GF(2^16) families (searched offline,
#: re-verified on first use). Prefix property: code with r parities uses
#: the first r exponents, so different-r codes stay convertible.
CURATED_EXPONENTS_16: Tuple[int, ...] = (0, 1, 2, 3, 153)

#: Verified-width ceilings per r over GF(2^16) for the curated chain.
MAX_WIDTH_16: Dict[int, int] = {1: 256, 2: 256, 3: 128, 4: 96, 5: 80}

_VERIFIED: Dict[Tuple[int, int], bool] = {}

EXHAUSTIVE_LIMIT_16 = 400_000
SAMPLE_COUNT_16 = 120_000


def vandermonde_parity_16(points: Sequence[int], width: int) -> np.ndarray:
    """(width, len(points)) matrix with entry [t, j] = points[j] ** t.

    Vectorized as an outer product in log space; zero points (which the
    curated families never contain, but the definition allows) follow the
    ``gf16_pow`` convention ``0 ** 0 == 1``.
    """
    arr = np.asarray(list(points), dtype=np.uint16)
    if width == 0 or arr.size == 0:
        return np.zeros((width, arr.size), dtype=np.uint16)
    exponents = (
        np.arange(width, dtype=np.int64)[:, None] * _LOG16[arr][None, :].astype(np.int64)
    ) % FIELD_ORDER_16
    out = _EXP16[exponents].astype(np.uint16)
    zero_cols = arr == 0
    if zero_cols.any():
        out[:, zero_cols] = 0
        out[0, zero_cols] = 1
    return out


def is_superregular_parity_16(
    parity: np.ndarray, rng_seed: int = 0xC0DE16
) -> bool:
    """Submatrix nonsingularity check: exhaustive where cheap, sampled
    deterministically where not."""
    width, r = parity.shape
    rng = np.random.default_rng(rng_seed)
    for size in range(1, min(width, r) + 1):
        col_sets = list(combinations(range(r), size))
        n_rows = comb(width, size)
        if n_rows * len(col_sets) <= EXHAUSTIVE_LIMIT_16:
            row_sets = np.array(list(combinations(range(width), size)), dtype=np.intp)
        else:
            per = max(1, SAMPLE_COUNT_16 // len(col_sets))
            row_sets = np.stack(
                [np.sort(rng.choice(width, size=size, replace=False)) for _ in range(per)]
            )
        for cols in col_sets:
            sub = parity[row_sets][:, :, list(cols)]
            if np.any(gf16_batch_det(sub) == 0):
                return False
    return True


def wide_family_points(r: int, width: int) -> List[int]:
    """The curated GF(2^16) family, verified for (r, width)."""
    if r < 1 or r > len(CURATED_EXPONENTS_16):
        raise ValueError(f"r={r} outside the curated GF(2^16) chain")
    ceiling = MAX_WIDTH_16[r]
    if width > ceiling:
        raise ValueError(
            f"GF(2^16) family for r={r} verified up to width {ceiling}, "
            f"requested {width}"
        )
    key = (r, width)
    for (vr, vw), ok in _VERIFIED.items():
        if vr == r and vw >= width and ok:
            return [gf16_element(e) for e in CURATED_EXPONENTS_16[:r]]
    points = [gf16_element(e) for e in CURATED_EXPONENTS_16[:r]]
    parity = vandermonde_parity_16(points, width)
    if not is_superregular_parity_16(parity):
        raise RuntimeError(
            f"curated GF(2^16) points failed verification at r={r}, width={width}"
        )
    _VERIFIED[key] = True
    return points


class WideConvertibleCode(ErasureCode):
    """CC(k, n) over GF(2^16): wide stripes, same conversion algebra.

    An :class:`~repro.codes.base.ErasureCode` whose field is GF(2^16):
    encode, decode and their batched forms are the base class's. Chunks
    are uint8 arrays holding whole 2-byte symbols (little-endian pairs) —
    an odd-length chunk is a ``ValueError``, not a padded symbol.
    """

    field = GF16

    def __init__(self, k: int, n: int, family_width: Optional[int] = None):
        super().__init__(k, n)
        self.family_width = family_width or max(k, 40)
        self.points = wide_family_points(self.r, max(self.family_width, k))
        self._generator = np.concatenate(
            [np.eye(k, dtype=np.uint16), vandermonde_parity_16(self.points, k).T]
        )

    @property
    def generator(self) -> np.ndarray:
        return self._generator

    def shift_coefficient(self, j: int, offset: int) -> int:
        """Coefficient scaling parity j of a block shifted by ``offset``."""
        return gf16_pow(int(self.points[j]), offset)

    # -- conversion ----------------------------------------------------------
    def merge_parities(
        self,
        final: "WideConvertibleCode",
        stripe_parities: Sequence[Sequence[np.ndarray]],
    ) -> List[np.ndarray]:
        """Merge-regime conversion: final parities from initial parities.

        ``stripe_parities[i][j]`` is parity j of initial stripe i. Only
        parities are consumed — the wide-stripe analogue of Fig 7.
        """
        lam = len(stripe_parities)
        if final.k != lam * self.k or final.r > self.r:
            raise ValueError("final code must merge lam stripes, r_F <= r_I")
        if final.points[: final.r] != self.points[: final.r]:
            raise ValueError("codes are from different GF(2^16) families")
        length = len(stripe_parities[0][0])
        out = []
        with record_codec("transcode", final.r * length):
            for j in range(final.r):
                acc = np.zeros_like(self.field.symbols(stripe_parities[0][j]))
                for i in range(lam):
                    # Blocked scale-and-accumulate through the cached
                    # full-symbol table, like the CC/LRCC merge loops.
                    gf_scale_xor(
                        acc,
                        final.shift_coefficient(j, i * self.k),
                        self.field.symbols(stripe_parities[i][j]),
                    )
                out.append(self.field.chunks(acc))
        return out
