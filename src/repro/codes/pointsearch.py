"""Verified evaluation points for Convertible-Code families, in either field.

A Convertible-Code family is defined by ``r`` evaluation points
``alpha_0 .. alpha_{r-1}`` in a field. A code of width ``w`` in the family
has parity block ``P[t, j] = alpha_j ** t`` (t = 0..w-1). The family
supports conversion among all its widths because a data symbol's parity
coefficient factors through its position: shifting a stripe by ``o``
positions scales its parity contribution by ``alpha_j ** o``.

``[I | P]`` is MDS iff every square submatrix of ``P`` is nonsingular
(superregularity). Generalized Vandermonde matrices over a small field are
*not* automatically superregular, so a family's points are curated
(searched offline) and **verified** here up to the requested width with
batched determinants, within the field's budget (:func:`is_superregular`).
One lookup serves both fields: a :class:`PointFamily` names a field, its
curated exponents and the widths they are verified to reach. GF(2^8)'s is
:data:`FAMILY`; GF(2^16)'s is :data:`repro.codes.wide.WIDE_FAMILY`.
Verified widths are cached per field and point set.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.gf.field import GF8, GaloisField

#: Curated generator exponents per parity count, searched offline and
#: re-verified at first use. For r >= 2 they are *nested prefixes* of one
#: chain (0, 13, 71, 197, 46): a code with r parities uses the first r
#: points, so codes of different parity counts share point prefixes and
#: are mutually convertible (e.g. a CC(6,9) -> CC(12,14) merge that drops
#: a parity). For r = 1 any nonzero point is superregular.
CURATED_EXPONENTS: Dict[int, Tuple[int, ...]] = {
    1: (1,),
    2: (0, 13),
    3: (0, 13, 71),
    4: (0, 13, 71, 197),
    5: (0, 13, 71, 197, 46),
}

#: Maximum verified-feasible family width per parity count over GF(256).
#: Superregular generalized-Vandermonde matrices need larger fields as r
#: and width grow (the CC papers' field-size bounds); over GF(2^8) these
#: are the practical ceilings found by exhaustive search (each is checked
#: exhaustively). Wider codes use GF(2^16) (:mod:`repro.codes.wide`) or
#: are handled analytically by repro.codes.costmodel.
MAX_FEASIBLE_WIDTH: Dict[int, int] = {1: 255, 2: 255, 3: 128, 4: 24, 5: 12}

#: Default maximum stripe width a family is verified for. Wide enough for
#: every functional parameter the paper's system evaluation uses; wider
#: sweeps are analytical (repro.codes.costmodel).
DEFAULT_FAMILY_WIDTH = 40

#: ``(field, points)`` -> the widest width they are verified for.
_VERIFIED: Dict[Tuple[GaloisField, Tuple[int, ...]], int] = {}


class FamilyWidthError(ValueError):
    """Requested (r, width) exceeds what the family's field supports."""


def is_superregular(field: GaloisField, m: np.ndarray) -> bool:
    """True if every square submatrix of ``m`` is nonsingular over ``field``.

    Each submatrix size is checked exhaustively when it has at most
    ``field.exhaustive_dets`` determinants, else on ``field.sampled_dets``
    row sets drawn from a generator seeded with ``field.sample_seed`` — a
    documented, deterministic sample. (The generator is made on first
    use: importing numpy's random module costs a cold process ~20 ms.)
    """
    m = np.asarray(m, dtype=field.dtype)
    width, r = m.shape
    rng = None
    for size in range(1, min(width, r) + 1):
        col_sets = list(combinations(range(r), size))
        if comb(width, size) * len(col_sets) <= field.exhaustive_dets:
            row_sets = np.array(list(combinations(range(width), size)), dtype=np.intp)
        else:
            rng = rng or np.random.default_rng(field.sample_seed)
            per = max(1, field.sampled_dets // len(col_sets))
            row_sets = np.stack(
                [np.sort(rng.choice(width, size=size, replace=False)) for _ in range(per)]
            )
        for cols in col_sets:
            if np.any(field.det(m[row_sets][:, :, list(cols)]) == 0):
                return False
    return True


class PointFamily(NamedTuple):
    """Curated evaluation points over one field, per parity count."""

    field: GaloisField
    #: r -> generator exponents of the r points
    exponents: Dict[int, Tuple[int, ...]]
    #: r -> the widest family the points are verified to reach
    ceilings: Dict[int, int]

    def points(self, r: int, width: int) -> List[int]:
        """The r points, verified superregular up to ``width`` (once per
        field, point set and width: a wider verification serves any
        narrower request).

        Raises:
            FamilyWidthError: past the family's ceiling for r.
        """
        if r < 1:
            raise ValueError("r must be >= 1")
        if width < 1:
            raise ValueError("width must be >= 1")
        ceiling = self.ceilings.get(r)
        if ceiling is None or width > ceiling:
            raise FamilyWidthError(
                f"r={r} convertible-code families over {self.field} are verified "
                f"only up to width {ceiling or 0} (requested {width}); use "
                "repro.codes.costmodel for wider analytical results"
            )
        points = [self.field.element(e) for e in self.exponents[r]]
        key = (self.field, tuple(points))
        if _VERIFIED.get(key, 0) < width:
            if not is_superregular(self.field, self.field.vandermonde(points, width)):
                raise RuntimeError(
                    f"curated points over {self.field} failed verification at "
                    f"r={r}, width={width}"
                )
            _VERIFIED[key] = width
        return points

    def default_width(self, r: int, k: int) -> int:
        """Widest default family for this parity count: at least ``k``."""
        return max(k, min(DEFAULT_FAMILY_WIDTH, self.ceilings.get(r, 0)))


#: The GF(2^8) family every CC, LRCC and BWO-CC code draws its points from.
FAMILY = PointFamily(GF8, CURATED_EXPONENTS, MAX_FEASIBLE_WIDTH)
