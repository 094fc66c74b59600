"""Wide Convertible Codes: the CC family over GF(2^16).

:class:`WideConvertibleCode` is :class:`repro.codes.convertible.ConvertibleCode`
with the family :data:`WIDE_FAMILY` — points in GF(2^16), where
superregular families exist at the stripe widths GF(2^8) cannot support
(r = 4..5 at widths 34+, e.g. the paper's EC(17,20) -> EC(34,37) merge or
wide late-life stripes). Encode, decode, and every conversion regime
(:func:`repro.codes.convertible.convert`: merge, split, general) are the
shared ones. Chunks hold whole 2-byte symbols (little-endian pairs): an
odd-length chunk is a ``ValueError``, not a padded symbol.

Verification scope: the field's budget
(:func:`repro.codes.pointsearch.is_superregular`) checks submatrix sizes
<= 3 exhaustively and sizes 4-5 on large seeded samples (an exhaustive
width-80 r=5 check is ~24M determinants; the sampling is documented and
deterministic). Erasure-decode tests cover the MDS behaviour
independently.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.codes.convertible import ConvertibleCode
from repro.codes.pointsearch import PointFamily
from repro.gf.field import GF16

#: Curated nested exponent chain for GF(2^16) families (searched offline,
#: re-verified on first use). Prefix property: code with r parities uses
#: the first r exponents, so different-r codes stay convertible.
CURATED_EXPONENTS_16: Tuple[int, ...] = (0, 1, 2, 3, 153)

#: Verified-width ceilings per r over GF(2^16) for the curated chain.
MAX_WIDTH_16: Dict[int, int] = {1: 256, 2: 256, 3: 128, 4: 96, 5: 80}

WIDE_FAMILY = PointFamily(
    GF16, {r: CURATED_EXPONENTS_16[:r] for r in MAX_WIDTH_16}, MAX_WIDTH_16
)


class WideConvertibleCode(ConvertibleCode):
    """CC(k, n) over GF(2^16): wide stripes, the same conversion algebra."""

    family = WIDE_FAMILY
