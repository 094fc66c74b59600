"""Evaluation-point families and the superregularity check, once per
property over both fields: :data:`repro.codes.pointsearch.FAMILY`
(GF(2^8)) and :data:`repro.codes.wide.WIDE_FAMILY` (GF(2^16))."""

import numpy as np
import pytest

from repro.codes.pointsearch import FAMILY, FamilyWidthError, is_superregular
from repro.codes.wide import MAX_WIDTH_16, WIDE_FAMILY
from repro.gf.field import GF8, GF16

FAMILIES = pytest.mark.parametrize(
    "family", [FAMILY, WIDE_FAMILY], ids=lambda family: repr(family.field)
)


@pytest.mark.parametrize("field", [GF8, GF16], ids=repr)
class TestSuperregularity:
    def test_repeated_point_fails(self, field):
        # Point 1 repeated: columns identical -> 2x2 dets vanish.
        assert not is_superregular(field, field.vandermonde([1, 1], 4))

    def test_singular_and_zero_entries_fail(self, field):
        assert not is_superregular(field, np.array([[1, 1], [1, 1]], field.dtype))
        assert not is_superregular(field, np.array([[1, 0], [1, 1]], field.dtype))

    def test_agrees_with_rank_on_every_submatrix(self, field):
        from itertools import combinations

        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(1, 6, (5, 3)).astype(field.dtype)
            exhaustive = all(
                field.rank(m[list(rows)][:, list(cols)]) == size
                for size in (1, 2, 3)
                for rows in combinations(range(5), size)
                for cols in combinations(range(3), size)
            )
            assert is_superregular(field, m) == exhaustive

    def test_sampled_sizes_still_find_a_singular_submatrix(self, field):
        # Past the exhaustive budget a size is sampled; a matrix whose
        # every 2x2 with the first two columns is singular still fails.
        width = 2 * int(np.sqrt(field.exhaustive_dets)) + 10
        m = field.vandermonde([2, 2, 3], width)
        assert not is_superregular(field, m)


@FAMILIES
class TestFamilies:
    def test_curated_points_verified_at_every_ceiling(self, family):
        for r, ceiling in family.ceilings.items():
            points = family.points(r, ceiling)
            assert len(set(points)) == r and 0 not in points
            if ceiling <= 40:
                assert is_superregular(family.field, family.field.vandermonde(points, ceiling))

    def test_nested_prefixes(self, family):
        assert family.points(5, 12)[:3] == family.points(3, 12)

    def test_width_ceiling_enforced(self, family):
        with pytest.raises(FamilyWidthError):
            family.points(5, family.ceilings[5] + 1)
        with pytest.raises(FamilyWidthError):
            family.points(6, 8)

    def test_a_wider_verification_serves_a_narrower_request(self, family):
        assert family.points(3, 40) == family.points(3, 12)

    def test_invalid_args(self, family):
        with pytest.raises(ValueError):
            family.points(0, 10)
        with pytest.raises(ValueError):
            family.points(2, 0)

    def test_default_width(self, family):
        assert family.default_width(3, 6) == 40
        assert family.default_width(3, 50) == 50


def test_gf8_ceilings_and_r1():
    with pytest.raises(FamilyWidthError):
        FAMILY.points(5, 37)
    # r = 1: any nonzero point is superregular; GF(2^8)'s is the generator.
    assert FAMILY.points(1, 255) == [2]
    assert FAMILY.default_width(5, 6) == 12
    assert MAX_WIDTH_16[5] == 80
