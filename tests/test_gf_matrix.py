"""Matrix algebra over both fields: matmul, inversion, rank, determinants
and the Vandermonde power matrix — each written once on the field value
and tested here once per property, the field as its input — plus the
GF(2^8) constructions (Cauchy) and the plan-backed ``gf_matmul``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gf.field import GF8, GF16, SingularMatrixError
from repro.gf.matrix import cauchy_matrix, gf_identity, gf_matmul

FIELDS = pytest.mark.parametrize("field", [GF8, GF16], ids=repr)


def random_matrix(field, rng, *shape):
    return rng.integers(0, field.size, shape).astype(field.dtype)


def eye(field, n):
    return np.eye(n, dtype=field.dtype)


@FIELDS
class TestMatmulReference:
    def test_identity(self, field):
        a = random_matrix(field, np.random.default_rng(1), 5, 5)
        assert np.array_equal(field.matmul_reference(eye(field, 5), a), a)
        assert np.array_equal(field.matmul_reference(a, eye(field, 5)), a)

    def test_matches_scalar_definition(self, field):
        rng = np.random.default_rng(2)
        a = random_matrix(field, rng, 3, 4)
        b = random_matrix(field, rng, 4, 2)
        out = field.matmul_reference(a, b)
        for i in range(3):
            for j in range(2):
                acc = 0
                for t in range(4):
                    acc ^= field.mul(int(a[i, t]), int(b[t, j]))
                assert out[i, j] == acc

    def test_shape_mismatch_raises(self, field):
        with pytest.raises(ValueError):
            field.matmul_reference(eye(field, 3)[:2], eye(field, 3)[:2])


def test_gf_matmul_is_the_plan_product():
    rng = np.random.default_rng(3)
    a = random_matrix(GF8, rng, 4, 4)
    x = random_matrix(GF8, rng, 4, 5000)
    assert np.array_equal(gf_matmul(a, x), GF8.matmul_reference(a, x))
    with pytest.raises(ValueError):
        gf_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))


@FIELDS
class TestInversion:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_inverse_roundtrip(self, field, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        a = random_matrix(field, rng, n, n)
        if seed % 3 == 0 and n > 1:
            a[-1] = a[0]  # singular on purpose
        try:
            inv = field.matinv(a)
        except SingularMatrixError:
            assert field.rank(a) < n
            return
        assert field.rank(a) == n
        assert np.array_equal(field.matmul_reference(a, inv), eye(field, n))
        assert np.array_equal(field.matmul_reference(inv, a), eye(field, n))

    def test_singular_raises(self, field):
        for a in ([[1, 2], [1, 2]], [[0, 1], [0, 1]], [[1, 1, 0], [0, 0, 0], [0, 1, 1]]):
            with pytest.raises(SingularMatrixError):
                field.matinv(np.array(a, dtype=field.dtype))

    def test_non_square_raises(self, field):
        with pytest.raises(ValueError):
            field.matinv(np.zeros((2, 3), field.dtype))

    def test_input_is_not_modified(self, field):
        a = eye(field, 4)
        a[0, 3] = a[2, 1] = 9
        before = a.copy()
        field.matinv(a)
        field.rank(a)
        assert np.array_equal(a, before)


@FIELDS
class TestRank:
    def test_full_rank_identity(self, field):
        assert field.rank(eye(field, 6)) == 6

    def test_rank_deficient(self, field):
        # Row 1 = 2 * row 0 in both fields (no reduction below x^8).
        a = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 0]], dtype=field.dtype)
        assert field.rank(a) == 1

    def test_rank_skips_a_column_without_pivot(self, field):
        a = np.array([[0, 1, 5], [0, 1, 7]], dtype=field.dtype)
        assert field.rank(a) == 2

    def test_rank_of_wide_and_tall_matrices(self, field):
        a = np.concatenate([eye(field, 3), eye(field, 3)], axis=1)
        assert field.rank(a) == 3
        assert field.rank(a.T) == 3


@FIELDS
class TestDeterminant:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_zero_exactly_when_rank_deficient(self, field, s):
        rng = np.random.default_rng(s)
        mats = rng.integers(0, 4, (150, s, s)).astype(field.dtype)  # small: often singular
        mats[:50] = random_matrix(field, rng, 50, s, s)
        dets = field.det(mats)
        assert dets.dtype == field.dtype
        for i in range(len(mats)):
            assert (dets[i] == 0) == (field.rank(mats[i]) < s), i

    def test_identity_det_one(self, field):
        assert field.det(np.stack([eye(field, 3)] * 4)).tolist() == [1, 1, 1, 1]

    def test_non_square_raises(self, field):
        with pytest.raises(ValueError):
            field.det(np.zeros((2, 2, 3), field.dtype))


@FIELDS
class TestVandermonde:
    def test_matches_scalar_pow_loop(self, field):
        points = [1, 2, 3, 7, 0, field.order]
        v = field.vandermonde(points, 6)
        assert v.shape == (6, len(points)) and v.dtype == field.dtype
        for t in range(6):
            for j, p in enumerate(points):
                assert v[t, j] == field.pow(p, t), (t, j)

    def test_first_row_all_ones_and_duplicates_allowed(self, field):
        # Superregularity tests deliberately probe degenerate families.
        v = field.vandermonde([5, 5], 4)
        assert v[0].tolist() == [1, 1]
        assert np.array_equal(v[:, 0], v[:, 1])

    def test_empty(self, field):
        assert field.vandermonde([], 3).shape == (3, 0)
        assert field.vandermonde([1, 2], 0).shape == (0, 2)


class TestCauchy:
    def test_matches_scalar_definition(self):
        xs, ys = [4, 5, 6], [0, 1, 2]
        c = cauchy_matrix(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert c[i, j] == GF8.inv(x ^ y), (i, j)

    def test_every_square_submatrix_is_invertible(self):
        from repro.codes.pointsearch import is_superregular

        assert is_superregular(GF8, cauchy_matrix(range(4), range(10, 14)))

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_matrix([1, 2], [2, 3])
        with pytest.raises(ValueError):
            cauchy_matrix([1, 1], [2, 3])

    def test_identity_helper(self):
        assert np.array_equal(gf_identity(3), np.eye(3, dtype=np.uint8))
