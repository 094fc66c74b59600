"""Field axioms and table consistency, one test per property over both
fields: GF(2^8) and GF(2^16) are two values of one type."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gf.field import GF8, GF16, GaloisField

FIELDS = pytest.mark.parametrize("field", [GF8, GF16], ids=repr)

# Drawn over 16 bits and reduced into the field under test.
elements = st.integers(min_value=0, max_value=0xFFFF)
nonzero = st.integers(min_value=1, max_value=0xFFFF)


def _in(field, a, nonzero=False):
    a %= field.size
    return a or 1 if nonzero else a


@FIELDS
class TestScalarArithmetic:
    def test_mul_identity_and_zero(self, field):
        for a in [*range(256), field.order]:
            assert field.mul(a, 1) == a
            assert field.mul(a, 0) == 0
            assert field.mul(0, a) == 0

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_mul_commutative(self, field, a, b):
        a, b = _in(field, a), _in(field, b)
        assert field.mul(a, b) == field.mul(b, a)

    @settings(max_examples=50, deadline=None)
    @given(elements, elements, elements)
    def test_mul_associative(self, field, a, b, c):
        a, b, c = _in(field, a), _in(field, b), _in(field, c)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @settings(max_examples=50, deadline=None)
    @given(elements, elements, elements)
    def test_distributive(self, field, a, b, c):
        a, b, c = _in(field, a), _in(field, b), _in(field, c)
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)

    @settings(max_examples=50, deadline=None)
    @given(nonzero)
    def test_inverse(self, field, a):
        a = _in(field, a, nonzero=True)
        assert field.mul(a, field.inv(a)) == 1

    def test_inv_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    @settings(max_examples=50, deadline=None)
    @given(nonzero, st.integers(min_value=0, max_value=600))
    def test_pow_matches_repeated_mul(self, field, a, e):
        a = _in(field, a, nonzero=True)
        expected = 1
        for _ in range(e):
            expected = field.mul(expected, a)
        assert field.pow(a, e) == expected

    def test_pow_negative(self, field):
        for a in (1, 2, 133, field.order):
            assert field.mul(field.pow(a, -1), a) == 1
            assert field.pow(a, -2) == field.inv(field.pow(a, 2))

    def test_pow_zero_base(self, field):
        assert field.pow(0, 0) == 1
        assert field.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -1)


@FIELDS
class TestVectorised:
    def test_mul_broadcast_matches_scalar(self, field):
        rng = np.random.default_rng(0)
        a = rng.integers(0, field.size, 500).astype(field.dtype)
        b = rng.integers(0, field.size, 500).astype(field.dtype)
        a[::9] = 0
        out = field.mul(a, b)
        assert out.dtype == field.dtype
        for i in range(0, 500, 7):
            assert out[i] == field.mul(int(a[i]), int(b[i]))

    def test_mul_of_zero_dim_operands(self, field):
        assert int(field.mul(np.asarray(0, field.dtype), np.asarray(5, field.dtype))) == 0
        assert int(field.mul(np.asarray(1, field.dtype), np.asarray(5, field.dtype))) == 5

    def test_inv_array(self, field):
        a = np.arange(1, min(field.size, 4096)).astype(field.dtype)
        assert field.mul(a, field.inv(a)).tolist() == [1] * len(a)

    def test_inv_array_with_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(np.array([0, 1], dtype=field.dtype))


@FIELDS
class TestFieldStructure:
    def test_generator_has_full_order(self, field):
        # g^order == 1 and g^(order/p) != 1 for every prime p | order.
        assert field.pow(field.generator, field.order) == 1
        order, primes, p = field.order, set(), 2
        while p * p <= order:
            while order % p == 0:
                primes.add(p)
                order //= p
            p += 1
        primes.add(order)
        for p in primes - {1}:
            assert field.pow(field.generator, field.order // p) != 1, p

    def test_exp_log_are_inverse(self, field):
        nz = np.arange(1, field.size)
        assert np.array_equal(field.exp[field.log[nz]], nz)
        assert len(set(field.exp[: field.order].tolist())) == field.order

    def test_element_indexing(self, field):
        assert field.element(0) == 1
        assert field.element(1) == field.generator
        assert field.element(field.order) == field.element(0)

    def test_constants(self, field):
        assert field.size == 1 << field.bits
        assert field.order == field.size - 1
        assert field.dtype.itemsize * 8 == field.bits


def test_the_two_values_and_only_gf8_keeps_a_product_table():
    assert (GF8.bits, GF8.poly, GF16.bits, GF16.poly) == (8, 0x11D, 16, 0x1100B)
    assert GF8.mul_table.shape == (256, 256) and GF16.mul_table is None
    nz = np.arange(1, 256)
    logs = GF8.log[nz][:, None] + GF8.log[nz][None, :]
    assert np.array_equal(GF8.mul_table[1:, 1:], GF8.exp[logs])
    # A field built again from its width and polynomial is the same field.
    again = GaloisField(8, 0x11D, exhaustive_dets=1, sampled_dets=1, sample_seed=0)
    assert np.array_equal(again.exp, GF8.exp) and repr(again) == "GF(2^8)"


@FIELDS
class TestChunks:
    def test_symbols_round_trip(self, field):
        chunk = np.arange(64, dtype=np.uint8)
        symbols = field.symbols(chunk)
        assert symbols.dtype == field.dtype
        assert np.array_equal(field.chunks(symbols), chunk)

    def test_odd_length_chunk(self, field):
        chunk = np.arange(7, dtype=np.uint8)
        if field.dtype.itemsize == 1:
            assert np.array_equal(field.symbols(chunk), chunk)
        else:
            with pytest.raises(ValueError):
                field.symbols(chunk)
