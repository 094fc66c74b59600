"""GF(2^16) field and wide convertible codes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.wide import (
    MAX_WIDTH_16,
    WideConvertibleCode,
    wide_family_points,
)
from repro.gf.field16 import (
    FIELD_ORDER_16,
    gf16_batch_det,
    gf16_inv,
    gf16_matinv,
    gf16_matmul,
    gf16_mul,
    gf16_pow,
)

el16 = st.integers(min_value=0, max_value=65535)
nz16 = st.integers(min_value=1, max_value=65535)


class TestField16:
    @settings(max_examples=50, deadline=None)
    @given(el16, el16, el16)
    def test_distributive(self, a, b, c):
        left = gf16_mul(a, b ^ c)
        right = gf16_mul(a, b) ^ gf16_mul(a, c)
        assert left == right

    @settings(max_examples=50, deadline=None)
    @given(nz16)
    def test_inverse(self, a):
        assert gf16_mul(a, gf16_inv(a)) == 1

    def test_zero_handling(self):
        assert gf16_mul(0, 12345) == 0
        with pytest.raises(ZeroDivisionError):
            gf16_inv(0)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 65536, 200, dtype=np.uint16)
        b = rng.integers(0, 65536, 200, dtype=np.uint16)
        out = gf16_mul(a, b)
        for i in range(0, 200, 17):
            assert out[i] == gf16_mul(int(a[i]), int(b[i]))

    def test_pow_negative(self):
        for a in (1, 2, 54321):
            assert gf16_mul(gf16_pow(a, -1), a) == 1

    def test_generator_order(self):
        # g^order == 1 and g^(order/p) != 1 for small prime factors.
        assert gf16_pow(2, FIELD_ORDER_16) == 1
        for p in (3, 5, 17, 257):
            assert gf16_pow(2, FIELD_ORDER_16 // p) != 1

    def test_matinv_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 65536, (6, 6), dtype=np.uint16)
        try:
            inv = gf16_matinv(a)
        except Exception:
            return
        eye = gf16_matmul(a, inv)
        assert np.array_equal(eye, np.eye(6, dtype=np.uint16))

    def test_batch_det_detects_singularity(self):
        singular = np.array([[[1, 2], [1, 2]]], dtype=np.uint16)
        regular = np.array([[[1, 0], [0, 1]]], dtype=np.uint16)
        assert gf16_batch_det(singular)[0] == 0
        assert gf16_batch_det(regular)[0] == 1


class TestWideFamilies:
    def test_curated_chain_verified(self):
        for r in (2, 3, 4, 5):
            points = wide_family_points(r, MAX_WIDTH_16[r])
            assert len(set(points)) == r

    def test_nested_prefixes(self):
        p3 = wide_family_points(3, 64)
        p5 = wide_family_points(5, 64)
        assert p5[:3] == p3

    def test_width_ceiling_enforced(self):
        with pytest.raises(ValueError):
            wide_family_points(5, 200)
        with pytest.raises(ValueError):
            wide_family_points(7, 10)


class TestWideConvertibleCode:
    def _encode(self, code, seed=0, chunk_len=32):
        rng = np.random.default_rng(seed)
        data = [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(code.k)]
        return data, code.encode(data)

    def test_erasure_decode_wide(self):
        code = WideConvertibleCode(34, 37, family_width=34)
        data, parities = self._encode(code, seed=2)
        avail = {i: data[i] for i in range(34) if i not in (3, 20, 33)}
        avail.update({34 + j: parities[j] for j in range(3)})
        rec = code.decode(avail, [3, 20, 33])
        for i in (3, 20, 33):
            assert np.array_equal(rec[i], data[i])

    def test_parity_reconstruction(self):
        code = WideConvertibleCode(10, 14, family_width=40)
        data, parities = self._encode(code, seed=3)
        avail = {i: data[i] for i in range(10)}
        rec = code.decode(avail, [10, 12, 13])
        for j in (0, 2, 3):
            assert np.array_equal(rec[10 + j], parities[j])

    def test_paper_17_to_34_merge(self):
        """EC(17,20) -> EC(34,37): >80% read saving (paper Appendix A)."""
        rng = np.random.default_rng(4)
        cc17 = WideConvertibleCode(17, 20, family_width=34)
        cc34 = WideConvertibleCode(34, 37, family_width=34)
        all_parities, alldata = [], []
        for _ in range(2):
            data = [rng.integers(0, 256, 48, dtype=np.uint8) for _ in range(17)]
            alldata.extend(data)
            all_parities.append(cc17.encode(data))
        merged = cc17.merge_parities(cc34, all_parities)
        direct = cc34.encode(alldata)
        assert all(np.array_equal(a, b) for a, b in zip(merged, direct))
        # reads: 2 stripes x 3 parities = 6 vs 34 data chunks.
        assert 1 - 6 / 34 > 0.80

    def test_wide_r5_merge(self):
        rng = np.random.default_rng(5)
        small = WideConvertibleCode(16, 21, family_width=80)
        big = WideConvertibleCode(80, 85, family_width=80)
        parities, alldata = [], []
        for _ in range(5):
            data = [rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(16)]
            alldata.extend(data)
            parities.append(small.encode(data))
        merged = small.merge_parities(big, parities)
        direct = big.encode(alldata)
        assert all(np.array_equal(a, b) for a, b in zip(merged, direct))

    def test_merge_validation(self):
        small = WideConvertibleCode(8, 11, family_width=16)
        wrong = WideConvertibleCode(17, 20, family_width=17)
        with pytest.raises(ValueError):
            small.merge_parities(wrong, [[np.zeros(4, np.uint8)] * 3] * 2)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WideConvertibleCode(0, 4)
