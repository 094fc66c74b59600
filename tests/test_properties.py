"""Hypothesis property tests on the core coding invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codes.base import chunks_equal
from repro.codes.convertible import ConvertibleCode, convert, plan_conversion
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.codes.rs import ReedSolomon
from repro.core.schemes import CodeKind, ECScheme

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def cc(k, r, anticipate_parities=None):
    return ECScheme(CodeKind.CC, k, k + r, anticipate_parities=anticipate_parities)


def lrcc(k, l, r):
    return ECScheme(CodeKind.LRCC, k, k + l + r, l, r)


def random_data(rng, k, chunk_len):
    return [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(k)]


class TestRsRoundtrip:
    @common
    @given(
        st.integers(2, 10),
        st.integers(1, 4),
        st.integers(1, 64),
        st.integers(0, 10_000),
    )
    def test_any_r_erasures_decode(self, k, r, chunk_len, seed):
        rng = np.random.default_rng(seed)
        code = ReedSolomon(k, k + r)
        stripe = code.encode_stripe(random_data(rng, k, chunk_len))
        erased = rng.choice(k + r, size=r, replace=False)
        rec = code.decode_stripe(stripe.erase(*[int(e) for e in erased]))
        assert chunks_equal(rec.chunks, stripe.chunks)


class TestCcRoundtrip:
    @common
    @given(
        st.integers(2, 8),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    def test_cc_erasures_decode(self, k, r, seed):
        rng = np.random.default_rng(seed)
        code = ConvertibleCode(k, k + r)
        stripe = code.encode_stripe(random_data(rng, k, 16))
        erased = rng.choice(k + r, size=r, replace=False)
        rec = code.decode_stripe(stripe.erase(*[int(e) for e in erased]))
        assert chunks_equal(rec.chunks, stripe.chunks)


class TestConversionEqualsDirectEncode:
    """THE Morph invariant: converted == re-encoded from scratch."""

    @common
    @given(
        st.integers(2, 6),      # k_initial
        st.integers(2, 3),      # r (same before/after)
        st.integers(2, 4),      # lambda (merge factor)
        st.integers(0, 10_000),
    )
    def test_merge_regime(self, k_i, r, lam, seed):
        rng = np.random.default_rng(seed)
        initial = ConvertibleCode(k_i, k_i + r, family_width=lam * k_i)
        final = ConvertibleCode(lam * k_i, lam * k_i + r, family_width=lam * k_i)
        stripes, alldata = [], []
        for _ in range(lam):
            data = random_data(rng, k_i, 12)
            alldata.extend(data)
            stripes.append(initial.encode_stripe(data))
        plan = plan_conversion(cc(k_i, r), lam, cc(lam * k_i, r))
        out, io = convert(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(out[0].chunks, direct.chunks)
        if r < k_i:
            # Merge regime reads no data when parities are cheaper.
            assert io.data_chunks_read == 0
        assert io.chunks_read <= lam * k_i  # never worse than RS

    @common
    @given(
        st.integers(2, 5),      # k_final
        st.integers(2, 3),      # r
        st.integers(2, 3),      # lambda (split factor)
        st.integers(0, 10_000),
    )
    def test_split_regime(self, k_f, r, lam, seed):
        rng = np.random.default_rng(seed)
        k_i = lam * k_f
        initial = ConvertibleCode(k_i, k_i + r, family_width=k_i)
        final = ConvertibleCode(k_f, k_f + r, family_width=k_i)
        data = random_data(rng, k_i, 12)
        stripe = initial.encode_stripe(data)
        out, io = convert(initial, final, [stripe], plan_conversion(cc(k_i, r), 1, cc(k_f, r)))
        for m in range(lam):
            direct = final.encode_stripe(data[m * k_f : (m + 1) * k_f])
            assert chunks_equal(out[m].chunks, direct.chunks)
        if r < k_f:
            # Split saves exactly one final stripe of data reads.
            assert io.data_chunks_read == k_i - k_f
        assert io.chunks_read <= k_i  # never worse than RS

    @common
    @given(st.integers(0, 10_000))
    def test_random_general_regime(self, seed):
        rng = np.random.default_rng(seed)
        k_i = int(rng.integers(2, 7))
        k_f = int(rng.integers(2, 13))
        r = int(rng.integers(1, 4))
        from math import gcd

        span = k_i * k_f // gcd(k_i, k_f)
        n_stripes = span // k_i
        initial = ConvertibleCode(k_i, k_i + r, family_width=span)
        final = ConvertibleCode(k_f, k_f + r, family_width=span)
        stripes, alldata = [], []
        for _ in range(n_stripes):
            data = random_data(rng, k_i, 8)
            alldata.extend(data)
            stripes.append(initial.encode_stripe(data))
        plan = plan_conversion(cc(k_i, r), n_stripes, cc(k_f, r))
        out, io = convert(initial, final, stripes, plan)
        for m, stripe in enumerate(out):
            direct = final.encode_stripe(alldata[m * k_f : (m + 1) * k_f])
            assert chunks_equal(stripe.chunks, direct.chunks)
        # Never worse than reading everything.
        assert io.chunks_read <= span + 1e-9


class TestLrccProperties:
    @common
    @given(st.integers(0, 10_000))
    def test_local_repair_of_every_position(self, seed):
        rng = np.random.default_rng(seed)
        code = LocallyRecoverableConvertibleCode(12, int(rng.choice([2, 3])), 2)
        stripe = code.encode_stripe(random_data(rng, 12, 16))
        failed = int(rng.integers(0, 12 + code.l))
        avail = {
            i: c for i, c in enumerate(stripe.chunks) if i != failed
        }
        repaired = code.local_repair(failed, avail)
        assert np.array_equal(repaired, stripe.chunks[failed])


class TestDfsRoundtripProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 200), st.integers(0, 1000))
    def test_write_read_any_size(self, n_kb, seed):
        from repro.core.schemes import CodeKind, ECScheme, HybridScheme
        from repro.dfs import MorphFS

        rng = np.random.default_rng(seed)
        fs = MorphFS(chunk_size=4 * 1024, future_widths=[6, 12], seed=seed)
        data = rng.integers(0, 256, n_kb * 1024, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        assert np.array_equal(fs.read_file("f"), data)
        fs.transcode("f", ECScheme(CodeKind.CC, 6, 9))
        fs.transcode("f", ECScheme(CodeKind.CC, 12, 15))
        assert np.array_equal(fs.read_file("f"), data)


class TestLrccConversionProperties:
    @common
    @given(
        st.integers(2, 4),     # k_initial
        st.integers(2, 4),     # lambda (stripes merged)
        st.integers(1, 2),     # r_global of the LRCC target
        st.integers(0, 10_000),
    )
    def test_cc_to_lrcc_random_shapes(self, k_i, lam, r_g, seed):
        from repro.codes.lrcc import convert_cc_to_lrcc

        rng = np.random.default_rng(seed)
        r_i = r_g + 1  # minimum initial parities for the conversion
        big_k = lam * k_i
        initial = ConvertibleCode(k_i, k_i + r_i, family_width=big_k)
        final = LocallyRecoverableConvertibleCode(big_k, lam, r_g, family_width=big_k)
        stripes, alldata = [], []
        for _ in range(lam):
            data = random_data(rng, k_i, 8)
            alldata.extend(data)
            stripes.append(initial.encode_stripe(data))
        plan = plan_conversion(cc(k_i, r_i), lam, lrcc(big_k, lam, r_g))
        (merged,), io = convert_cc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)
        assert io.data_chunks_read == 0

    @common
    @given(
        st.integers(2, 4),     # initial group size
        st.integers(2, 3),     # groups per initial stripe
        st.integers(2, 3),     # lambda
        st.integers(0, 10_000),
    )
    def test_lrcc_merge_random_shapes(self, gs, l_i, lam, seed):
        from repro.codes.lrcc import convert_lrcc_to_lrcc

        rng = np.random.default_rng(seed)
        k_i = gs * l_i
        initial = LocallyRecoverableConvertibleCode(
            k_i, l_i, 2, family_width=lam * k_i
        )
        final = LocallyRecoverableConvertibleCode(
            lam * k_i, lam * l_i, 2, family_width=lam * k_i
        )
        stripes, alldata = [], []
        for _ in range(lam):
            data = random_data(rng, k_i, 8)
            alldata.extend(data)
            stripes.append(initial.encode_stripe(data))
        plan = plan_conversion(lrcc(k_i, l_i, 2), lam, lrcc(lam * k_i, lam * l_i, 2))
        (merged,), io = convert_lrcc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)
        assert io.data_chunks_read == 0

    @common
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 10_000))
    def test_bwo_merge_random_shapes(self, r_i, lam, seed):
        from repro.codes.bandwidth import BandwidthOptimalCC

        rng = np.random.default_rng(seed)
        r_f = r_i + 1
        k = int(np.random.default_rng(seed + 1).integers(2, 6))
        code = BandwidthOptimalCC(k, r_i, r_f, family_width=lam * k)
        final = ConvertibleCode(lam * k, lam * k + r_f, family_width=lam * k)
        stripes, alldata = [], []
        for _ in range(lam):
            data = random_data(rng, k, r_f * 4)
            alldata.extend(data)
            stripes.append(code.encode_stripe(data))
        plan = plan_conversion(cc(k, r_i, r_f), lam, cc(lam * k, r_f))
        (merged,), io = code.convert_merge(final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)
        # Bandwidth bound: r_I parities + (r_F-r_I)/r_F of the data.
        bound = lam * (r_i + k * (r_f - r_i) / r_f)
        assert io.chunks_read == pytest.approx(bound)
