"""LRCC: decode parity with LRC + parities-only conversions."""

import numpy as np
import pytest

from repro.codes.base import DecodeError, chunks_equal
from repro.codes.convertible import ConvertibleCode, plan_conversion
from repro.codes.lrcc import (
    LocallyRecoverableConvertibleCode,
    convert_cc_to_lrcc,
    convert_lrcc_to_lrcc,
)
from repro.core.schemes import CodeKind, ECScheme


def cc(k, n):
    return ECScheme(CodeKind.CC, k, n)


def lrcc(k, l, r):
    return ECScheme(CodeKind.LRCC, k, k + l + r, l, r)


def cc_stripes(k, n, count, seed=0, chunk_len=24):
    code = ConvertibleCode(k, n)
    rng = np.random.default_rng(seed)
    stripes, alldata = [], []
    for _ in range(count):
        data = [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(k)]
        alldata.extend(data)
        stripes.append(code.encode_stripe(data))
    return code, stripes, alldata


class TestCodec:
    def test_local_repair(self):
        code = LocallyRecoverableConvertibleCode(12, 2, 2)
        rng = np.random.default_rng(1)
        data = [rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(12)]
        stripe = code.encode_stripe(data)
        group = {i: stripe.chunks[i] for i in code.group_members(0) if i != 2}
        repaired = code.local_repair(2, group)
        assert np.array_equal(repaired, stripe.chunks[2])

    def test_decode_mixed_failures(self):
        code = LocallyRecoverableConvertibleCode(12, 3, 2)
        rng = np.random.default_rng(2)
        data = [rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(12)]
        stripe = code.encode_stripe(data)
        rec = code.decode_stripe(stripe.erase(0, 5, 16))
        assert chunks_equal(rec.chunks, stripe.chunks)

    def test_unrecoverable_raises(self):
        code = LocallyRecoverableConvertibleCode(12, 2, 1)
        rng = np.random.default_rng(3)
        data = [rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(12)]
        stripe = code.encode_stripe(data)
        with pytest.raises(DecodeError):
            code.decode_stripe(stripe.erase(0, 1, 2))


class TestCcToLrcc:
    def test_paper_example_24_4_2(self):
        """CC(6,9) x4 -> LRCC(24,4,2): first parities become locals."""
        initial, stripes, alldata = cc_stripes(6, 9, 4, seed=4)
        final = LocallyRecoverableConvertibleCode(24, 4, 2)
        plan = plan_conversion(cc(6, 9), 4, lrcc(24, 4, 2))
        (merged,), io = convert_cc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)
        assert io.data_chunks_read == 0
        assert io.parity_chunks_read == 12  # (R+1)=3 per stripe x 4

    def test_local_parities_are_initial_first_parities(self):
        """Groups of exactly one initial stripe keep parity 0 verbatim."""
        initial, stripes, alldata = cc_stripes(6, 9, 4, seed=5)
        final = LocallyRecoverableConvertibleCode(24, 4, 2)
        plan = plan_conversion(cc(6, 9), 4, lrcc(24, 4, 2))
        (merged,), _ = convert_cc_to_lrcc(initial, final, stripes, plan)
        for g in range(4):
            assert np.array_equal(
                merged.chunks[24 + g], stripes[g].chunks[6]
            ), "local parity should be the unchanged first parity"

    def test_multi_stripe_groups(self):
        initial, stripes, alldata = cc_stripes(4, 7, 4, seed=6)
        final = LocallyRecoverableConvertibleCode(16, 2, 2)
        plan = plan_conversion(cc(4, 7), 4, lrcc(16, 2, 2))
        (merged,), _ = convert_cc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)

    def test_r_global_bound_enforced(self):
        initial, stripes, _ = cc_stripes(6, 9, 4, seed=7)
        final = LocallyRecoverableConvertibleCode(24, 4, 3)
        assert plan_conversion(cc(6, 9), 4, lrcc(24, 4, 3)) is None  # 3 > r_I - 1
        with pytest.raises(ValueError):
            convert_cc_to_lrcc(
                initial, final, stripes, plan_conversion(cc(6, 9), 4, lrcc(24, 4, 2))
            )

    def test_group_alignment_enforced(self):
        initial, stripes, _ = cc_stripes(6, 9, 4, seed=8)
        final = LocallyRecoverableConvertibleCode(24, 3, 2)  # groups of 8
        assert plan_conversion(cc(6, 9), 4, lrcc(24, 3, 2)) is None
        with pytest.raises(ValueError):
            convert_cc_to_lrcc(
                initial, final, stripes, plan_conversion(cc(6, 9), 4, lrcc(24, 4, 2))
            )

    def test_converted_stripe_repairs_locally(self):
        initial, stripes, alldata = cc_stripes(6, 9, 4, seed=9)
        final = LocallyRecoverableConvertibleCode(24, 4, 2)
        plan = plan_conversion(cc(6, 9), 4, lrcc(24, 4, 2))
        (merged,), _ = convert_cc_to_lrcc(initial, final, stripes, plan)
        rec = final.decode_stripe(merged.erase(7))
        assert chunks_equal(rec.chunks, merged.chunks)


class TestLrccToLrcc:
    def _lrcc_stripes(self, k, l, r, count, seed):
        code = LocallyRecoverableConvertibleCode(k, l, r)
        rng = np.random.default_rng(seed)
        stripes, alldata = [], []
        for _ in range(count):
            data = [rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(k)]
            alldata.extend(data)
            stripes.append(code.encode_stripe(data))
        return code, stripes, alldata

    def test_merge_matches_direct(self):
        initial, stripes, alldata = self._lrcc_stripes(24, 4, 2, 2, seed=10)
        final = LocallyRecoverableConvertibleCode(48, 8, 2)
        plan = plan_conversion(lrcc(24, 4, 2), 2, lrcc(48, 8, 2))
        (merged,), io = convert_lrcc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)
        assert io.data_chunks_read == 0

    def test_merge_with_group_coalescing(self):
        # Final groups twice the size of initial groups.
        initial, stripes, alldata = self._lrcc_stripes(24, 4, 2, 2, seed=11)
        final = LocallyRecoverableConvertibleCode(48, 4, 2)
        plan = plan_conversion(lrcc(24, 4, 2), 2, lrcc(48, 4, 2))
        (merged,), _ = convert_lrcc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)

    def test_cannot_add_globals(self):
        initial, stripes, _ = self._lrcc_stripes(24, 4, 1, 2, seed=12)
        final = LocallyRecoverableConvertibleCode(48, 8, 2)
        assert plan_conversion(lrcc(24, 4, 1), 2, lrcc(48, 8, 2)) is None
        with pytest.raises(ValueError):
            convert_lrcc_to_lrcc(
                initial, final, stripes, plan_conversion(lrcc(24, 4, 1), 2, lrcc(48, 8, 1))
            )

    def test_wide_service_chain(self):
        """Service A's mid->late chain: LRCC(36,3,2) x2 -> LRCC(72,6,2)."""
        initial, stripes, alldata = self._lrcc_stripes(36, 3, 2, 2, seed=13)
        final = LocallyRecoverableConvertibleCode(72, 6, 2)
        plan = plan_conversion(lrcc(36, 3, 2), 2, lrcc(72, 6, 2))
        (merged,), io = convert_lrcc_to_lrcc(initial, final, stripes, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)
        # Parities only: 2 stripes x (3 locals + 2 globals).
        assert io.parity_chunks_read == 10
