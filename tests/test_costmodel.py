"""Transcode cost model — cross-checked against the real conversions."""

import numpy as np
import pytest

from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.convertible import ConvertibleCode, plan_conversion
from repro.codes.costmodel import (
    Strategy,
    access_optimal_read_chunks,
    bandwidth_optimal_read_chunks,
    convertible_cost,
    lrc_rrw_cost,
    lrcc_from_cc_cost,
    lrcc_merge_cost,
    native_rs_cost,
    rrw_cost,
    stripemerge_cost,
    transcode_cost,
)
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication


class TestCrossCheckWithRealPlans:
    """The closed form must equal what plan_conversion actually reads."""

    @pytest.mark.parametrize(
        "k_i,n_i,k_f,n_f,stripes",
        [
            (6, 9, 12, 15, 2),     # merge
            (4, 6, 12, 14, 3),     # merge, r down
            (12, 14, 4, 6, 1),     # split
            (6, 9, 15, 18, 5),     # general
            (6, 9, 4, 7, 2),       # general with derivation
            (12, 15, 6, 9, 1),     # split 2-way
        ],
    )
    def test_access_optimal_matches_plan(self, k_i, n_i, k_f, n_f, stripes):
        initial = ConvertibleCode(k_i, n_i)
        final = ConvertibleCode(k_f, n_f)
        plan = plan_conversion(initial, final, stripes)
        actual_reads = len(plan.data_reads) + len(plan.parity_reads)
        from math import gcd

        span = k_i * k_f // gcd(k_i, k_f)
        scale = (stripes * k_i) // span
        model = access_optimal_read_chunks(k_i, n_i - k_i, k_f, n_f - k_f)
        assert model * scale == actual_reads

    def test_bandwidth_optimal_matches_implementation(self):
        code = BandwidthOptimalCC(4, 1, 2, family_width=8)
        model = bandwidth_optimal_read_chunks(4, 1, 8, 2)
        assert model == pytest.approx(code.conversion_read_chunks(2))

    def test_lrcc_from_cc_matches_conversion_io(self):
        from repro.codes.lrcc import LocallyRecoverableConvertibleCode, convert_cc_to_lrcc

        initial = ConvertibleCode(6, 9)
        final = LocallyRecoverableConvertibleCode(24, 4, 2)
        rng = np.random.default_rng(0)
        stripes = [
            initial.encode_stripe(
                [rng.integers(0, 256, 12, dtype=np.uint8) for _ in range(6)]
            )
            for _ in range(4)
        ]
        _, io = convert_cc_to_lrcc(initial, final, stripes)
        cost = lrcc_from_cc_cost(6, 3, 24, 4, 2)
        assert cost.read * 24 == pytest.approx(io.parity_chunks_read)
        assert cost.write * 24 == pytest.approx(io.parity_chunks_written)


class TestStrategies:
    def test_rrw_reads_and_rewrites_everything(self):
        cost = rrw_cost(6, 3, 12, 3)
        assert cost.read == 1.0
        assert cost.write == pytest.approx(1.25)
        assert cost.disk_io == pytest.approx(2.25)

    def test_native_rs_writes_only_parities(self):
        cost = native_rs_cost(6, 3, 12, 3)
        assert cost.read == 1.0
        assert cost.write == pytest.approx(0.25)

    def test_cc_merge_is_parities_only(self):
        cost = convertible_cost(6, 3, 12, 3)
        assert cost.read == pytest.approx(0.5)  # 6 parities / 12 chunks
        assert cost.network == 0.0  # co-located parity merge

    def test_cc_beats_rs_across_regimes(self):
        for (k_i, r_i, k_f, r_f) in [(6, 3, 12, 3), (8, 4, 24, 3), (12, 3, 6, 3),
                                     (6, 3, 15, 3), (6, 3, 12, 4), (8, 4, 16, 5)]:
            cc = convertible_cost(k_i, r_i, k_f, r_f)
            rs = native_rs_cost(k_i, r_i, k_f, r_f)
            assert cc.disk_io < rs.disk_io, (k_i, r_i, k_f, r_f)

    def test_stripemerge_supported_case(self):
        cost = stripemerge_cost(6, 3, 12, 3)
        assert cost.disk_io < rrw_cost(6, 3, 12, 3).disk_io

    def test_stripemerge_unsupported_falls_back_to_rrw(self):
        assert stripemerge_cost(6, 3, 18, 3) == rrw_cost(6, 3, 18, 3)

    def test_dispatch(self):
        for strategy in Strategy:
            cost = transcode_cost(strategy, 6, 3, 12, 3)
            assert cost.read >= 0 and cost.write >= 0

    def test_scaled(self):
        cost = rrw_cost(6, 3, 12, 3).scaled(100.0)
        assert cost.read == pytest.approx(100.0)


class TestLrccCosts:
    def test_lrcc_merge_cost(self):
        cost = lrcc_merge_cost(36, 3, 2, 72, 6, 2)
        assert cost.read == pytest.approx(10 / 72)
        assert cost.write == pytest.approx(8 / 72)
        assert cost.network == 0.0

    def test_lrc_rrw_cost(self):
        cost = lrc_rrw_cost(6, 36, 3, 2)
        assert cost.read == 1.0
        assert cost.write == pytest.approx(1 + 5 / 36)

    def test_validation(self):
        with pytest.raises(ValueError):
            lrcc_from_cc_cost(6, 3, 25, 5, 2)  # width not a multiple
        with pytest.raises(ValueError):
            lrcc_from_cc_cost(6, 3, 24, 4, 3)  # too many globals
        with pytest.raises(ValueError):
            lrcc_merge_cost(36, 3, 2, 70, 5, 2)  # width ratio not integral


class TestIngestMultipliers:
    def test_replication(self):
        assert Replication(3).ingest_disk_multiplier == 3.0

    def test_hybrid(self):
        # Hy(1, EC(6,9)): 1 replica + 1.5x EC = 2.5x (paper: 150% overhead).
        hy = HybridScheme(1, ECScheme(CodeKind.RS, 6, 9))
        assert hy.ingest_disk_multiplier == pytest.approx(2.5)

    def test_ec(self):
        assert ECScheme(CodeKind.RS, 6, 9).ingest_disk_multiplier == pytest.approx(1.5)

    def test_hybrid_cheaper_than_replication(self):
        hy = HybridScheme(1, ECScheme(CodeKind.RS, 12, 15))
        assert hy.ingest_disk_multiplier < 3.0


class TestErrors:
    def test_access_optimal_rejects_parity_growth(self):
        with pytest.raises(ValueError):
            access_optimal_read_chunks(6, 3, 12, 4)

    def test_bandwidth_optimal_rejects_parity_shrink(self):
        with pytest.raises(ValueError):
            bandwidth_optimal_read_chunks(6, 3, 12, 3)
