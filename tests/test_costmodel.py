"""Transcode cost model — cross-checked against the real conversions.

Every native cost is priced from the plan the DFS executes
(``plan_conversion``), and the paper's costs are pinned value for value:
the Fig 17 rows, both Fig 18 columns and the planner's costs of the e2e
transitions. A cost is ``(read, write)`` chunk multipliers; there is no
network column."""

import numpy as np
import pytest

from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.convertible import ConvertibleCode, plan_conversion
from repro.codes.costmodel import (
    bandwidth_optimal_read_chunks,
    convertible_cost,
    native_rs_cost,
    rrw_cost,
    stripemerge_cost,
)
from repro.core.planner import TranscodeKind, TranscodePlanner
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication

CC69 = ECScheme(CodeKind.CC, 6, 9)
RS1215 = ECScheme(CodeKind.RS, 12, 15)


def lrcc(k, l, r_global):
    return ECScheme(CodeKind.LRCC, k, k + l + r_global, local_groups=l, r_global=r_global)


class TestCrossCheckWithRealPlans:
    """The cost is priced from the plan the conversion executes."""

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
        plan = plan_conversion(
            ECScheme(CodeKind.CC, k_i, n_i), stripes, ECScheme(CodeKind.CC, k_f, n_f)
        )
        actual_reads = len(plan.data_reads) + len(plan.parity_reads)
        model = convertible_cost(k_i, n_i - k_i, k_f, n_f - k_f)
        assert model.read * stripes * k_i == pytest.approx(actual_reads)

    def test_bandwidth_optimal_matches_implementation(self):
        code = BandwidthOptimalCC(4, 1, 2, family_width=8)
        final = ConvertibleCode(8, 10, family_width=8)
        rng = np.random.default_rng(1)
        stripes = [
            code.encode_stripe([rng.integers(0, 256, 8, dtype=np.uint8) for _ in range(4)])
            for _ in range(2)
        ]
        plan = plan_conversion(
            ECScheme(CodeKind.CC, 4, 5, anticipate_parities=2), 2, ECScheme(CodeKind.CC, 8, 10)
        )
        _, io = code.convert_merge(final, stripes, plan)
        assert convertible_cost(4, 1, 8, 2).read * 8 == pytest.approx(io.chunks_read)

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
        _, io = convert_cc_to_lrcc(
            initial, final, stripes, plan_conversion(CC69, 4, lrcc(24, 4, 2))
        )
        cost = TranscodePlanner().plan(CC69, lrcc(24, 4, 2)).cost
        assert cost.read * 24 == pytest.approx(io.parity_chunks_read)
        assert cost.write * 24 == pytest.approx(io.parity_chunks_written)


class TestStrategies:
    def test_rrw_reads_and_rewrites_everything(self):
        cost = rrw_cost(RS1215)
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

    def test_cc_beats_rs_across_regimes(self):
        for (k_i, r_i, k_f, r_f) in [(6, 3, 12, 3), (8, 4, 24, 3), (12, 3, 6, 3),
                                     (6, 3, 15, 3), (6, 3, 12, 4), (8, 4, 16, 5)]:
            cc = convertible_cost(k_i, r_i, k_f, r_f)
            rs = native_rs_cost(k_i, r_i, k_f, r_f)
            assert cc.disk_io < rs.disk_io, (k_i, r_i, k_f, r_f)

    def test_stripemerge_supported_case(self):
        cost = stripemerge_cost(6, 3, 12, 3)
        assert cost.disk_io < rrw_cost(RS1215).disk_io

    def test_stripemerge_unsupported_falls_back_to_rrw(self):
        assert stripemerge_cost(6, 3, 18, 3) == rrw_cost(ECScheme(CodeKind.RS, 18, 21))



class TestLrccCosts:
    def test_lrcc_merge_cost(self):
        cost = TranscodePlanner().plan(lrcc(36, 3, 2), lrcc(72, 6, 2)).cost
        assert cost.read == pytest.approx(10 / 72)
        assert cost.write == pytest.approx(8 / 72)

    @pytest.mark.parametrize(
        "source, target",
        [
            (CC69, lrcc(25, 5, 2)),  # width not a multiple
            (CC69, lrcc(24, 4, 3)),  # too many globals
            (lrcc(36, 3, 2), lrcc(70, 5, 2)),  # width ratio not integral
        ],
        ids=str,
    )
    def test_validation(self, source, target):
        span = source.k * target.k // np.gcd(source.k, target.k)
        assert plan_conversion(source, span // source.k, target) is None
        assert TranscodePlanner().plan(source, target).kind is TranscodeKind.RRW


class TestOneRrwPrice:
    """A rewrite is priced by its target alone: read the data once, write
    the target's footprint — ``1 + r/k`` for a stripe, ``copies`` for
    replication, the two summed for a hybrid."""

    @pytest.mark.parametrize(
        "target, write",
        [
            (RS1215, 1.25),
            (lrcc(36, 3, 2), 1 + 5 / 36),  # locals and globals alike
            (Replication(3), 3.0),
            (HybridScheme(2, CC69), 3.5),
        ],
        ids=str,
    )
    def test_write_is_the_target_footprint(self, target, write):
        cost = rrw_cost(target)
        assert cost.read == 1.0
        assert cost.write == pytest.approx(write)

    def test_ec_write_keeps_one_plus_r_over_k_to_the_last_bit(self):
        # n/k differs in the last bit for (6, 10): figures pinned on the
        # old arithmetic stay bit-identical.
        assert rrw_cost(ECScheme(CodeKind.CC, 6, 10)).write == 1.0 + 4 / 6 != 10 / 6

    def test_the_planner_prices_every_rrw_by_its_target(self):
        for source, target in [
            (Replication(3), CC69),
            (CC69, Replication(2)),
            (CC69, HybridScheme(1, RS1215)),
            (ECScheme(CodeKind.RS, 6, 9), RS1215),
        ]:
            step = TranscodePlanner().plan(source, target)
            assert step.kind is TranscodeKind.RRW
            assert step.cost == rrw_cost(target)

    def test_ingest_writes_the_footprint(self):
        # Hy(1, EC(6,9)): 1 replica + 1.5x EC = 2.5x (paper: 150% overhead).
        assert Replication(3).storage_overhead == 3.0
        assert HybridScheme(1, ECScheme(CodeKind.RS, 6, 9)).storage_overhead == pytest.approx(2.5)
        assert ECScheme(CodeKind.RS, 6, 9).storage_overhead == pytest.approx(1.5)
        assert HybridScheme(1, RS1215).storage_overhead < 3.0


class TestErrors:
    def test_access_optimal_rejects_parity_growth(self):
        assert plan_conversion(CC69, 2, ECScheme(CodeKind.CC, 12, 16)) is None

    def test_bandwidth_optimal_rejects_parity_shrink(self):
        with pytest.raises(ValueError):
            bandwidth_optimal_read_chunks(6, 3, 12, 3)


class TestPaperCostsPinned:
    """Paper-level costs, value for value: the Fig 17 rows, both Fig 18
    columns and the planner's costs for the e2e transitions. Fig 18's
    bands cannot catch a refactor that moves a cost; these can."""

    def test_fig17_rows(self):
        from repro.bench.experiments import fig17_regimes

        rows = [
            (r["case"], r["rrw_mb"], r["rs_mb"], r["cc_mb"], r["cc_vs_rs"])
            for r in fig17_regimes()["rows"]
        ]
        assert rows == [
            ("8-of-12 -> 16-of-19", 2240.0, 1216.0, 576.0, 0.5263157894736843),
            ("8-of-12 -> 16-of-20", 2304.0, 1280.0, 768.0, 0.4),
            ("8-of-12 -> 24-of-27", 2176.0, 1152.0, 512.0, 0.5555555555555556),
            ("8-of-12 -> 32-of-36", 2176.0, 1152.0, 640.0, 0.4444444444444444),
            ("8-of-12 -> 32-of-37", 2208.0, 1184.0, 876.8, 0.2594594594594595),
            ("32-of-36 -> 16-of-19", 2240.0, 1216.0, 800.0, 0.3421052631578947),
            ("32-of-36 -> 16-of-20", 2304.0, 1280.0, 896.0, 0.30000000000000004),
            ("32-of-36 -> 8-of-12", 2560.0, 1536.0, 1408.0, 0.08333333333333337),
            ("16-of-19 -> 8-of-12", 2560.0, 1536.0, 960.0, 0.375),
        ]

    def test_fig18_columns(self):
        from repro.bench.experiments import fig18_general_sweep

        sweep = fig18_general_sweep()
        assert [row["k"] for row in sweep["same_r"]] == list(range(7, 31))
        assert [row["cc_norm"] for row in sweep["same_r"]] == [
            0.8999999999999999, 0.8181818181818182, 0.75, 0.7692307692307692,
            0.7857142857142857, 0.6, 0.75, 0.7058823529411766,
            0.6666666666666667, 0.6842105263157895, 0.7000000000000001,
            0.5714285714285714, 0.6818181818181818, 0.6521739130434783, 0.625,
            0.6400000000000001, 0.653846153846154, 0.5555555555555556,
            0.6428571428571428, 0.6206896551724138, 0.6000000000000001,
            0.6129032258064515, 0.625, 0.5454545454545454,
        ]
        assert [row["stripemerge_norm"] for row in sweep["same_r"]] == [
            1.0 if k != 12 else 0.6799999999999999 for k in range(7, 31)
        ]
        assert [row["cc_norm"] for row in sweep["plus_one"]] == [
            0.9545454545454546, 0.9166666666666666, 0.8846153846153846,
            0.8928571428571429, 0.8999999999999999, 0.8125, 0.8823529411764705,
            0.8611111111111113, 0.8421052631578948, 0.85, 0.8571428571428571,
            0.7954545454545454, 0.8478260869565216, 0.8333333333333334, 0.82,
            0.8269230769230769, 0.8333333333333335, 0.7857142857142856,
            0.8275862068965518, 0.8166666666666668, 0.8064516129032259,
            0.8125000000000001, 0.8181818181818182, 0.7794117647058824,
        ]

    @pytest.mark.parametrize("hybrid", [False, True], ids=["CC(6,9)", "Hy(1,CC(6,9))"])
    @pytest.mark.parametrize(
        "target, cost",
        [
            (ECScheme(CodeKind.CC, 12, 15), (0.5, 0.25, 0.75)),
            (lrcc(12, 2, 2), (0.5, 0.3333333333333333, 0.8333333333333333)),
        ],
        ids=str,
    )
    def test_planner_costs_of_the_e2e_transitions(self, target, cost, hybrid):
        source = HybridScheme(1, CC69) if hybrid else CC69
        step = TranscodePlanner().plan(source, target)
        assert step.kind is TranscodeKind.CONVERTIBLE
        c = step.cost
        assert (c.read, c.write, c.disk_io) == cost
