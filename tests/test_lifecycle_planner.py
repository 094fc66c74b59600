"""Lifetime policies (Fig 2) and the transcode planner."""

import math

import pytest

from repro.codes.costmodel import rrw_cost
from repro.core.lifecycle import (
    PHASE_TIERS,
    LifetimePhase,
    LifetimePolicy,
    LifetimeStage,
    baseline_microbench_policy,
    morph_macrobench_policy,
    morph_microbench_policy,
)
from repro.core.planner import TranscodeKind, TranscodePlanner
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication


class TestLifetimePolicy:
    def test_stage_index(self):
        policy = baseline_microbench_policy(t1=100, t2=200)
        assert policy.stage_index_at(0) == 0
        assert policy.stage_index_at(100) == 1
        assert policy.stage_index_at(1e9) == 2

    def test_the_scheme_held_progresses_with_age(self):
        policy = morph_microbench_policy(t1=100, t2=200)
        cc69, cc1215 = ECScheme(CodeKind.CC, 6, 9), ECScheme(CodeKind.CC, 12, 15)
        held = {age: policy.stages[policy.stage_index_at(age)].scheme
                for age in (0, 99.9, 100, 199.9, 200, 1e9)}
        assert held == {
            0: HybridScheme(1, cc69), 99.9: HybridScheme(1, cc69),
            100: cc69, 199.9: cc69, 200: cc1215, 1e9: cc1215,
        }

    def test_tier_follows_the_phase(self):
        policy = morph_macrobench_policy()
        for stage in policy.stages:
            assert policy.phase_at(stage.start_age) is stage.phase
            assert policy.tier_at(stage.start_age) == PHASE_TIERS[stage.phase]

    def test_first_transition_is_the_free_one(self):
        policy = morph_microbench_policy(t1=100, t2=200)
        assert len(policy.stages) == 3
        ingest, first = policy.stages[:2]
        assert first.start_age == 100
        assert isinstance(ingest.scheme, HybridScheme)
        assert first.scheme == ingest.scheme.ec

    def test_k_star_of_the_ec_widths(self):
        assert math.lcm(*morph_macrobench_policy().ec_widths()) == 20
        assert math.lcm(*morph_microbench_policy().ec_widths()) == 12

    def test_validation(self):
        stage = LifetimeStage(10.0, Replication(3), LifetimePhase.HOT)
        with pytest.raises(ValueError):
            LifetimePolicy([stage])  # must start at age 0
        with pytest.raises(ValueError):
            LifetimePolicy([])
        s0 = LifetimeStage(0.0, Replication(3), LifetimePhase.HOT)
        s1 = LifetimeStage(5.0, ECScheme(CodeKind.RS, 6, 9), LifetimePhase.WARM)
        with pytest.raises(ValueError):
            LifetimePolicy([s0, stage, s1])  # out of order


class TestPlanner:
    def setup_method(self):
        self.planner = TranscodePlanner()
        self.cc69 = ECScheme(CodeKind.CC, 6, 9)
        self.cc1215 = ECScheme(CodeKind.CC, 12, 15)
        self.rs69 = ECScheme(CodeKind.RS, 6, 9)

    def test_hybrid_to_embedded_ec_is_free(self):
        step = self.planner.plan(HybridScheme(1, self.cc69), self.cc69)
        assert step.kind is TranscodeKind.FREE
        assert step.cost.disk_io == 0.0

    def test_hybrid_to_other_ec_not_free(self):
        step = self.planner.plan(HybridScheme(1, self.cc69), self.cc1215)
        assert step.kind is TranscodeKind.CONVERTIBLE

    def test_cc_to_cc_convertible(self):
        step = self.planner.plan(self.cc69, self.cc1215)
        assert step.kind is TranscodeKind.CONVERTIBLE
        assert step.cost.disk_io < rrw_cost(self.cc1215).disk_io

    def test_rs_to_rs_is_rrw(self):
        step = self.planner.plan(self.rs69, ECScheme(CodeKind.RS, 12, 15))
        assert step.kind is TranscodeKind.RRW
        assert step.cost == rrw_cost(ECScheme(CodeKind.RS, 12, 15))

    def test_replication_source_is_rrw(self):
        step = self.planner.plan(Replication(3), self.rs69)
        assert step.kind is TranscodeKind.RRW

    @pytest.mark.parametrize("source", ["cc69", "hy69"])
    def test_a_hybrid_target_is_rrw(self, source):
        """Only ingest lays replica blocks: a native conversion into a
        hybrid would leave the file labelled with copies it lacks."""
        src = HybridScheme(1, self.cc69) if source == "hy69" else self.cc69
        for target in (HybridScheme(2, self.cc69), HybridScheme(1, self.cc1215)):
            step = self.planner.plan(src, target)
            assert step.kind is TranscodeKind.RRW
            assert step.cost == rrw_cost(target)

    def test_cc_to_lrcc(self):
        lrcc = ECScheme(CodeKind.LRCC, 24, 30, local_groups=4, r_global=2)
        step = self.planner.plan(self.cc69, lrcc)
        assert step.kind is TranscodeKind.CONVERTIBLE
        assert step.cost.read == pytest.approx(12 / 24)

    def test_lrcc_to_lrcc(self):
        a = ECScheme(CodeKind.LRCC, 36, 41, local_groups=3, r_global=2)
        b = ECScheme(CodeKind.LRCC, 72, 80, local_groups=6, r_global=2)
        step = self.planner.plan(a, b)
        assert step.kind is TranscodeKind.CONVERTIBLE

    def test_unsupported_lrcc_shape_falls_back_to_rrw(self):
        lrcc = ECScheme(CodeKind.LRCC, 25, 30, local_groups=5, r_global=0)
        step = self.planner.plan(self.cc69, lrcc)  # 25 not a multiple of 6
        assert step.kind is TranscodeKind.RRW

    def test_macro_chain_all_convertible(self):
        chain = [
            ECScheme(CodeKind.CC, 5, 8),
            ECScheme(CodeKind.CC, 10, 13),
            ECScheme(CodeKind.CC, 20, 23),
        ]
        src = HybridScheme(1, chain[0])
        step = self.planner.plan(src, chain[0])
        assert step.kind is TranscodeKind.FREE
        for a, b in zip(chain, chain[1:]):
            step = self.planner.plan(a, b)
            assert step.kind is TranscodeKind.CONVERTIBLE
