"""Durability analysis: the quantitative case for hybrid redundancy."""

import pytest

from repro.core.durability import (
    FailureEnvironment,
    annual_loss_probability,
    mttdl_hours,
    nines,
)
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication


class TestMttdl:
    def test_more_tolerance_lives_longer(self):
        env = FailureEnvironment()
        single = mttdl_hours(Replication(1), env)
        double = mttdl_hours(Replication(2), env)
        triple = mttdl_hours(Replication(3), env)
        assert single < double < triple

    def test_unprotected_mttdl_is_disk_lifetime(self):
        env = FailureEnvironment(afr=0.02)
        # One copy, zero tolerance: MTTDL = 1 / lambda.
        assert mttdl_hours(Replication(1), env) == pytest.approx(
            1.0 / env.fail_rate_per_hour, rel=1e-9
        )

    def test_faster_repair_helps(self):
        fast = FailureEnvironment(mttr_hours=2.0)
        slow = FailureEnvironment(mttr_hours=48.0)
        scheme = ECScheme(CodeKind.RS, 6, 9)
        assert mttdl_hours(scheme, fast) > mttdl_hours(scheme, slow)

    def test_wider_stripe_same_tolerance_is_riskier(self):
        env = FailureEnvironment()
        narrow = mttdl_hours(ECScheme(CodeKind.RS, 6, 9), env)
        wide = mttdl_hours(ECScheme(CodeKind.RS, 12, 15), env)
        assert wide < narrow  # more chunks, same 3-failure budget


class TestPaperClaims:
    def test_hybrid_is_more_durable_than_3r(self):
        """§4.1: Hy(1, EC) gives 'sufficient durability' — in fact more
        than 3-r, at lower overhead than 3-r."""
        env = FailureEnvironment()
        hy = HybridScheme(1, ECScheme(CodeKind.CC, 6, 9))
        p_hy = annual_loss_probability(hy, env, groups=10_000)
        p_3r = annual_loss_probability(Replication(3), env, groups=10_000)
        assert p_hy < p_3r
        assert hy.storage_overhead < Replication(3).storage_overhead

    def test_ec_more_durable_than_3r_at_half_the_overhead(self):
        env = FailureEnvironment()
        p_ec = annual_loss_probability(ECScheme(CodeKind.RS, 6, 9), env)
        p_3r = annual_loss_probability(Replication(3), env)
        assert p_ec < p_3r

    def test_nines_helper(self):
        assert nines(1e-6) == pytest.approx(6.0)
        assert nines(0.0) == float("inf")

    def test_groups_scale_risk(self):
        env = FailureEnvironment()
        scheme = Replication(2)
        one = annual_loss_probability(scheme, env, groups=1)
        many = annual_loss_probability(scheme, env, groups=1000)
        assert many > one
        assert many == pytest.approx(1 - (1 - one) ** 1000, rel=1e-6)

    def test_loss_probability_monotone_in_afr(self):
        scheme = ECScheme(CodeKind.RS, 6, 9)
        ps = [
            annual_loss_probability(scheme, FailureEnvironment(afr=a))
            for a in (0.005, 0.02, 0.08)
        ]
        assert ps[0] < ps[1] < ps[2]
