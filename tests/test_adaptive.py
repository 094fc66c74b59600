"""Disk-adaptive redundancy composed with Convertible Codes (§8)."""

import numpy as np
import pytest

from repro.core.adaptive import FLOOR_AFR, LADDER, AdaptiveRedundancyPlanner, BathtubCurve


class TestBathtubCurve:
    def test_three_phases(self):
        curve = BathtubCurve()
        infant = curve.afr(0.0)
        floor = curve.afr(2.5)
        wearout = curve.afr(6.0)
        assert infant > floor
        assert wearout > floor
        assert floor == pytest.approx(FLOOR_AFR, rel=0.05)

    def test_monotone_decay_then_growth(self):
        curve = BathtubCurve()
        early = [curve.afr(a) for a in np.linspace(0, 2, 10)]
        late = [curve.afr(a) for a in np.linspace(4, 8, 10)]
        assert all(a >= b for a, b in zip(early, early[1:]))
        assert all(a <= b for a, b in zip(late, late[1:]))

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            BathtubCurve().afr(-1)


class TestPlanner:
    def test_lifecycle_narrow_wide_narrow(self):
        """Young disks get narrow stripes; mature disks widen; wear-out
        narrows again — the HeART/Pacemaker pattern."""
        plan = AdaptiveRedundancyPlanner().plan(72)
        widths = [s.k for s in plan.schedule]
        assert widths[0] < max(widths)       # starts narrow
        assert widths[-1] < max(widths)      # ends narrow
        assert len(plan.transitions) == 2

    def test_transitions_are_ladder_neighbors(self):
        plan = AdaptiveRedundancyPlanner().plan(72)
        ladder_pairs = {(a.k, b.k) for a in LADDER for b in LADDER}
        for t in plan.transitions:
            assert (t.source.k, t.target.k) in ladder_pairs
            # Integral-multiple ladder: always a clean merge or split.
            assert max(t.source.k, t.target.k) % min(t.source.k, t.target.k) == 0

    def test_cc_always_cheaper_than_rrw(self):
        plan = AdaptiveRedundancyPlanner().plan(72)
        for t in plan.transitions:
            assert t.cc_io < t.rrw_io

    def test_savings_band(self):
        plan = AdaptiveRedundancyPlanner().plan(72)
        saving = 1.0 - plan.total_cc_io / plan.total_rrw_io
        assert 0.40 < saving < 0.80  # CC removes most of the spike IO

    def test_io_series_spikes_at_transition_months(self):
        planner = AdaptiveRedundancyPlanner()
        plan = planner.plan(72)
        series = plan.io_series("rrw")
        spike_months = {t.month for t in plan.transitions}
        for month, io in enumerate(series):
            assert (io > 0) == (month in spike_months)

    def test_riskier_fleet_stays_narrow_longer(self):
        calm = AdaptiveRedundancyPlanner(curve=BathtubCurve(infant_afr=0.03))
        risky = AdaptiveRedundancyPlanner(curve=BathtubCurve(infant_afr=0.20))
        calm_first = next(
            (t.month for t in calm.plan(72).transitions), None)
        risky_first = next(
            (t.month for t in risky.plan(72).transitions), None)
        if calm_first is not None and risky_first is not None:
            assert risky_first >= calm_first

    def test_tight_budget_never_widens(self):
        planner = AdaptiveRedundancyPlanner(loss_budget=1e-15)
        plan = planner.plan(72)
        assert all(s.k == LADDER[0].k for s in plan.schedule)
        assert plan.transitions == []

    def test_scheme_for_afr_monotone(self):
        planner = AdaptiveRedundancyPlanner()
        narrow = planner.scheme_for_afr(0.08)
        wide = planner.scheme_for_afr(0.005)
        assert wide.k >= narrow.k
