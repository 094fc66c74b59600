"""Disk-adaptive redundancy on top of Convertible Codes.

The paper's related work (§8) observes that disk-adaptive redundancy
systems (HeART, Pacemaker, Tiger) change EC parameters as fleet failure
rates drift with disk age, and that their remaining pain — the bulk IO of
re-encoding whole cohorts — is exactly what Morph's native CC transcode
removes. This module builds that composition:

* a bathtub AFR curve models how a disk cohort's failure rate evolves;
* :class:`AdaptiveRedundancyPlanner` picks, per cohort age, the cheapest
  scheme from a CC-friendly ladder that still meets a durability target;
* the emitted transitions are costed under RRW (what HeART-era systems
  pay) versus native CC (what Morph pays), yielding the transition-IO
  series those papers plot as "IO spikes".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.codes.costmodel import convertible_cost, rrw_cost
from repro.core.durability import FailureEnvironment, annual_loss_probability
from repro.core.schemes import CodeKind, ECScheme


#: useful-life AFR floor of the bathtub
FLOOR_AFR = 0.012
#: wear-out starts at this age, adding ``WEAROUT_SLOPE`` AFR per year
WEAROUT_YEARS = 4.0
WEAROUT_SLOPE = 0.03
#: a new cohort's AFR, decaying to ``FLOOR_AFR`` over the first year
INFANT_AFR = 0.06
#: the planner's protection groups, and hours to repair a failed disk
PROTECTION_GROUPS = 100_000
MTTR_HOURS = 12.0
#: the annual data-loss probability a planned scheme must stay under
LOSS_BUDGET = 1e-7


class BathtubCurve:
    """Annualised failure rate of a disk cohort as a function of age.

    Classic three-phase shape: infant mortality decaying over the first
    year, a useful-life floor, and wear-out growth after ``WEAROUT_YEARS``.
    """

    def afr(self, age_years: float) -> float:
        if age_years < 0:
            raise ValueError("age must be non-negative")
        infant = (INFANT_AFR - FLOOR_AFR) * np.exp(-3.0 * age_years)
        wearout = max(0.0, age_years - WEAROUT_YEARS) * WEAROUT_SLOPE
        return float(FLOOR_AFR + infant + wearout)


#: The CC-friendly scheme ladder the planner chooses from: one family
#: (r = 3), widths in integral-multiple steps so every adjacent move is a
#: pure merge or split.
LADDER: Tuple[ECScheme, ...] = (
    ECScheme(CodeKind.CC, 6, 9),
    ECScheme(CodeKind.CC, 12, 15),
    ECScheme(CodeKind.CC, 24, 27),
)


@dataclass
class AdaptiveTransition:
    """One fleet-wide scheme change for a cohort."""

    month: int
    source: ECScheme
    target: ECScheme
    #: per-logical-byte disk IO under each execution strategy
    rrw_io: float
    cc_io: float


@dataclass
class AdaptivePlan:
    """Scheme schedule + transition costs for one cohort's lifetime."""

    schedule: List[ECScheme] = field(default_factory=list)  # per month
    transitions: List[AdaptiveTransition] = field(default_factory=list)

    def io_series(self, strategy: str, months: Optional[int] = None) -> np.ndarray:
        """Per-month transition IO (per logical byte) for a strategy."""
        months = months or len(self.schedule)
        out = np.zeros(months)
        for t in self.transitions:
            if t.month < months:
                out[t.month] += t.rrw_io if strategy == "rrw" else t.cc_io
        return out

    @property
    def total_rrw_io(self) -> float:
        return sum(t.rrw_io for t in self.transitions)

    @property
    def total_cc_io(self) -> float:
        return sum(t.cc_io for t in self.transitions)


class AdaptiveRedundancyPlanner:
    """Chooses the cheapest durable scheme per cohort age (HeART-style).

    For each month of a cohort's life, the planner evaluates the ladder
    under the current AFR and picks the most space-efficient scheme whose
    annual data-loss probability (across ``PROTECTION_GROUPS`` groups)
    stays below ``LOSS_BUDGET``. Scheme changes become transitions costed
    under both RRW and native CC.
    """

    def scheme_for_afr(self, afr: float) -> ECScheme:
        """Most space-efficient ladder scheme meeting the loss budget."""
        env = FailureEnvironment(afr=afr, mttr_hours=MTTR_HOURS)
        best = None
        for scheme in LADDER:
            p = annual_loss_probability(scheme, env, groups=PROTECTION_GROUPS)
            if p <= LOSS_BUDGET:
                if best is None or scheme.storage_overhead < best.storage_overhead:
                    best = scheme
        # Nothing qualifies: take the most durable (lowest loss) option.
        if best is None:
            best = min(
                LADDER, key=lambda s: annual_loss_probability(s, env, groups=PROTECTION_GROUPS)
            )
        return best

    def plan(self, months: int = 72) -> AdaptivePlan:
        """Monthly schedule + transitions over a cohort lifetime."""
        plan = AdaptivePlan()
        current: Optional[ECScheme] = None
        curve = BathtubCurve()
        for month in range(months):
            afr = curve.afr(month / 12.0)
            scheme = self.scheme_for_afr(afr)
            plan.schedule.append(scheme)
            if current is not None and scheme != current:
                rrw = rrw_cost(scheme).disk_io
                cc = convertible_cost(current.k, current.r, scheme.k, scheme.r).disk_io
                plan.transitions.append(
                    AdaptiveTransition(month, current, scheme, rrw, cc)
                )
            current = scheme
        return plan
