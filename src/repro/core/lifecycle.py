"""File lifetime model (paper Fig 2).

A file is *hot* at ingest, then cools through *warm*, *cool* and *frigid*
phases; each phase boundary triggers a transcode to a wider, more
space-efficient scheme. A :class:`LifetimePolicy` is the schedule of
(age, scheme) stages a data service programs for its files — the paper
notes >75% of production transcodes follow such pre-determined schedules,
which is what lets Morph plan placement (k*) and pick CC-friendly
parameters at ingest time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.schemes import (
    CodeKind,
    ECScheme,
    HybridScheme,
    RedundancyScheme,
    Replication,
)


class LifetimePhase(enum.Enum):
    HOT = "hot"
    WARM = "warm"
    COOL = "cool"
    FRIGID = "frigid"


#: phase -> storage-tier mapping for heterogeneous clusters:
#: latency-sensitive phases live on the fast (ssd) tier, cold phases on
#: the dense (hdd) tier. A homogeneous cluster simply has no nodes of
#: either class and the preference is a no-op.
PHASE_TIERS = {
    LifetimePhase.HOT: "ssd",
    LifetimePhase.WARM: "ssd",
    LifetimePhase.COOL: "hdd",
    LifetimePhase.FRIGID: "hdd",
}


@dataclass(frozen=True)
class LifetimeStage:
    """One stage of a file's life: from ``start_age`` onwards, use ``scheme``."""

    start_age: float  # seconds since ingest
    scheme: RedundancyScheme
    phase: LifetimePhase


class LifetimePolicy:
    """An ordered schedule of redundancy schemes over a file's life."""

    def __init__(self, stages: Sequence[LifetimeStage]):
        if not stages:
            raise ValueError("a lifetime policy needs at least one stage")
        if stages[0].start_age != 0:
            raise ValueError("first stage must start at age 0 (ingest)")
        ages = [s.start_age for s in stages]
        if ages != sorted(ages):
            raise ValueError("stages must be in increasing age order")
        self.stages: List[LifetimeStage] = list(stages)

    def phase_at(self, age: float) -> LifetimePhase:
        """The lifetime phase a file of the given age is in."""
        return self.stages[self.stage_index_at(age)].phase

    def tier_at(self, age: float) -> str:
        """Preferred storage-tier (node class) for a file of this age,
        through :data:`PHASE_TIERS`. The result feeds
        :attr:`PlacementPolicy.prefer_class`."""
        return PHASE_TIERS[self.phase_at(age)]

    def stage_index_at(self, age: float) -> int:
        idx = 0
        for i, stage in enumerate(self.stages):
            if age >= stage.start_age:
                idx = i
        return idx

    def ec_widths(self) -> List[int]:
        """Stripe widths (k) of every EC stage, for k* placement planning."""
        widths = []
        for stage in self.stages:
            scheme = stage.scheme
            if isinstance(scheme, HybridScheme):
                widths.append(scheme.ec.k)
            elif isinstance(scheme, ECScheme):
                widths.append(scheme.k)
        return widths


HOUR = 3600.0
DAY = 24 * HOUR
MONTH = 30 * DAY


def baseline_microbench_policy(t1: float = 600.0, t2: float = 1500.0) -> LifetimePolicy:
    """Fig 11a baseline: 3-r -> RS(6,9) -> RS(12,15)."""
    return LifetimePolicy(
        [
            LifetimeStage(0.0, Replication(3), LifetimePhase.HOT),
            LifetimeStage(t1, ECScheme(CodeKind.RS, 6, 9), LifetimePhase.WARM),
            LifetimeStage(t2, ECScheme(CodeKind.RS, 12, 15), LifetimePhase.COOL),
        ]
    )


def morph_microbench_policy(t1: float = 600.0, t2: float = 1500.0) -> LifetimePolicy:
    """Fig 11b Morph: Hy(1,CC(6,9)) -> CC(6,9) -> CC(12,15)."""
    cc69 = ECScheme(CodeKind.CC, 6, 9)
    return LifetimePolicy(
        [
            LifetimeStage(0.0, HybridScheme(1, cc69), LifetimePhase.HOT),
            LifetimeStage(t1, cc69, LifetimePhase.WARM),
            LifetimeStage(t2, ECScheme(CodeKind.CC, 12, 15), LifetimePhase.COOL),
        ]
    )


def morph_macrobench_policy() -> LifetimePolicy:
    """Fig 11d Morph chain: Hy(1,CC(5,8)) -> CC(5,8) -> CC(10,13) -> CC(20,23)."""
    cc58 = ECScheme(CodeKind.CC, 5, 8)
    return LifetimePolicy(
        [
            LifetimeStage(0.0, HybridScheme(1, cc58), LifetimePhase.HOT),
            LifetimeStage(60.0, cc58, LifetimePhase.WARM),
            LifetimeStage(180.0, ECScheme(CodeKind.CC, 10, 13), LifetimePhase.COOL),
            LifetimeStage(360.0, ECScheme(CodeKind.CC, 20, 23), LifetimePhase.FRIGID),
        ]
    )
