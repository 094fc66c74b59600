"""Morph's policy layer: redundancy schemes, parameter advice, lifetimes.

This package is the paper's "primary contribution" surface: the hybrid
redundancy scheme definition (§4), the CC-friendly parameter advisor
(§5.2), file lifetime policies (Fig 2) and the transcode planner that
maps a scheme transition onto a concrete conversion strategy and IO plan.
"""

from repro.core.schemes import (
    CodeKind,
    ECScheme,
    HybridScheme,
    Replication,
    RedundancyScheme,
    degraded_read_probability,
)
from repro.core.advisor import SchemeAdvisor, Suggestion
from repro.core.lifecycle import LifetimePhase, LifetimePolicy, LifetimeStage
from repro.core.planner import TranscodePlanner, TranscodeStep
from repro.core.durability import (
    FailureEnvironment,
    annual_loss_probability,
    mttdl_hours,
)
from repro.core.adaptive import AdaptiveRedundancyPlanner, BathtubCurve

__all__ = [
    "CodeKind",
    "ECScheme",
    "HybridScheme",
    "Replication",
    "RedundancyScheme",
    "degraded_read_probability",
    "SchemeAdvisor",
    "Suggestion",
    "LifetimePhase",
    "LifetimePolicy",
    "LifetimeStage",
    "TranscodePlanner",
    "TranscodeStep",
    "FailureEnvironment",
    "annual_loss_probability",
    "mttdl_hours",
    "AdaptiveRedundancyPlanner",
    "BathtubCurve",
]
