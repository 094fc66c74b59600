"""Per-hour IO accounting over service traces (Figs 1 and 12).

For each hour: ingest disk IO = ingested bytes x the ingest scheme's
footprint (``storage_overhead``); transcode disk IO = for every flow, the
bytes ingested ``delay`` hours ago (times the flow's byte fraction) x the
per-byte IO of the planned transition strategy. Baseline transitions are RRW
(:func:`repro.codes.costmodel.rrw_cost` of the target); Morph
transitions go through :class:`repro.core.planner.TranscodePlanner`
(free for hybrid -> EC, parities-only for CC/LRCC merges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.codes.costmodel import rrw_cost
from repro.core.planner import TranscodePlanner
from repro.traces.services import ServiceModel


@dataclass
class TraceAnalysis:
    """Hourly IO series for one service under one system."""

    service: str
    system: str  # "baseline" | "morph"
    hours: int
    ingest_io: np.ndarray = field(default=None)
    #: flow label -> hourly transcode disk IO (PB)
    transcode_io: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def transcode_total(self) -> np.ndarray:
        if not self.transcode_io:
            return np.zeros(self.hours)
        return np.sum(list(self.transcode_io.values()), axis=0)

    @property
    def total_io(self) -> np.ndarray:
        return self.ingest_io + self.transcode_total

    def mean_total(self) -> float:
        return float(np.mean(self.total_io))

    def mean_transcode(self) -> float:
        return float(np.mean(self.transcode_total))


def analyze_service(
    service: ServiceModel, system: str, hours: int = 24 * 30
) -> TraceAnalysis:
    """Hourly ingest+transcode IO for a service under one system."""
    if system not in ("baseline", "morph"):
        raise ValueError("system must be 'baseline' or 'morph'")
    warmup = service.max_delay_hours()
    series = service.ingest.generate(hours, warmup_hours=warmup)
    window = series.values[warmup:]
    analysis = TraceAnalysis(service=service.name, system=system, hours=hours)

    if system == "baseline":
        mult = service.baseline_ingest_scheme.storage_overhead
        analysis.ingest_io = window * mult
        flows = service.baseline_flows
    else:
        mult = sum(
            frac * scheme.storage_overhead
            for frac, scheme in service.morph_ingest_schemes
        )
        analysis.ingest_io = window * mult
        flows = service.morph_flows

    for flow in flows:
        delayed = series.values[warmup - flow.delay_hours : warmup - flow.delay_hours + hours]
        volume = delayed * flow.fraction
        if system == "baseline":
            per_byte = rrw_cost(flow.target).disk_io
        else:
            per_byte = TranscodePlanner().plan(flow.source, flow.target).cost.disk_io
        analysis.transcode_io[flow.label] = volume * per_byte
    return analysis


@dataclass
class SystemComparison:
    """Baseline-vs-Morph reductions for one service."""

    service: str
    baseline: TraceAnalysis
    morph: TraceAnalysis

    @property
    def total_reduction(self) -> float:
        return 1.0 - self.morph.mean_total() / self.baseline.mean_total()

    @property
    def transcode_reduction(self) -> float:
        base = self.baseline.mean_transcode()
        if base == 0:
            return 0.0
        return 1.0 - self.morph.mean_transcode() / base

    @property
    def ingest_reduction(self) -> float:
        return 1.0 - float(np.mean(self.morph.ingest_io)) / float(
            np.mean(self.baseline.ingest_io)
        )


def compare_systems(service: ServiceModel, hours: int = 24 * 30) -> SystemComparison:
    """Run both systems over the same trace and report reductions."""
    baseline = analyze_service(service, "baseline", hours)
    morph = analyze_service(service, "morph", hours)
    return SystemComparison(service=service.name, baseline=baseline, morph=morph)
