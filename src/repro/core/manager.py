"""Lifetime manager: age-driven transcode scheduling.

The paper notes that >75% of production transcodes follow pre-programmed
schedules (§5.2). This manager is that scheduler: files register with a
:class:`~repro.core.lifecycle.LifetimePolicy` at ingest, and each tick
compares ages against the policy and issues ``transcode()`` calls for
files whose stage has advanced. Used by the macro-style experiments and
the integration tests; composable with
:class:`repro.dfs.heartbeat.HeartbeatMonitor` (tick both on a cadence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.lifecycle import LifetimePolicy


@dataclass
class ManagedFile:
    """A file under lifetime management."""

    name: str
    policy: LifetimePolicy
    ingested_at: float
    current_stage: int = 0


@dataclass
class LifetimeReport:
    """Transcodes issued by one manager tick."""

    now: float
    transitions: List[tuple] = field(default_factory=list)  # (name, from, to)


class LifetimeManager:
    """Watches file ages and drives their scheduled transitions:
    ``transcode()`` runs inline on the tick that crosses a stage
    boundary."""

    def __init__(self, fs):
        self.fs = fs
        self._files: Dict[str, ManagedFile] = {}

    def register(self, name: str, policy: LifetimePolicy, now: Optional[float] = None) -> None:
        """Start managing a file that was just ingested."""
        if name in self._files:
            raise ValueError(f"{name} is already managed")
        self.fs.namenode.lookup(name)  # must exist
        self._files[name] = ManagedFile(
            name=name, policy=policy, ingested_at=self.fs.clock if now is None else now
        )

    def unregister(self, name: str) -> None:
        self._files.pop(name, None)

    def managed(self) -> List[str]:
        return list(self._files)

    def stage_of(self, name: str) -> int:
        return self._files[name].current_stage

    def tick(self) -> LifetimeReport:
        """Advance every file whose age crossed a stage boundary.

        A file several boundaries behind (e.g. after downtime) advances
        one stage per tick — transitions stay sequential, so every CC
        merge sees the stripes the previous stage produced.
        """
        report = LifetimeReport(now=self.fs.clock)
        for managed in self._files.values():
            age = self.fs.clock - managed.ingested_at
            if managed.policy.stage_index_at(age) <= managed.current_stage:
                continue
            next_stage = managed.current_stage + 1
            stage = managed.policy.stages[next_stage]
            source = self.fs.namenode.lookup(managed.name).scheme
            self.fs.transcode(managed.name, stage.scheme)
            managed.current_stage = next_stage
            report.transitions.append((managed.name, source, stage.scheme))
        return report

    def run_until(self, end_clock: float, tick_interval: float) -> List[LifetimeReport]:
        """Tick on a cadence until the DFS clock reaches ``end_clock``."""
        reports = []
        while self.fs.clock < end_clock:
            self.fs.clock = min(self.fs.clock + tick_interval, end_clock)
            reports.append(self.tick())
        return reports
