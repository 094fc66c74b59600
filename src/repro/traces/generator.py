"""Synthetic hourly ingest series.

Real cluster ingest has a strong diurnal cycle, a weekly dip, and
heavy-ish multiplicative noise. The generator is seeded and returns
plain numpy arrays in PB/hour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

HOURS_PER_DAY = 24


@dataclass
class HourlySeries:
    """An hourly time series with its starting hour offset."""

    values: np.ndarray
    start_hour: int = 0

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class IngestGenerator:
    """Generates PB/hour ingest with diurnal + weekly structure."""

    base_pb_per_hour: float = 3.0
    diurnal_amplitude: float = 0.25
    weekly_amplitude: float = 0.10
    noise_sigma: float = 0.08
    seed: int = 0

    def generate(self, hours: int, warmup_hours: int = 0) -> HourlySeries:
        """``warmup_hours`` of history precede the reported window so that
        delayed transcode flows have real ingest to look back at."""
        total = hours + warmup_hours
        rng = np.random.default_rng(self.seed)
        t = np.arange(total, dtype=float)
        diurnal = 1.0 + self.diurnal_amplitude * np.sin(
            2 * np.pi * (t % HOURS_PER_DAY) / HOURS_PER_DAY - np.pi / 2
        )
        weekly = 1.0 + self.weekly_amplitude * np.sin(
            2 * np.pi * (t % (7 * HOURS_PER_DAY)) / (7 * HOURS_PER_DAY)
        )
        noise = rng.lognormal(0.0, self.noise_sigma, size=total)
        values = self.base_pb_per_hour * diurnal * weekly * noise
        return HourlySeries(values=values, start_hour=warmup_hours)


#: mean transition-chain length of a file, and the lognormal sigma of the
#: pending-queue bursts
TRANSITIONS_PER_FILE = 2.2
BURSTINESS_SIGMA = 0.35


@dataclass
class TransitionRateGenerator:
    """File transitions per hour for a cluster (Fig 4).

    Millions of transitions/hour = ingest volume / mean file size, summed
    over the transition chain length, with pending-queue burstiness.
    """

    ingest: IngestGenerator = field(default_factory=IngestGenerator)
    mean_file_mb: float = 256.0
    seed: int = 1

    def generate(self, hours: int) -> np.ndarray:
        """Transitions per hour, in millions."""
        series = self.ingest.generate(hours)
        rng = np.random.default_rng(self.seed)
        files_per_hour = series.values * 1e9 / self.mean_file_mb  # PB -> MB
        bursts = rng.lognormal(0.0, BURSTINESS_SIGMA, size=hours)
        return files_per_hour * TRANSITIONS_PER_FILE * bursts / 1e6


@dataclass
class TransitionQueueModel:
    """Pending + performed transition dynamics (Fig 4's y-axis).

    Transitions are *demanded* as data ages past its schedule, but the
    cluster only *performs* them as fast as its transcode capacity allows
    — during ingest peaks a backlog (pending) builds and drains later.
    Fig 4 plots pending + performed per hour, which is what
    :meth:`series` returns.
    """

    #: cluster transcode capacity, millions of transitions per hour
    capacity_millions: float = 8.0

    def series(self, demanded: np.ndarray) -> np.ndarray:
        """pending+performed per hour for a demanded-transitions series."""
        pending = 0.0
        out = np.zeros_like(demanded, dtype=float)
        for i, demand in enumerate(demanded):
            queue = pending + float(demand)
            performed = min(queue, self.capacity_millions)
            pending = queue - performed
            out[i] = performed + pending
        return out


def four_cluster_rates(hours: int = 24 * 7, seed: int = 7) -> List[np.ndarray]:
    """Transition series (pending+performed, millions/h) for four clusters."""
    bases = [5.2, 3.1, 1.8, 0.9]  # PB/h ingest scale per cluster
    out = []
    for i, base in enumerate(bases):
        gen = TransitionRateGenerator(
            ingest=IngestGenerator(base_pb_per_hour=base, seed=seed + i),
            seed=seed + 10 + i,
        )
        demanded = gen.generate(hours)
        queue = TransitionQueueModel(capacity_millions=1.6 * demanded.mean())
        out.append(queue.series(demanded))
    return out
