"""Closed-loop workload driver and latency statistics.

``t`` worker threads repeatedly issue operations (as DFS-perf does in the
paper's testbed); each records its operation latency. Thread count is the
load knob: more threads → deeper disk/NIC queues → fatter tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.sim.cluster import SimCluster


def percentile(samples: Sequence[float], p: float) -> float:
    """p-th percentile (0-100) of a latency sample, in the input's unit."""
    if not len(samples):
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), p))


@dataclass
class ClosedLoopResult:
    """Latencies (seconds) and achieved throughput of one workload run."""

    latencies: List[float] = field(default_factory=list)
    op_bytes: float = 0.0
    duration_s: float = 0.0
    n_threads: int = 0

    def p(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def throughput_mb_s(self) -> float:
        """Aggregate goodput across all threads."""
        if self.duration_s <= 0:
            return 0.0
        total = self.op_bytes * len(self.latencies)
        return total / self.duration_s / (1024 * 1024)

    def cdf(self, points: int = 100):
        """(latency_ms, cumulative_fraction) series for CDF plots."""
        xs = np.sort(np.asarray(self.latencies)) * 1000.0
        ys = np.arange(1, len(xs) + 1) / len(xs)
        if len(xs) > points:
            idx = np.linspace(0, len(xs) - 1, points).astype(int)
            xs, ys = xs[idx], ys[idx]
        return xs.tolist(), ys.tolist()


class ClosedLoopWorkload:
    """Run ``n_threads`` loops of ``op_factory`` for ``n_ops`` each."""

    def __init__(
        self,
        sim: SimCluster,
        op_factory: Callable[[SimCluster], "object"],
        n_threads: int,
        ops_per_thread: int,
        op_bytes: float = 0.0,
    ):
        self.sim = sim
        self.op_factory = op_factory
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread
        self.op_bytes = op_bytes

    def _worker(self, result: ClosedLoopResult):
        sim = self.sim
        for _ in range(self.ops_per_thread):
            start = sim.env.now
            yield sim.env.process(self.op_factory(sim))
            result.latencies.append(sim.env.now - start)
            self._client_end = max(self._client_end, sim.env.now)

    def run(self) -> ClosedLoopResult:
        result = ClosedLoopResult(op_bytes=self.op_bytes, n_threads=self.n_threads)
        self._client_end = 0.0
        for _ in range(self.n_threads):
            self.sim.env.process(self._worker(result))
        self.sim.env.run()
        # Throughput is client-visible: measured to the last client ack,
        # not to the drain of background flush/striping work.
        result.duration_s = self._client_end or self.sim.env.now
        return result
