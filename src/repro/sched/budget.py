"""Per-node maintenance disk budgets: token buckets refilled per tick.

Each node gets one disk bucket. A task is admitted when every node it
lists can absorb its listed disk bytes; a task that lists nothing has an
unknown, so unbounded, cost on every live node, and runs only when all
their buckets are full. Either way a task is charged after it ran: its
listed disk bytes, else what the DFS metered on each node's disk.

A bucket holds one tick's rate, so idle ticks bank nothing. One escape
hatch preserves liveness: a task bigger than a bucket could otherwise
never run. Such a task is admitted when the bucket is full, overdrafting
it — the debt is paid down by subsequent refills before anything else is
admitted on that node. With budgets sized at or above the largest single
task (the sane configuration) no node moves more maintenance bytes in a
tick than its budget: the per-tick cap is exact.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sched.tasks import TaskCost


class TokenBucket:
    """Byte tokens refilled per tick, capped at one tick's rate."""

    def __init__(self, rate_per_tick: float):
        if rate_per_tick <= 0:
            raise ValueError("rate_per_tick must be positive")
        self.rate = float(rate_per_tick)
        self.tokens = self.rate  # start full: first tick gets a budget

    def refill(self) -> None:
        self.tokens = min(self.rate, self.tokens + self.rate)

    def can(self, nbytes: float) -> bool:
        if nbytes <= 0:
            return True
        if nbytes <= self.tokens:
            return True
        # Liveness overdraft: a task bigger than the bucket itself is
        # admitted only against a full bucket.
        return nbytes > self.rate and self.tokens >= self.rate

    def take(self, nbytes: float) -> None:
        """Charge bytes (may overdraft below zero; refills pay it down)."""
        self.tokens -= nbytes


class BudgetManager:
    """Lazily materialised per-node disk buckets, all at one rate
    (``None``: unlimited)."""

    def __init__(self, disk_bytes_per_tick: Optional[float]):
        self.rate = disk_bytes_per_tick
        self._nodes: Dict[str, TokenBucket] = {}

    @property
    def unlimited(self) -> bool:
        return self.rate is None

    def node(self, node_id: str) -> TokenBucket:
        if node_id not in self._nodes:
            self._nodes[node_id] = TokenBucket(self.rate)
        return self._nodes[node_id]

    def refill_all(self) -> None:
        for bucket in self._nodes.values():
            bucket.refill()

    def admits(self, charges: Dict[str, TaskCost]) -> bool:
        """True when every listed node can absorb its listed disk bytes."""
        if self.unlimited:
            return True
        return all(self.node(n).can(c.disk_bytes) for n, c in charges.items())

    def charge(self, node_id: str, disk_bytes: float) -> None:
        if not self.unlimited:
            self.node(node_id).take(disk_bytes)
