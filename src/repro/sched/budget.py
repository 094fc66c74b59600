"""Per-node maintenance byte budgets: token buckets refilled per tick.

Each node gets a disk bucket and a network bucket. A task is admitted
when every node it lists can absorb its listed bytes; a task that lists
nothing has an unknown, so unbounded, cost on every live node, and runs
only when all their buckets are full. Either way a task is charged after
it ran: its listed bytes, else what the DFS metered on each node.

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


class NodeBudget:
    """One node's disk and network buckets (either may be unlimited)."""

    def __init__(
        self,
        disk: Optional[TokenBucket] = None,
        net: Optional[TokenBucket] = None,
    ):
        self.disk = disk
        self.net = net

    def refill(self) -> None:
        if self.disk:
            self.disk.refill()
        if self.net:
            self.net.refill()

    def can(self, cost: TaskCost) -> bool:
        if self.disk and not self.disk.can(cost.disk_bytes):
            return False
        if self.net and not self.net.can(cost.net_bytes):
            return False
        return True

    def charge(self, disk_bytes: float = 0.0, net_bytes: float = 0.0) -> None:
        if self.disk and disk_bytes:
            self.disk.take(disk_bytes)
        if self.net and net_bytes:
            self.net.take(net_bytes)


class BudgetManager:
    """Lazily materialised per-node budgets from one policy's rates."""

    def __init__(
        self,
        disk_bytes_per_tick: Optional[float] = None,
        net_bytes_per_tick: Optional[float] = None,
    ):
        self.disk_rate = disk_bytes_per_tick
        self.net_rate = net_bytes_per_tick
        self._nodes: Dict[str, NodeBudget] = {}

    @property
    def unlimited(self) -> bool:
        return self.disk_rate is None and self.net_rate is None

    def node(self, node_id: str) -> NodeBudget:
        if node_id not in self._nodes:
            self._nodes[node_id] = NodeBudget(
                disk=TokenBucket(self.disk_rate) if self.disk_rate else None,
                net=TokenBucket(self.net_rate) if self.net_rate else None,
            )
        return self._nodes[node_id]

    def refill_all(self) -> None:
        for budget in self._nodes.values():
            budget.refill()

    def admits(self, charges: Dict[str, TaskCost]) -> bool:
        """True when every listed node can absorb its listed cost."""
        if self.unlimited:
            return True
        return all(self.node(n).can(c) for n, c in charges.items())

    def charge(self, node_id: str, disk_bytes: float = 0.0, net_bytes: float = 0.0) -> None:
        if self.unlimited:
            return
        self.node(node_id).charge(disk_bytes, net_bytes)
