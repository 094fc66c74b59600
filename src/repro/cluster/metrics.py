"""IO / compute / memory accounting.

Counters are plain and explicit: the functional DFS and the event-driven
experiments both record into these, and every benchmark reads savings out
of them. Byte counts are floats so cost-model fractions stay exact.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class NodeMetrics:
    """Per-node counters."""

    disk_bytes_read: float = 0.0
    disk_bytes_written: float = 0.0
    disk_bytes_deleted: float = 0.0
    net_bytes_in: float = 0.0
    net_bytes_out: float = 0.0
    cpu_seconds: float = 0.0
    memory_peak_bytes: float = 0.0
    memory_in_use_bytes: float = 0.0

    @property
    def disk_bytes_total(self) -> float:
        return self.disk_bytes_read + self.disk_bytes_written

    @property
    def net_bytes_total(self) -> float:
        return self.net_bytes_in + self.net_bytes_out

    def use_memory(self, nbytes: float) -> None:
        self.memory_in_use_bytes += nbytes
        self.memory_peak_bytes = max(self.memory_peak_bytes, self.memory_in_use_bytes)

    def free_memory(self, nbytes: float) -> None:
        self.memory_in_use_bytes = max(0.0, self.memory_in_use_bytes - nbytes)


@dataclass
class MaintenanceClassMetrics:
    """Background-maintenance counters for one task class (repair, scrub, ...)."""

    disk_bytes: float = 0.0
    net_bytes: float = 0.0
    cpu_seconds: float = 0.0
    tasks_completed: int = 0
    tasks_failed: int = 0
    tasks_dead_lettered: int = 0


class MeterWindow:
    """What the IO recorded while it was open moved, per node:
    ``nodes[node_id] = [disk, net, cpu]`` — disk bytes read + written,
    network bytes in + out, CPU seconds (:meth:`IOMetrics.metering`)."""

    DISK, NET, CPU = 0, 1, 2

    def __init__(self):
        self.nodes: Dict[str, List[float]] = {}

    def add(self, node_id: str, column: int, amount: float) -> None:
        row = self.nodes.get(node_id)
        if row is None:
            row = self.nodes[node_id] = [0.0, 0.0, 0.0]
        row[column] += amount

    def absorb(self, inner: "MeterWindow") -> None:
        for node_id, row in inner.nodes.items():
            for column, amount in enumerate(row):
                self.add(node_id, column, amount)

    def totals(self) -> Tuple[float, float, float]:
        """Disk, network and CPU summed over the nodes."""
        disk = net = cpu = 0.0
        for d, n, c in self.nodes.values():
            disk += d
            net += n
            cpu += c
        return disk, net, cpu


@dataclass
class IOMetrics:
    """Cluster-wide counters plus a per-node breakdown.

    A *metering window* (:meth:`metering`) attributes IO to the
    operation that moved it: while one is open, every disk, network and
    CPU charge is added to it too, per node. With none open a charge
    pays one ``is None`` test.
    """

    nodes: Dict[str, NodeMetrics] = field(default_factory=lambda: defaultdict(NodeMetrics))
    #: per-task-class maintenance accounting, recorded by the scheduler
    maintenance: Dict[str, MaintenanceClassMetrics] = field(
        default_factory=lambda: defaultdict(MaintenanceClassMetrics)
    )

    def __post_init__(self):
        #: the innermost open metering window
        self._window: Optional[MeterWindow] = None

    def node(self, node_id: str) -> NodeMetrics:
        return self.nodes[node_id]

    @contextmanager
    def metering(self) -> Iterator[MeterWindow]:
        """A window open for the block: it holds, per node, the disk,
        network and CPU recorded inside it. A window opened inside
        another adds what it holds into the enclosing one as it closes,
        so both are charged."""
        outer = self._window
        window = self._window = MeterWindow()
        try:
            yield window
        finally:
            self._window = outer
            if outer is not None:
                outer.absorb(window)

    def record_disk_read(self, node_id: str, nbytes: float) -> None:
        self.nodes[node_id].disk_bytes_read += nbytes
        if self._window is not None:
            self._window.add(node_id, MeterWindow.DISK, nbytes)

    def record_disk_write(self, node_id: str, nbytes: float) -> None:
        self.nodes[node_id].disk_bytes_written += nbytes
        if self._window is not None:
            self._window.add(node_id, MeterWindow.DISK, nbytes)

    def record_disk_delete(self, node_id: str, nbytes: float) -> None:
        """Bytes freed from a node's disk (capacity leaves, no IO cost)."""
        self.nodes[node_id].disk_bytes_deleted += nbytes

    def record_transfer(self, src: str, dst: str, nbytes: float) -> None:
        if src == dst:
            return  # server-local: no network IO (parity co-location wins)
        self.nodes[src].net_bytes_out += nbytes
        self.nodes[dst].net_bytes_in += nbytes
        if self._window is not None:
            self._window.add(src, MeterWindow.NET, nbytes)
            self._window.add(dst, MeterWindow.NET, nbytes)

    def record_cpu(self, node_id: str, seconds: float) -> None:
        self.nodes[node_id].cpu_seconds += seconds
        if self._window is not None:
            self._window.add(node_id, MeterWindow.CPU, seconds)

    def record_maintenance(
        self,
        task_class: str,
        disk_bytes: float = 0.0,
        net_bytes: float = 0.0,
        cpu_seconds: float = 0.0,
        completed: int = 0,
        failed: int = 0,
        dead_lettered: int = 0,
    ) -> None:
        """Attribute background work to a maintenance task class.

        The byte counters here are a *view over* the per-node counters
        (the same IO is also in ``nodes``), split by who caused it.
        """
        m = self.maintenance[task_class]
        m.disk_bytes += disk_bytes
        m.net_bytes += net_bytes
        m.cpu_seconds += cpu_seconds
        m.tasks_completed += completed
        m.tasks_failed += failed
        m.tasks_dead_lettered += dead_lettered

    # -- aggregates --------------------------------------------------------
    @property
    def disk_bytes_read(self) -> float:
        return sum(m.disk_bytes_read for m in self.nodes.values())

    @property
    def disk_bytes_written(self) -> float:
        return sum(m.disk_bytes_written for m in self.nodes.values())

    @property
    def disk_bytes_deleted(self) -> float:
        return sum(m.disk_bytes_deleted for m in self.nodes.values())

    @property
    def disk_bytes_total(self) -> float:
        return self.disk_bytes_read + self.disk_bytes_written

    @property
    def net_bytes_total(self) -> float:
        # Count each transfer once (out side).
        return sum(m.net_bytes_out for m in self.nodes.values())

    @property
    def cpu_seconds_total(self) -> float:
        return sum(m.cpu_seconds for m in self.nodes.values())

    def capacity_used(self) -> float:
        """Bytes at rest = written minus deleted.

        The DFS's own ``capacity_used`` sums datanode disk maps; the two
        agree as long as every write and delete is metered (the DFS
        asserts exactly that).
        """
        return self.disk_bytes_written - self.disk_bytes_deleted

    def summary(self) -> Dict[str, float]:
        return {
            "disk_read": self.disk_bytes_read,
            "disk_write": self.disk_bytes_written,
            "disk_deleted": self.disk_bytes_deleted,
            "disk_total": self.disk_bytes_total,
            "network": self.net_bytes_total,
            "cpu_seconds": self.cpu_seconds_total,
        }
