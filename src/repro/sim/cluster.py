"""Simulated cluster for performance experiments.

A :class:`SimCluster` is the cluster model
(:class:`repro.cluster.topology.Cluster`: nodes, their up/down flag and
disk slowdown) plus time: each node owns a single-disk FIFO
:class:`Resource` and a NIC resource; client operations queue there,
which is where load dependence (t = 12 / 25 / 40 worker threads) comes
from. Failures are injected the same way as anywhere else —
``FailureInjector(sim, seed=sim.rng)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.cluster.engine import AnyOf, Environment, Event, Resource
from repro.cluster.topology import Cluster, ClusterSpec, Node
from repro.sim.calibration import SimCalibration


class SimCluster(Cluster):
    """Nodes + queues + models + helper processes used by the protocols."""

    def __init__(self, n_datanodes: int = 23, seed: int = 0):
        super().__init__(ClusterSpec(n_datanodes=n_datanodes))
        self.env = Environment()
        self.cal = SimCalibration()
        self.rng = np.random.default_rng(seed)
        #: per-node queues, by node id
        self.disks: Dict[str, Resource] = {
            n.node_id: Resource(self.env, capacity=1) for n in self.nodes
        }
        self.nics: Dict[str, Resource] = {
            n.node_id: Resource(self.env, capacity=2) for n in self.nodes
        }

    # -- selection ------------------------------------------------------------
    def pick_nodes(self, count: int, alive_only: bool = True) -> List[Node]:
        pool = self.alive_nodes() if alive_only else list(self.nodes)
        idx = self.rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in idx]

    def pick_nodes_any(self, count: int) -> List[Node]:
        """Pick among all nodes, dead ones included (placement does not
        know about failures that happened after the file was written)."""
        return self.pick_nodes(count, alive_only=False)

    # -- primitive processes ----------------------------------------------------
    def disk_op(self, node: Node, service_s: float, overhead_s: float = 0.0):
        """Queue for the disk, occupy it for the *device* time (scaled by
        the node's slowdown), then pay any software overhead off-device
        (it does not block the queue)."""
        disk = self.disks[node.node_id]
        req = disk.request()
        yield req
        yield self.env.timeout(service_s * node.disk_multiplier)
        disk.release(req)
        if overhead_s:
            yield self.env.timeout(overhead_s)

    def nic_op(self, node: Node, service_s: float):
        """Occupy a node's NIC (memory-absorb path)."""
        nic = self.nics[node.node_id]
        req = nic.request()
        yield req
        yield self.env.timeout(service_s)
        nic.release(req)

    def hedged(self, attempts: Sequence[Callable[[], Event]], deadline_s: float):
        """Race ``attempts`` with staggered starts: launch the first; each
        time ``deadline_s`` passes with none finished, launch the next;
        done when any finishes. Losers are not cancelled — a hedge
        consumes real resources."""
        outstanding: List[Event] = []
        for start in attempts:
            if outstanding:
                race = outstanding + [self.env.timeout(deadline_s)]
                idx, _val = yield AnyOf(self.env, race)
                if idx < len(outstanding):
                    return
            outstanding.append(start())
        yield AnyOf(self.env, outstanding)

    # -- composite helpers --------------------------------------------------------
    def replica_absorb(self, node: Node, size_bytes: float):
        """In-memory receive of a replicated block (no disk on path)."""
        service = self.cal.absorb_time(self.rng, size_bytes)
        return self.env.process(self.nic_op(node, service))

    def ec_chunk_write(self, node: Node, size_bytes: float):
        """Synchronous (client-path) EC chunk write: the HDFS-EC cell
        path serialises checksum/commit work with the device, so the full
        service time holds the disk — this is what makes direct-RS small
        writes slow (Fig 3)."""
        service = self.cal.ec_write_time(self.rng, size_bytes)
        return self.env.process(self.disk_op(node, service))

    def background_chunk_write(self, node: Node, size_bytes: float):
        """Striper/background chunk write: only device time occupies the
        disk; per-chunk software overhead proceeds concurrently."""
        device = self.cal.disk_time(self.rng, size_bytes)
        overhead = self.cal.ec_write_time(self.rng, 0.0)
        return self.env.process(self.disk_op(node, device, overhead))

    def disk_read(self, node: Node, size_bytes: float):
        device = self.cal.disk_time(self.rng, size_bytes)
        overhead = self.cal.read_overhead(self.rng)
        return self.env.process(self.disk_op(node, device, overhead))

    def striped_chunk_read(self, node: Node, size_bytes: float):
        """One chunk of a striped (EC) read: heavier per-chunk software
        path (remote block open, cell reassembly)."""
        device = self.cal.disk_time(self.rng, size_bytes)
        overhead = self.cal.ec_read_overhead(self.rng)
        return self.env.process(self.disk_op(node, device, overhead))

    def background_flush(self, node: Node, size_bytes: float):
        """Async buffer-cache flush: occupies the disk off the client path."""
        service = self.cal.disk_time(self.rng, size_bytes)
        return self.env.process(self.disk_op(node, service))
