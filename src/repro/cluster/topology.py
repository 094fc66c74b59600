"""Cluster topology: racks, nodes, disks, hardware tiers.

The experimental scale mirrors the paper's testbed: 1 Namenode, 23
Datanodes, 5 client nodes, one HDD per Datanode, 40 GbE. Topology is
plain data; behaviour lives in the DFS and the event-driven experiments.

A :class:`Node` is the one record of a server's state: whether it is
up (``is_alive``) and how slow its disk is (``disk_multiplier``). The
functional DFS's datanodes, the timed :class:`repro.sim.cluster.SimCluster`
and the failure injector all read and write that record; the cluster's
:class:`~repro.cluster.partition.NetworkPartition` says who can reach it.

Two inputs shape the nodes:

* **Node classes (tiers).** ``ClusterSpec.node_classes`` partitions the
  cluster into named hardware tiers (e.g. ``ssd`` / ``hdd``) that feed
  placement preferences and the lifecycle planner. Classes are assigned
  round-robin across racks so a tier never concentrates in one rack.
* **Per-node hardware skew.** A node starts at its class's
  ``NodeClass.disk_multiplier`` (else 1.0); ``Node.disk_multiplier``
  scales its disk service times — 8.0 models a slow disk (straggler),
  0.1 an SSD. Assign it to turn a running node slow. The timed
  simulations multiply device time by it; the functional DFS consults it
  for hedged-read decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.partition import NetworkPartition


@dataclass
class Node:
    """One server: identity, rack, live/dead state and disk slowdown."""

    node_id: str
    rack: int
    is_alive: bool = field(default=True, init=False)
    #: hardware tier this node belongs to ("" = untiered cluster)
    node_class: str = ""
    #: disk service-time scaling (straggler > 1, SSD tier < 1); assign
    #: to turn a running node slow
    disk_multiplier: float = 1.0

    def fail(self) -> None:
        self.is_alive = False

    def recover(self) -> None:
        self.is_alive = True

    def __hash__(self):
        return hash(self.node_id)

    def __eq__(self, other):
        return isinstance(other, Node) and self.node_id == other.node_id


@dataclass(frozen=True)
class NodeClass:
    """A hardware tier: how many nodes, and how their IO scales."""

    name: str
    count: int
    #: disk service-time scaling of the tier's nodes (<1 = faster)
    disk_multiplier: float = 1.0


@dataclass
class ClusterSpec:
    """Sizing and hardware of a simulated cluster (construction input;
    the live per-node state is on each :class:`Node`)."""

    n_datanodes: int = 23
    n_racks: int = 4
    #: hardware tiers; counts must sum to <= n_datanodes (the remainder
    #: gets the last class)
    node_classes: Optional[Sequence[NodeClass]] = None


class Cluster:
    """The set of Datanodes (placement targets) of a simulated DFS."""

    def __init__(self, spec: Optional[ClusterSpec] = None):
        self.spec = spec or ClusterSpec()
        classes = self._assign_classes()
        self.nodes: List[Node] = []
        for i in range(self.spec.n_datanodes):
            klass = classes[i] if classes else None
            self.nodes.append(
                Node(
                    node_id=f"dn{i:03d}",
                    rack=i % self.spec.n_racks,
                    node_class=klass.name if klass is not None else "",
                    disk_multiplier=klass.disk_multiplier if klass is not None else 1.0,
                )
            )
        self._by_id: Dict[str, Node] = {n.node_id: n for n in self.nodes}
        #: reachability mask over the nodes and the ``namenode`` /
        #: ``client`` endpoints (inactive until split)
        self.partition = NetworkPartition()

    def _assign_classes(self) -> Optional[List[NodeClass]]:
        """Node index -> tier, interleaved so each rack mixes tiers."""
        if not self.spec.node_classes:
            return None
        out: List[NodeClass] = []
        for klass in self.spec.node_classes:
            out.extend([klass] * klass.count)
        if len(out) > self.spec.n_datanodes:
            raise ValueError(
                f"node class counts ({len(out)}) exceed n_datanodes "
                f"({self.spec.n_datanodes})"
            )
        while len(out) < self.spec.n_datanodes:
            out.append(self.spec.node_classes[-1])
        # Node ``i`` sits in rack ``i % n_racks``, so assigning the
        # expanded class list in index order deals each tier across the
        # racks like cards — no rack ends up single-tier.
        return out

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.is_alive]

    # -- racks ---------------------------------------------------------------
    def racks(self) -> List[int]:
        """Distinct rack ids, ascending."""
        return sorted({n.rack for n in self.nodes})

    def nodes_in_rack(self, rack: int) -> List[Node]:
        return [n for n in self.nodes if n.rack == rack]

    # -- tiers ---------------------------------------------------------------
    def nodes_in_class(self, node_class: str) -> List[Node]:
        return [n for n in self.nodes if n.node_class == node_class]

    # -- failures ------------------------------------------------------------
    def fail_node(self, node_id: str) -> None:
        self._by_id[node_id].fail()

    def recover_node(self, node_id: str) -> None:
        self._by_id[node_id].recover()

    def __len__(self) -> int:
        return len(self.nodes)
