"""Failure injection for recovery and degraded-mode experiments.

The one sampler of failure victims, for the functional DFS and the
timed simulations alike. Beyond independent node failures it drives the
correlated pattern production failure data shows (XORing Elephants:
failures arrive in rack/switch bursts): whole-rack failures. Victims
are sampled from the *alive* population only, so repeated injections
always add the requested number of new failures. Failing a node flips
its :class:`~repro.cluster.topology.Node` — the flag the datanodes,
placement and the heartbeat all read — so an injection is a whole
failure and :meth:`FailureInjector.recover_all` a whole return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Union

import numpy as np

from repro.cluster.topology import Cluster


@dataclass
class FailureInjector:
    """Drives node failures and chunk corruptions deterministically."""

    cluster: Cluster
    #: an int, or a Generator to continue drawing from (a simulation's)
    seed: Union[int, np.random.Generator] = 0
    failed_nodes: Set[str] = field(default_factory=set, init=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def fail_random_nodes(self, count: int) -> List[str]:
        alive = [n.node_id for n in self.cluster.alive_nodes()]
        if count > len(alive):
            raise ValueError(f"cannot fail {count} of {len(alive)} nodes")
        picks = self.rng.choice(len(alive), size=count, replace=False)
        return self._fail([alive[int(i)] for i in picks])

    def _fail(self, ids: List[str]) -> List[str]:
        for node_id in ids:
            self.cluster.fail_node(node_id)
        self.failed_nodes.update(ids)
        return ids

    def fail_fraction(self, fraction: float, of_alive: bool = False) -> List[str]:
        """Fail ``fraction`` of the cluster — of its total size (Fig 14d:
        10% down), or of the currently alive population when ``of_alive``."""
        base = (
            len(self.cluster.alive_nodes()) if of_alive else len(self.cluster)
        )
        count = max(1, int(round(fraction * base)))
        return self.fail_random_nodes(count)

    # -- correlated failures ---------------------------------------------------
    def fail_rack(self, rack: int) -> List[str]:
        """Take down every live node in one rack (switch/PDU failure)."""
        return self._fail(
            [n.node_id for n in self.cluster.nodes_in_rack(rack) if n.is_alive]
        )

    def fail_random_rack(self) -> int:
        """Fail one rack chosen among racks that still have live nodes."""
        candidates = [
            rack
            for rack in self.cluster.racks()
            if any(n.is_alive for n in self.cluster.nodes_in_rack(rack))
        ]
        if not candidates:
            raise ValueError("no rack with live nodes left to fail")
        rack = candidates[int(self.rng.integers(len(candidates)))]
        self.fail_rack(rack)
        return rack

    # -- recovery --------------------------------------------------------------
    def recover_node(self, node_id: str) -> None:
        self.cluster.recover_node(node_id)
        self.failed_nodes.discard(node_id)

    def recover_all(self) -> None:
        for node_id in list(self.failed_nodes):
            self.cluster.recover_node(node_id)
        self.failed_nodes.clear()
