"""Network partitions: a reachability mask over the cluster.

A partition splits the endpoint set (datanodes plus the distinguished
``namenode`` and ``client`` control endpoints) into groups; two
endpoints communicate only when they share a group. A cluster owns one
mask (``Cluster.partition``); the DFS consults it only through its
``node_reachable`` / ``chunk_readable`` pair, so every path honours it:

* heartbeat collection — a datanode cut off from the namenode misses
  beats and is (correctly) declared dead even though its process lives;
* the client read paths — chunks on unreachable nodes are treated as
  unavailable and served from replicas or degraded decodes;
* repair, transcode and seal transfers — none sources bytes across the
  cut, and repair priority counts only reachable redundancy.

Healing restores full reachability; convergence after heal is verified
by the scenario suite against the journal replay digest (the live
namenode state must equal a from-scratch journal replay).

Endpoints default to group 0, so an inactive mask (no ``split`` call, or
after :meth:`heal`) means everyone reaches everyone at zero cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

#: distinguished control-plane endpoints the mask understands
NAMENODE = "namenode"
CLIENT = "client"


class NetworkPartition:
    """A symmetric, transitive reachability mask (group membership)."""

    def __init__(self):
        self._group: Dict[str, int] = {}
        self.active = False
        #: how many times the mask was split (scenario bookkeeping)
        self.splits = 0

    def split(self, *groups: Sequence[str]) -> None:
        """Partition the network into the given groups.

        Every endpoint named in ``groups[i]`` lands in group ``i + 1``;
        endpoints not named stay in group 0 (the majority side, which by
        convention keeps the namenode and client unless they are
        explicitly listed in a minority group).
        """
        mapping: Dict[str, int] = {}
        for index, members in enumerate(groups, start=1):
            for endpoint in members:
                if endpoint in mapping:
                    raise ValueError(f"{endpoint} listed in two groups")
                mapping[endpoint] = index
        self._group = mapping
        self.active = bool(mapping)
        if self.active:
            self.splits += 1

    def isolate(self, endpoints: Iterable[str]) -> None:
        """Convenience: cut the listed endpoints off from everyone else."""
        self.split(list(endpoints))

    def heal(self) -> None:
        """Restore full reachability."""
        self._group = {}
        self.active = False

    def group_of(self, endpoint: str) -> int:
        return self._group.get(endpoint, 0)

    def reachable(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` can exchange messages."""
        if not self.active or a == b:
            return True
        return self._group.get(a, 0) == self._group.get(b, 0)

    def __repr__(self) -> str:
        if not self.active:
            return "<NetworkPartition healed>"
        groups: Dict[int, List[str]] = {}
        for endpoint, g in self._group.items():
            groups.setdefault(g, []).append(endpoint)
        parts = " | ".join(
            ",".join(sorted(members)) for _, members in sorted(groups.items())
        )
        return f"<NetworkPartition rest | {parts}>"
