"""Cluster substrate: event engine, the cluster model, placement.

* :mod:`repro.cluster.engine` — minimal discrete-event simulation kernel
  (generator-based processes, resources, timeouts, any-of/all-of joins).
* :mod:`repro.cluster.topology` — the one model of a server: racks,
  nodes, their up/down flag and disk slowdown (calibrated service times
  live in :mod:`repro.sim.calibration`).
* :mod:`repro.cluster.metrics` — disk/network/CPU/memory accounting.
* :mod:`repro.cluster.placement` — block placement policies, including
  Morph's k*-separation and parity co-location (§5.3).
* :mod:`repro.cluster.failure` — the failure injector (independent and
  correlated rack/switch bursts).
* :mod:`repro.cluster.partition` — the cluster's reachability mask.
* :mod:`repro.cluster.scenarios` — the adversarial scenario suite
  (`python -m repro scenarios`).
"""

from repro.cluster.engine import AllOf, AnyOf, Environment, Resource, Timeout
from repro.cluster.partition import NetworkPartition
from repro.cluster.topology import Cluster, ClusterSpec, Node, NodeClass
from repro.cluster.metrics import IOMetrics, NodeMetrics
from repro.cluster.placement import (
    PlacementError,
    PlacementPolicy,
    DefaultPlacement,
    TranscodeAwarePlacement,
)

__all__ = [
    "Environment",
    "Resource",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Cluster",
    "ClusterSpec",
    "NetworkPartition",
    "Node",
    "NodeClass",
    "IOMetrics",
    "NodeMetrics",
    "PlacementError",
    "PlacementPolicy",
    "DefaultPlacement",
    "TranscodeAwarePlacement",
]
