"""The observability handle a filesystem (or simulation) carries.

``Observability`` bundles one :class:`MetricsRegistry` and one
:class:`Tracer` behind a single object the instrumented code can hold.
The default on every DFS is :data:`NOOP_OBS` — a disabled singleton
whose ``span()`` returns a shared inert context manager — so
instrumentation costs nothing unless a caller opts in by passing a real
``Observability`` instance.

``attach_filesystem`` turns the registry into a *view* over the DFS's
:class:`~repro.cluster.metrics.IOMetrics` ledger: cluster-wide and
per-node IO counters, maintenance-class accounting and capacity are
exposed as collector-backed series that read the live counters at
collect time. Benchmarks that report through the registry therefore
cannot drift from the telemetry — both read the same cells.

When no explicit clock is given the filesystem attach installs a
:class:`CostModelClock`: modeled elapsed seconds derived from the IO
ledger and the hardware bandwidth models, monotone because the counters
only grow. Span durations then measure the modeled cost of exactly the
bytes and CPU the operation moved.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.obs.registry import COUNTER, GAUGE, MetricsRegistry
from repro.obs.tracer import NOOP_TRACER, Span, Tracer

MB = 1024 * 1024
#: the bandwidth models a :class:`CostModelClock` prices bytes at: one
#: HDD per node, one 40 GbE NIC
DISK_BYTES_PER_S = 120.0 * MB
NET_BYTES_PER_S = 4500.0 * MB

#: (attribute on NodeMetrics aggregate, exported metric name)
_CLUSTER_SERIES = (
    ("disk_bytes_read", "dfs_disk_read_bytes"),
    ("disk_bytes_written", "dfs_disk_write_bytes"),
    ("disk_bytes_deleted", "dfs_disk_deleted_bytes"),
    ("net_bytes_total", "dfs_net_bytes"),
    ("cpu_seconds_total", "dfs_cpu_seconds"),
)

_NODE_SERIES = (
    ("disk_bytes_read", "dfs_node_disk_read_bytes"),
    ("disk_bytes_written", "dfs_node_disk_write_bytes"),
    ("net_bytes_in", "dfs_node_net_in_bytes"),
    ("net_bytes_out", "dfs_node_net_out_bytes"),
)

_MAINTENANCE_SERIES = (
    ("disk_bytes", "dfs_maintenance_disk_bytes"),
    ("net_bytes", "dfs_maintenance_net_bytes"),
    ("cpu_seconds", "dfs_maintenance_cpu_seconds"),
    ("tasks_completed", "dfs_maintenance_tasks_completed"),
    ("tasks_failed", "dfs_maintenance_tasks_failed"),
    ("tasks_dead_lettered", "dfs_maintenance_tasks_dead_lettered"),
)


class CostModelClock:
    """Modeled cluster-seconds read off the IO ledger.

    Elapsed time is the serial cost of everything metered so far: disk
    bytes at disk bandwidth, network bytes at NIC bandwidth, plus CPU
    seconds. It is not wall time and not a critical-path estimate — it
    is a deterministic, strictly non-decreasing cost odometer, which is
    exactly what span durations need: the delta across an operation is
    the modeled cost of what that operation moved.
    """

    def __init__(self, metrics):
        self.metrics = metrics

    def __call__(self) -> float:
        m = self.metrics
        return (
            m.disk_bytes_total / DISK_BYTES_PER_S
            + m.net_bytes_total / NET_BYTES_PER_S
            + m.cpu_seconds_total
        )


class Observability:
    """Enabled observability: a live registry plus a recording tracer."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock, self.registry)
        self._clock_explicit = clock is not None

    # -- tracing -------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def set_clock(self, clock: Callable[[], float]) -> None:
        self.tracer.clock = clock
        self._clock_explicit = True

    # -- wiring --------------------------------------------------------------
    def attach_filesystem(self, fs) -> "Observability":
        """Expose a DFS's IOMetrics ledger through the registry."""
        if not self._clock_explicit:
            self.set_clock(CostModelClock(fs.metrics))
        self.attach_metrics(fs.metrics, capacity_fn=fs.capacity_used)
        self.attach_namenode(fs)
        return self

    def attach_namenode(self, fs) -> "Observability":
        """Metadata-plane gauges of ``fs.namenode``, read at collection
        — after a restart, the recovered one's: namespace size plus,
        when the control plane is journaled/sharded, journal depth and
        recovery counters. Per-shard series carry a ``shard`` label; the
        totals row uses ``shard="all"`` so single-node and sharded
        reports line up."""

        def collect() -> Iterable[Tuple[str, str, dict, float]]:
            stats = fs.namenode.metadata_stats()
            per_shard = stats.pop("shards", None)
            rows = [("all", stats)]
            if per_shard is not None:
                rows += [(str(i), s) for i, s in enumerate(per_shard)]
            for shard, s in rows:
                labels = {"shard": shard}
                yield "dfs_meta_files", GAUGE, labels, s["files"]
                yield "dfs_meta_chunks", GAUGE, labels, s["chunks"]
                yield "dfs_meta_transcode_inflight", GAUGE, labels, s["utm"]
                if "journal_records" in s:
                    yield "dfs_journal_records", GAUGE, labels, s["journal_records"]
                    yield "dfs_journal_bytes", GAUGE, labels, s["journal_bytes"]
                    yield (
                        "dfs_journal_snapshots", GAUGE, labels,
                        s["journal_snapshots"],
                    )
                    yield "dfs_journal_replayed", GAUGE, labels, s["replayed"]
                    for key in ("compactions", "compact_seconds",
                                "files_spliced", "files_reencoded"):
                        yield f"dfs_journal_{key}", GAUGE, labels, s[f"journal_{key}"]

        self.registry.add_collector(collect)
        return self

    def attach_metrics(self, metrics, capacity_fn=None) -> "Observability":
        """Collector-backed series over an IOMetrics ledger."""
        capacity = capacity_fn or metrics.capacity_used

        def collect() -> Iterable[Tuple[str, str, dict, float]]:
            for attr, name in _CLUSTER_SERIES:
                yield name, COUNTER, {}, getattr(metrics, attr)
            yield "dfs_capacity_bytes", GAUGE, {}, capacity()
            for node_id in sorted(metrics.nodes):
                node = metrics.nodes[node_id]
                for attr, name in _NODE_SERIES:
                    yield name, COUNTER, {"node": node_id}, getattr(node, attr)
            for klass in sorted(metrics.maintenance):
                m = metrics.maintenance[klass]
                for attr, name in _MAINTENANCE_SERIES:
                    yield name, COUNTER, {"klass": klass}, getattr(m, attr)

        self.registry.add_collector(collect)
        return self

    def attach_codec(self, stats=None) -> "Observability":
        """Expose the codec throughput ledger as registry series.

        Defaults to the process-global
        :data:`~repro.obs.codec.CODEC_STATS` that every
        encode/decode in :mod:`repro.codes` records into.
        """
        from repro.obs.codec import CODEC_STATS, codec_samples

        ledger = stats if stats is not None else CODEC_STATS
        self.registry.add_collector(lambda: codec_samples(ledger))
        return self


class NoopObservability:
    """Disabled observability: shared, inert, allocation-free."""

    enabled = False
    registry = None
    tracer = NOOP_TRACER

    def span(self, name: str, **attrs):
        return NOOP_TRACER.span(name)

    def attach_filesystem(self, fs) -> "NoopObservability":
        return self

    def attach_metrics(self, metrics, capacity_fn=None) -> "NoopObservability":
        return self

    def attach_namenode(self, fs) -> "NoopObservability":
        return self

    def attach_codec(self, stats=None) -> "NoopObservability":
        return self


NOOP_OBS = NoopObservability()
