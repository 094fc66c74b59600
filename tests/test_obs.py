"""Observability layer: histograms, registry, tracer, exporters, wiring."""

import numpy as np
import pytest

from repro.obs import (
    NOOP_OBS,
    NOOP_TRACER,
    LogLinearHistogram,
    MetricsRegistry,
    Observability,
    Tracer,
    exact_percentile,
    from_json,
    parse_prometheus,
    round_trip_ok,
    to_json,
    to_prometheus,
)
from repro.obs.tracer import OP_LATENCY_METRIC

KB = 1024


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

class TestExactPercentile:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(0.0, 1.5, 500).tolist()
        for p in (0, 25, 50, 90, 95, 99, 100):
            assert exact_percentile(values, p) == pytest.approx(
                float(np.percentile(values, p))
            )

    def test_empty(self):
        assert exact_percentile([], 99) == 0.0


class TestLogLinearHistogram:
    def test_percentiles_within_relative_error(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(-3.0, 1.0, 10_000)
        hist = LogLinearHistogram()
        for v in values:
            hist.record(v)
        for p in (50, 90, 95, 99, 99.9):
            exact = float(np.percentile(values, p))
            assert hist.percentile(p) == pytest.approx(exact, rel=0.01)

    def test_min_max_exact(self):
        hist = LogLinearHistogram()
        for v in (0.5, 3.0, 42.0):
            hist.record(v)
        assert hist.min == 0.5
        assert hist.max == 42.0
        assert hist.percentile(0) == 0.5
        assert hist.percentile(100) == 42.0

    def test_zero_and_negative_go_to_zero_bucket(self):
        hist = LogLinearHistogram()
        hist.record(0.0)
        hist.record(-1.0)
        hist.record(10.0)
        assert hist.zero_count == 2
        assert hist.count == 3
        assert hist.percentile(50) == 0.0

    def test_merge(self):
        a, b = LogLinearHistogram(), LogLinearHistogram()
        for v in (1.0, 2.0):
            a.record(v)
        for v in (3.0, 4.0):
            b.record(v)
        a.merge(b)
        assert a.count == 4
        assert a.max == 4.0
        assert a.sum == pytest.approx(10.0)

    def test_dict_round_trip_preserves_percentiles(self):
        hist = LogLinearHistogram()
        rng = np.random.default_rng(2)
        for v in rng.lognormal(0.0, 1.0, 1000):
            hist.record(v)
        clone = LogLinearHistogram.from_dict(hist.to_dict())
        for p in (50, 95, 99):
            assert clone.percentile(p) == hist.percentile(p)
        assert clone.count == hist.count
        assert clone.min == hist.min


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc()
        reg.counter("ops").inc(4)
        reg.gauge("depth").set(7)
        assert reg.value("ops") == 5
        assert reg.value("depth") == 7

    def test_counters_reject_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("ops").inc(-1)

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node="a").inc(10)
        reg.counter("bytes", node="b").inc(20)
        assert reg.value("bytes", node="a") == 10
        assert reg.value("bytes", node="b") == 20

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_collector_is_live_view(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.add_collector(lambda: [("live", "gauge", {}, state["v"])])
        assert reg.value("live") == 1.0
        state["v"] = 2.0
        assert reg.value("live") == 2.0

    def test_histogram_series_sorted(self):
        reg = MetricsRegistry()
        reg.histogram("lat", op="b").record(1.0)
        reg.histogram("lat", op="a").record(2.0)
        series = reg.histogram_series("lat")
        assert [dict(labels)["op"] for labels, _h in series] == ["a", "b"]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("dfs_disk_read_bytes").inc(12345.5)
    reg.gauge("queue_depth", node="dn000").set(3)
    hist = reg.histogram(OP_LATENCY_METRIC, op="read")
    for v in (0.001, 0.002, 0.004, 0.1):
        hist.record(v)
    return reg


class TestExporters:
    def test_prometheus_scalars(self):
        text = to_prometheus(_populated_registry())
        parsed = parse_prometheus(text)
        assert parsed["dfs_disk_read_bytes"] == 12345.5
        assert parsed['queue_depth{node="dn000"}'] == 3
        assert parsed['op_latency_seconds_count{op="read"}'] == 4
        assert "# TYPE op_latency_seconds histogram" in text

    def test_prometheus_buckets_cumulative(self):
        text = to_prometheus(_populated_registry())
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("op_latency_seconds_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 4  # the +Inf bucket carries the total

    def test_json_round_trip(self):
        reg = _populated_registry()
        reloaded = from_json(to_json(reg))
        assert reloaded.value("dfs_disk_read_bytes") == 12345.5
        assert reloaded.value("queue_depth", node="dn000") == 3
        (labels, hist), = reloaded.histogram_series(OP_LATENCY_METRIC)
        assert hist.count == 4
        # Same interpolation as exact_percentile([.001,.002,.004,.1], 50).
        assert hist.percentile(50) == pytest.approx(0.003, rel=0.01)

    def test_round_trip_ok(self):
        assert round_trip_ok(_populated_registry())


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_duration(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry()
        tracer = Tracer(clock=lambda: clock["t"], registry=reg)
        with tracer.span("outer") as outer:
            clock["t"] = 1.0
            with tracer.span("inner"):
                clock["t"] = 3.0
        inner, _outer = tracer.finished
        assert inner.parent_id == outer.span_id
        assert inner.duration == pytest.approx(2.0)
        assert outer.duration == pytest.approx(3.0)

    def test_durations_feed_op_histogram(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry()
        tracer = Tracer(clock=lambda: clock["t"], registry=reg)
        with tracer.span("repair"):
            clock["t"] = 0.5
        (labels, hist), = reg.histogram_series(OP_LATENCY_METRIC)
        assert dict(labels) == {"op": "repair"}
        assert hist.count == 1
        assert hist.max == pytest.approx(0.5)

    def test_error_spans_marked(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        span, = tracer.finished
        assert span.error

    def test_disabled_tracer_records_nothing(self):
        # The satellite invariant: a disabled tracer adds no samples and
        # allocates no spans — every call returns one shared inert object.
        with NOOP_TRACER.span("ingest", file="f") as a:
            with NOOP_TRACER.span("read") as b:
                pass
        assert a is b
        assert NOOP_TRACER.finished == []
        assert not NOOP_TRACER.enabled


# ---------------------------------------------------------------------------
# DFS wiring
# ---------------------------------------------------------------------------

def _write_and_read(fs):
    from repro.core.schemes import CodeKind, ECScheme, HybridScheme

    data = np.random.default_rng(3).integers(0, 256, 96 * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
    fs.read_file("f", 0, 8 * KB)
    return data


class TestDfsIntegration:
    def test_default_is_noop(self):
        from repro.dfs import MorphFS

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        assert fs.obs is NOOP_OBS
        _write_and_read(fs)
        assert fs.obs.tracer.finished == []

    def test_enabled_obs_records_spans_and_metrics(self):
        from repro.dfs import MorphFS

        obs = Observability()
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs)
        _write_and_read(fs)
        names = {s.name for s in obs.tracer.finished}
        assert {"ingest", "read"} <= names
        ingest, = [s for s in obs.tracer.finished if s.name == "ingest"]
        assert ingest.duration > 0  # the cost-model clock advanced
        assert obs.registry.value("dfs_disk_write_bytes") > 0
        assert obs.registry.value("dfs_capacity_bytes") == fs.capacity_used()

    def test_attached_clock_prices_the_ledger_at_the_model_bandwidths(self):
        from repro.dfs import MorphFS
        from repro.obs.core import DISK_BYTES_PER_S, NET_BYTES_PER_S

        obs = Observability()
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs)
        _write_and_read(fs)
        m = fs.metrics
        assert m.disk_bytes_total > 0 and m.net_bytes_total > 0
        assert obs.tracer.clock() == pytest.approx(
            m.disk_bytes_total / (120 * 1024 * 1024)
            + m.net_bytes_total / (4500 * 1024 * 1024)
            + m.cpu_seconds_total
        )
        assert (DISK_BYTES_PER_S, NET_BYTES_PER_S) == (120 * 1024 * 1024, 4500 * 1024 * 1024)

    def test_an_explicit_clock_survives_attach(self):
        from repro.dfs import MorphFS

        obs = Observability(clock=lambda: 42.0)
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs)
        _write_and_read(fs)
        assert obs.tracer.clock() == 42.0

    def test_ledger_and_exporters_agree_end_to_end(self):
        from repro.dfs import MorphFS

        obs = Observability()
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs)
        _write_and_read(fs)
        parsed = parse_prometheus(to_prometheus(obs.registry))
        assert parsed["dfs_disk_write_bytes"] == fs.metrics.disk_bytes_written
        assert parsed["dfs_capacity_bytes"] == fs.capacity_used()
        assert round_trip_ok(obs.registry)


    def test_journal_compaction_gauges_and_splice_ratio_column(self):
        from repro.core.schemes import CodeKind, ECScheme
        from repro.dfs import MorphFS, ShardedNamenode
        from repro.obs.report import render_report

        obs = Observability()
        namenode = ShardedNamenode.journaled(n_shards=2, compact_every=4)
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs,
                     namenode=namenode)
        _write_and_read(fs)
        for name in ("g", "h", "i"):
            fs.write_file(name, np.arange(24 * KB, dtype=np.uint8),
                          ECScheme(CodeKind.CC, 6, 9))
        stats = namenode.metadata_stats()
        assert stats["journal_compactions"] >= 1
        assert stats["journal_files_spliced"] >= 1
        for gauge, key in (
            ("dfs_journal_compactions", "journal_compactions"),
            ("dfs_journal_compact_seconds", "journal_compact_seconds"),
            ("dfs_journal_files_spliced", "journal_files_spliced"),
            ("dfs_journal_files_reencoded", "journal_files_reencoded"),
        ):
            assert obs.registry.value(gauge, shard="all") == stats[key]
            assert obs.registry.value(gauge, shard="0") == stats["shards"][0][key]
        written = stats["journal_files_spliced"] + stats["journal_files_reencoded"]
        want = f"{stats['journal_files_spliced'] / written * 100:.0f}%"
        table = render_report(fs).split("Metadata plane (namenode)")[1]
        header, _rule, *rows = table.strip().splitlines()[:5]
        assert header.split()[-2:] == ["compactions", "spliced"]
        total = next(r for r in rows if r.split()[0] == "total")
        assert total.split()[-2:] == [str(stats["journal_compactions"]), want]

    def test_metadata_gauges_read_the_namenode_a_restart_brings_up(self):
        from repro.dfs import MorphFS, ShardedNamenode

        obs = Observability()
        namenode = ShardedNamenode.journaled(n_shards=2)
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs,
                     namenode=namenode)
        _write_and_read(fs)
        files = obs.registry.value("dfs_meta_files", shard="all")
        assert obs.registry.value("dfs_journal_replayed", shard="all") == 0
        recovered = ShardedNamenode.recover([s.journal for s in namenode.shards])
        fs.restart(recovered)
        replayed = sum(shard.replayed for shard in recovered.shards)
        assert replayed > 0
        assert obs.registry.value("dfs_journal_replayed", shard="all") == replayed
        assert obs.registry.value("dfs_meta_files", shard="all") == files


# ---------------------------------------------------------------------------
# Simulation percentiles and the report CLI
# ---------------------------------------------------------------------------

class TestSimulationPercentiles:
    def test_histogram_p99_matches_exact_within_1pct(self):
        # Acceptance bar: the shared histogram and the old sorted-list
        # math agree on the default 96-repair failure-burst scenario.
        from repro.sched.simulate import SimConfig, run_failure_burst

        result = run_failure_burst(None, SimConfig())
        assert result.latency_hist is not None
        assert result.latency_hist.count == len(result.foreground_latencies)
        for p in (50, 95, 99):
            exact = exact_percentile(result.foreground_latencies, p)
            assert result.latency_percentile(p) == pytest.approx(exact, rel=0.01)

    def test_disk_wait_histograms_recorded(self):
        from repro.sched.simulate import SimConfig, run_failure_burst

        result = run_failure_burst(None, SimConfig(duration_s=5.0))
        series = result.registry.histogram_series("resource_wait_seconds")
        assert len(series) == SimConfig().n_nodes
        assert sum(h.count for _l, h in series) > 0


class TestReportCli:
    def test_selftest_passes(self):
        from repro.obs.report import run_selftest

        assert run_selftest(seed=0) == 0

    def test_report_renders_tables(self):
        from repro.obs.report import render_report, run_failure_burst_demo

        fs = run_failure_burst_demo(seed=0)
        text = render_report(fs)
        assert "Operation latency" in text
        assert "hot spots" in text
        assert "Maintenance by task class" in text
        for op in ("ingest", "read", "repair", "scrub", "transcode"):
            assert op in text
