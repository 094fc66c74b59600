"""The ``python -m repro report`` cluster health summary.

Drives a small MorphFS cluster through a failure burst with
observability enabled — hybrid ingest, reads, a native transcode, two
node failures with degraded reads, scheduler-driven repairs, a corrupted
chunk swept up by a scrub — then renders what the registry and tracer
saw: per-operation latency percentiles, a per-node IO hot-spot table and
the maintenance-class breakdown.

``--selftest`` runs the same scenario and checks the invariants CI cares
about: the exporters round-trip, every instrumented operation produced
latency samples, and the capacity ledger agrees with the datanode disks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.core import Observability
from repro.obs.exporters import round_trip_ok, to_json, to_prometheus
from repro.obs.tracer import OP_LATENCY_METRIC

KB = 1024

#: operations the failure-burst scenario is expected to exercise
EXPECTED_OPS = (
    "ingest",
    "read",
    "degraded_read",
    "repair",
    "transcode",
    "scrub",
)


def run_failure_burst_demo(
    seed: int = 0,
    n_files: int = 6,
    file_kb: int = 96,
    chunk_kb: int = 4,
    n_failures: int = 2,
):
    """A deterministic failure-burst run on an instrumented MorphFS.

    The control plane is a sharded, journaled namenode so the report
    shows the metadata plane the paper's cluster would run with.
    """
    from repro.core.schemes import CodeKind, ECScheme, HybridScheme
    from repro.dfs import MorphFS, ShardedNamenode
    from repro.dfs.integrity import corrupt_chunk
    from repro.sched.tasks import ScrubTask, StripeRepairTask

    cc69 = ECScheme(CodeKind.CC, 6, 9)
    cc1215 = ECScheme(CodeKind.CC, 12, 15)
    obs = Observability()
    # Snapshot the process-global codec ledger so the report reflects
    # only this scenario's encode/decode work.
    from repro.obs.codec import CODEC_STATS

    CODEC_STATS.reset()
    obs.attach_codec()
    fs = MorphFS(
        chunk_size=chunk_kb * KB, future_widths=[6, 12], seed=seed, obs=obs,
        namenode=ShardedNamenode.journaled(n_shards=4, compact_every=256),
    )
    rng = np.random.default_rng(seed)

    # Phase 1 — ingest + foreground reads.
    datasets: Dict[str, np.ndarray] = {}
    for i in range(n_files):
        name = f"f{i:02d}"
        data = rng.integers(0, 256, file_kb * KB, dtype=np.uint8)
        fs.write_file(name, data, HybridScheme(1, cc69))
        datasets[name] = data
    for name in datasets:
        fs.read_file(name, 0, 16 * KB)

    # Phase 2 — one file ages through its lifetime (native transcode).
    fs.transcode("f00", cc69)
    fs.transcode("f00", cc1215)

    # Phase 3 — the failure burst: kill nodes, take the degraded reads.
    chunk_homes = {
        c.node_id
        for meta in fs.namenode.files.values()
        for c in meta.all_chunks()
    }
    victims = sorted(chunk_homes)[:n_failures]
    for victim in victims:
        fs.cluster.fail_node(victim)
    for name in datasets:
        fs.read_file(name, 0, 16 * KB)

    # Phase 4 — repairs drain through the maintenance scheduler.
    from repro.dfs.recovery import RecoveryManager

    recovery = RecoveryManager(fs)
    for meta, _home, chunks in recovery.damaged_groups(recovery.lost_chunks()):
        fs.scheduler.submit(StripeRepairTask(meta, chunks))
    fs.scheduler.run_until_drained()

    # Phase 5 — silent corruption caught by the scrub sweep.
    meta = fs.namenode.lookup("f01")
    corrupt_chunk(fs, meta.stripes[0].data[0])
    fs.scheduler.submit(ScrubTask())
    fs.scheduler.run_until_drained()

    # Everything must still read back intact.
    for name, data in datasets.items():
        assert np.array_equal(fs.read_file(name), data), f"{name} corrupted"
    return fs


# -- rendering ---------------------------------------------------------------

def _fmt_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  " + "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)),
        "  " + "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  " + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return lines


def _op_latency_rows(registry) -> List[List[str]]:
    rows = []
    for labels, hist in registry.histogram_series(OP_LATENCY_METRIC):
        op = dict(labels).get("op", "?")
        if not hist.count:
            continue
        rows.append(
            [
                op,
                str(hist.count),
                f"{hist.percentile(50) * 1e3:.2f}",
                f"{hist.percentile(95) * 1e3:.2f}",
                f"{hist.percentile(99) * 1e3:.2f}",
                f"{hist.max * 1e3:.2f}",
            ]
        )
    rows.sort(key=lambda r: r[0])
    return rows


def _node_rows(registry, top: int = 10) -> List[List[str]]:
    per_node: Dict[str, Dict[str, float]] = {}
    for sample in registry.collect():
        if not sample.name.startswith("dfs_node_") or sample.value is None:
            continue
        node = dict(sample.labels).get("node", "?")
        per_node.setdefault(node, {})[sample.name] = sample.value
    ranked: List[Tuple[float, str, Dict[str, float]]] = []
    for node, series in per_node.items():
        total = sum(series.values())
        ranked.append((total, node, series))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    rows = []
    for total, node, series in ranked[:top]:
        rows.append(
            [
                node,
                f"{series.get('dfs_node_disk_read_bytes', 0.0) / KB:.0f}",
                f"{series.get('dfs_node_disk_write_bytes', 0.0) / KB:.0f}",
                f"{series.get('dfs_node_net_in_bytes', 0.0) / KB:.0f}",
                f"{series.get('dfs_node_net_out_bytes', 0.0) / KB:.0f}",
                f"{total / KB:.0f}",
            ]
        )
    return rows


def _maintenance_rows(registry) -> List[List[str]]:
    per_class: Dict[str, Dict[str, float]] = {}
    for sample in registry.collect():
        if not sample.name.startswith("dfs_maintenance_") or sample.value is None:
            continue
        klass = dict(sample.labels).get("klass", "?")
        per_class.setdefault(klass, {})[sample.name] = sample.value
    rows = []
    for klass in sorted(per_class):
        s = per_class[klass]
        rows.append(
            [
                klass,
                f"{s.get('dfs_maintenance_tasks_completed', 0.0):.0f}",
                f"{s.get('dfs_maintenance_tasks_failed', 0.0):.0f}",
                f"{s.get('dfs_maintenance_tasks_dead_lettered', 0.0):.0f}",
                f"{s.get('dfs_maintenance_disk_bytes', 0.0) / KB:.0f}",
                f"{s.get('dfs_maintenance_net_bytes', 0.0) / KB:.0f}",
            ]
        )
    return rows


def _codec_rows(registry) -> List[List[str]]:
    per_op: Dict[str, Dict[str, float]] = {}
    for sample in registry.collect():
        if not sample.name.startswith("codec_") or sample.value is None:
            continue
        op = dict(sample.labels).get("op", "?")
        per_op.setdefault(op, {})[sample.name] = sample.value
    rows = []
    for op in sorted(per_op):
        s = per_op[op]
        secs = s.get("codec_seconds", 0.0)
        mb = s.get("codec_bytes", 0.0) / 1e6
        rows.append(
            [
                op,
                f"{s.get('codec_ops', 0.0):.0f}",
                f"{mb:.1f}",
                f"{mb / secs:.0f}" if secs > 0 else "-",
            ]
        )
    return rows


def _metadata_rows(fs) -> List[List[str]]:
    stats_fn = getattr(fs.namenode, "metadata_stats", None)
    if stats_fn is None:
        return []
    stats = stats_fn()
    per_shard = stats.pop("shards", None)

    def row(label: str, s: dict) -> List[str]:
        cells = [label, f"{s['files']}", f"{s['chunks']}",
                 f"{s['utm']}"]
        if "journal_records" in s:
            # Splice ratio: of the file documents compaction wrote, the
            # share it took from the log instead of encoding again
            # (useful / attempted; "-" until a compaction has run).
            spliced = s["journal_files_spliced"]
            written = spliced + s["journal_files_reencoded"]
            cells += [
                f"{s['journal_records']}",
                f"{s['journal_bytes'] / KB:.1f}",
                f"{s.get('journal_since_snapshot', s['journal_records'])}",
                f"{s['replayed']}",
                f"{s['journal_compactions']}",
                f"{spliced / written * 100:.0f}%" if written else "-",
            ]
        else:
            cells += ["-"] * 6
        return cells

    rows = [row(f"shard{i}", s) for i, s in enumerate(per_shard or [])]
    rows.append(row("total", stats))
    return rows


def _kernel_cache_rows(stats: Dict[str, int]) -> List[List[str]]:
    entries = {
        "plan": stats.get("plans", 0),
        "table": stats.get("coeff_tables", 0),
        "pattern": stats.get("pattern_entries", 0),
    }
    resident = {
        "plan": stats.get("plan_bytes", 0),
        "table": stats.get("coeff_table_bytes", 0),
        "pattern": stats.get("pattern_bytes", 0),
    }
    rows = []
    for kind in ("plan", "table", "pattern"):
        hits = stats.get(f"{kind}_hits", 0)
        misses = stats.get(f"{kind}_misses", 0)
        total = hits + misses
        rows.append(
            [
                kind,
                f"{entries[kind]}",
                f"{hits}",
                f"{misses}",
                f"{stats.get(f'{kind}_evictions', 0)}",
                f"{hits / total * 100:.0f}%" if total else "-",
                f"{resident[kind] / 1e6:.1f}",
            ]
        )
    return rows


def render_report(fs) -> str:
    """Cluster health summary from a filesystem's live registry."""
    registry = fs.obs.registry
    lines = ["Cluster health report", "=" * 21, ""]

    lines.append("Operation latency (modeled ms)")
    op_rows = _op_latency_rows(registry)
    lines += _fmt_table(
        ["op", "count", "p50", "p95", "p99", "max"],
        op_rows or [["(none)", "0", "-", "-", "-", "-"]],
    )
    lines.append("")

    lines.append("Per-node IO hot spots (KB, busiest first)")
    lines += _fmt_table(
        ["node", "disk rd", "disk wr", "net in", "net out", "total"],
        _node_rows(registry) or [["(none)"] + ["-"] * 5],
    )
    lines.append("")

    maint_rows = _maintenance_rows(registry)
    if maint_rows:
        lines.append("Maintenance by task class")
        lines += _fmt_table(
            ["class", "done", "failed", "dead", "disk KB", "net KB"], maint_rows
        )
        lines.append("")

    meta_rows = _metadata_rows(fs)
    if meta_rows:
        lines.append("Metadata plane (namenode)")
        lines += _fmt_table(
            ["shard", "files", "chunks", "transcoding",
             "jrnl recs", "jrnl KB", "since snap", "replayed",
             "compactions", "spliced"],
            meta_rows,
        )
        lines.append("")

    codec_rows = _codec_rows(registry)
    if codec_rows:
        lines.append("Codec throughput (wall clock, process-wide)")
        lines += _fmt_table(
            ["op", "ops", "MB", "MB/s"], codec_rows
        )
        lines.append("")

    from repro.gf.kernels import cache_stats

    kernel_stats = cache_stats()
    lines.append("GF kernel caches (process-wide)")
    lines += _fmt_table(
        ["cache", "entries", "hits", "misses", "evict", "hit%", "MB"],
        _kernel_cache_rows(kernel_stats),
    )
    lines.append(
        f"Kernel tables resident: {kernel_stats['resident_bytes'] / 1e6:.1f} MB "
        f"across {kernel_stats['pattern_caches']} pattern caches"
    )
    lines.append("")

    cap = registry.value("dfs_capacity_bytes")
    lines.append(
        "Cluster totals: "
        f"disk read {registry.value('dfs_disk_read_bytes') / KB:.0f} KB, "
        f"disk write {registry.value('dfs_disk_write_bytes') / KB:.0f} KB, "
        f"net {registry.value('dfs_net_bytes') / KB:.0f} KB, "
        f"cpu {registry.value('dfs_cpu_seconds'):.3f} s, "
        f"capacity {cap / KB:.0f} KB"
    )
    try:
        hedged = registry.value("dfs_hedged_reads_total")
    except KeyError:
        hedged = 0.0
    if hedged:
        lines.append(
            f"Hedged reads: {hedged:.0f} served from an alternative source "
            "(slow-disk avoidance)"
        )
    spans = fs.obs.tracer.finished
    lines.append(f"Spans recorded: {len(spans)} (dropped {fs.obs.tracer.dropped})")
    return "\n".join(lines)


# -- entry points -------------------------------------------------------------

def report_command(
    seed: int = 0, fmt: str = "table", selftest: bool = False
) -> int:
    """Implements ``python -m repro report [--selftest] [--format ...]``."""
    if selftest:
        return run_selftest(seed=seed)
    fs = run_failure_burst_demo(seed=seed)
    if fmt == "prometheus":
        print(to_prometheus(fs.obs.registry))
    elif fmt == "json":
        print(to_json(fs.obs.registry))
    else:
        print(render_report(fs))
    return 0


def run_selftest(seed: int = 0) -> int:
    """Run the demo scenario and verify the observability invariants."""
    failures: List[str] = []
    fs = run_failure_burst_demo(seed=seed)
    registry = fs.obs.registry

    ops_seen = {
        dict(labels).get("op")
        for labels, hist in registry.histogram_series(OP_LATENCY_METRIC)
        if hist.count
    }
    missing = [op for op in EXPECTED_OPS if op not in ops_seen]
    if missing:
        failures.append(f"operations without latency samples: {missing}")

    if not round_trip_ok(registry):
        failures.append("Prometheus/JSON exporters do not round-trip")

    for name in ("dfs_disk_read_bytes", "dfs_capacity_bytes", "dfs_net_bytes"):
        try:
            registry.value(name)
        except KeyError:
            failures.append(f"missing registry series {name}")

    codec_ops = {
        dict(sample.labels).get("op")
        for sample in registry.collect()
        if sample.name == "codec_bytes"
    }
    if "encode" not in codec_ops:
        failures.append("codec ledger recorded no encode samples")

    report = render_report(fs)
    if "Operation latency" not in report or "hot spots" not in report:
        failures.append("report rendering incomplete")
    if "Metadata plane" not in report:
        failures.append("report lacks the metadata-plane table")

    # Metadata plane: the default control plane is sharded + journaled;
    # its counters must be in the registry.
    stats = fs.namenode.metadata_stats()
    shards = stats.get("shards")
    if shards is None:
        failures.append("demo namenode is not sharded")
    else:
        if sum(s["files"] for s in shards) != stats["files"]:
            failures.append("per-shard file counts do not sum to the total")
        if stats.get("journal_records", 0) <= 0:
            failures.append("namenode journals recorded nothing")
        try:
            if registry.value("dfs_meta_files", shard="all") != stats["files"]:
                failures.append("dfs_meta_files gauge disagrees with stats")
        except KeyError:
            failures.append("missing registry series dfs_meta_files")

    if not fs.obs.tracer.finished:
        failures.append("tracer recorded no spans")

    # The demo ends on the audit (its ``journal`` kind replays every shard).
    from repro.dfs.audit import audit

    failures.extend(f"audit: {v.kind} {v.subject}: {v.detail}" for v in audit(fs))

    if failures:
        print("report selftest FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"report selftest OK: {len(fs.obs.tracer.finished)} spans, "
        f"{len(ops_seen)} instrumented operations, exporters round-trip"
    )
    return 0


def parse_args(argv: Optional[List[str]] = None) -> Tuple[int, str, bool]:
    """Tiny arg parser for the report subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Cluster health report from a simulated failure burst.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("table", "prometheus", "json"),
        default="table",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the scenario and verify observability invariants",
    )
    args = parser.parse_args(argv)
    return args.seed, args.fmt, args.selftest


def main(argv: Optional[List[str]] = None) -> int:
    seed, fmt, selftest = parse_args(argv)
    try:
        return report_command(seed=seed, fmt=fmt, selftest=selftest)
    except BrokenPipeError:
        # Output piped into head/grep that exited early — not an error.
        return 0
