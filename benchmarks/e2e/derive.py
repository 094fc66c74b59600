"""Metric definitions: from a round's raw walls and counts to the named
end-to-end and per-layer metrics, and from rounds to a run's summary.

A rate is computed per round and a run reports the **median over
rounds** (with quartiles and the sample count); counts are per round
and identical in every round of a run, so their median is exact.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional

from reference import NOMINAL_S
from trace import LAYERS

MiB = 1024 * 1024
LIFETIME_PHASES = ("ingest", "read_hot", "free", "merge", "read_cold", "delete")
#: timed phases of the measured workload (comparator replays excluded)
TIMED_PHASES = LIFETIME_PHASES + (
    "lost_enum", "degraded_read", "repair", "scrub", "read_healed", "meta", "recover",
)

#: reference samples (harness.run_round) that bracket each part, and the
#: part each phase belongs to
PART_REFS = {"A": (0, 1), "B": (2, 3), "M": (3, 4)}
PART_OF = {
    **dict.fromkeys(LIFETIME_PHASES, "A"),
    **dict.fromkeys(("lost_enum", "degraded_read", "repair", "scrub", "read_healed"), "B"),
    **dict.fromkeys(("meta", "meta_unjournaled", "meta_single", "recover"), "M"),
}

#: name -> (unit, better, regression bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "lifetime_mb_s": ("MiB/s", "higher", 0.15),
    "ingest_mb_s": ("MiB/s", "higher", 0.15),
    "transcode_mb_s": ("MiB/s", "higher", 0.25),
    "read_mb_s": ("MiB/s", "higher", 0.15),
    "degraded_read_mb_s": ("MiB/s", "higher", 0.20),
    "repair_mb_s": ("MiB/s", "higher", 0.25),
    "scrub_mb_s": ("MiB/s", "higher", 0.25),
    "meta_ops_per_s": ("1/s", "higher", 0.15),
    "recover_s": ("s", "lower", 0.15),
    "write_p99_ms": ("ms", "lower", 0.25),
    "io_amplification": ("ratio", "lower", 0.001),
    "capacity_final_ratio": ("ratio", "lower", 0.001),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: metrics that must be bit-equal between same-seed runs
EXACT = (
    "io_amplification", "capacity_final_ratio", "dfs.journal.records",
    "dfs.journal.bytes", "codes.encode_bytes", "codes.decode_bytes",
    "codes.merge_bytes", "dfs.recovery.chunks_lost", "dfs.recovery.chunks_rebuilt",
    "cluster.placement.colocated_stripes",
)

NAMENODE_MUTATORS = tuple(
    f"Namenode.{method}" for method in (
        "register_file", "register_files", "unregister_file", "rename", "note_chunk",
        "note_file", "next_chunk_id", "next_chunk_ids", "enqueue_transcode",
        "poll_work", "poll_work_for", "complete_parity", "record_new_stripe",
        "try_finalize", "abort_transcode",
    )
)


def _per_layer_table() -> Dict[str, tuple]:
    """name -> (unit, better). Per-layer metrics carry no bound."""
    table: Dict[str, tuple] = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", "lower")
        table[f"{layer}.self_share"] = ("ratio", "lower")
        table[f"{layer}.calls"] = ("count", "lower")
    table.update({
        "machine.reference_ratio": ("ratio", "lower"),
        "other.self_s": ("s", "lower"),
        "other.self_share": ("ratio", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
        "obs.enabled_overhead_ratio": ("ratio", "lower"),
        "codes.encode_bytes": ("bytes", "lower"),
        "codes.encode_mb_s": ("MiB/s", "higher"),
        "codes.decode_bytes": ("bytes", "lower"),
        "codes.decode_mb_s": ("MiB/s", "higher"),
        "codes.merge_bytes": ("bytes", "lower"),
        "codes.merge_mb_s": ("MiB/s", "higher"),
        "gf.pattern_hit_ratio": ("ratio", "higher"),
        "gf.pattern_evictions": ("count", "lower"),
        "gf.plan_hit_ratio": ("ratio", "higher"),
        "gf.resident_bytes": ("bytes", "lower"),
        "dfs.integrity.checksum_bytes": ("bytes", "lower"),
        "dfs.integrity.checksum_mb_s": ("MiB/s", "higher"),
        "dfs.integrity.corrupt_found": ("count", "higher"),
        "dfs.integrity.corrupt_repaired": ("count", "higher"),
        "dfs.journal.records": ("count", "lower"),
        "dfs.journal.bytes": ("bytes", "lower"),
        "dfs.journal.bytes_per_record": ("bytes", "lower"),
        "dfs.journal.bytes_per_user_byte": ("ratio", "lower"),
        "dfs.journal.append_us": ("us", "lower"),
        "dfs.journal.compactions": ("count", "lower"),
        "dfs.journal.compact_s": ("s", "lower"),
        "dfs.journal.replay_records_per_s": ("1/s", "higher"),
        "dfs.journal.overhead_ratio": ("ratio", "higher"),
        "dfs.namenode.mutations": ("count", "lower"),
        "dfs.namenode.lookups": ("count", "lower"),
        "dfs.namenode.chunks_on_node_s": ("s", "lower"),
        "dfs.shards.overhead_ratio": ("ratio", "higher"),
        "cluster.placement.colocated_stripes": ("count", "lower"),
        "cluster.metrics.ingest_io_ratio": ("ratio", "lower"),
        "cluster.metrics.transcode_io_ratio": ("ratio", "lower"),
        "cluster.metrics.repair_io_ratio": ("ratio", "lower"),
        "cluster.metrics.capacity_peak_ratio": ("ratio", "lower"),
        "cluster.metrics.disk_read_bytes": ("bytes", "lower"),
        "cluster.metrics.disk_write_bytes": ("bytes", "lower"),
        "cluster.metrics.net_bytes": ("bytes", "lower"),
        "dfs.datanode.bytes_written": ("bytes", "lower"),
        "dfs.datanode.bytes_read": ("bytes", "lower"),
        "dfs.datanode.peak_memory_bytes": ("bytes", "lower"),
        "dfs.filesystem.write_p50_ms": ("ms", "lower"),
        "dfs.filesystem.read_p50_ms": ("ms", "lower"),
        "dfs.filesystem.free_p50_ms": ("ms", "lower"),
        "dfs.filesystem.merge_p50_ms": ("ms", "lower"),
        "dfs.client.degraded_chunk_share": ("ratio", "lower"),
        "dfs.recovery.chunks_lost": ("count", "lower"),
        "dfs.recovery.chunks_rebuilt": ("count", "higher"),
        "dfs.recovery.lost_enum_s": ("s", "lower"),
        "sched.ticks_to_drain": ("count", "lower"),
        "sched.tasks_completed": ("count", "higher"),
        "sched.tasks_deferred": ("count", "lower"),
        "sched.dead_lettered": ("count", "lower"),
    })
    return table


PER_LAYER = _per_layer_table()


# -- reference speed ----------------------------------------------------------

def at_reference_speed(rd: dict) -> dict:
    """Scale every time a round measured by ``NOMINAL_S / reference
    time`` of its part (see reference.py); the raw walls are kept."""
    refs = rd["refs"]
    speed = {
        part: NOMINAL_S / ((refs[i] + refs[j]) / 2)
        for part, (i, j) in PART_REFS.items() if j < len(refs)
    }

    def scale(phase: str) -> float:
        return speed.get(PART_OF.get(phase), 1.0)

    out = dict(rd, raw_walls=rd["walls"], speed=speed)
    out["walls"] = {p: w * scale(p) for p, w in rd["walls"].items()}
    out["lat"] = {p: [x * scale(p) for x in xs] for p, xs in rd["lat"].items()}
    out["codec"] = {
        p: {k: v * scale(p) if k.endswith("_s") else v for k, v in cells.items()}
        for p, cells in rd["codec"].items()
    }
    if "trace" in rd:
        out["trace"] = {
            p: {name: [c[0], c[1] * scale(p), c[2] * scale(p), c[3]]
                for name, c in by_name.items()}
            for p, by_name in rd["trace"].items()
        }
    return out


# -- summaries ----------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (with few samples p99 is the maximum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise(values: Iterable[Optional[float]], unit: str) -> Optional[dict]:
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    """``num / den``; nothing over nothing is 0, not a missing metric."""
    if num is None or den is None:
        return None
    if not den:
        return None if num else 0.0
    return num / den


def _wall(rd: dict, *phases: str) -> Optional[float]:
    walls = rd["walls"]
    if any(p not in walls for p in phases):
        return None
    return sum(walls[p] for p in phases)


def timed_wall(rd: dict) -> float:
    return sum(rd["walls"].get(p, 0.0) for p in TIMED_PHASES)


# -- end to end ---------------------------------------------------------------

def e2e_round(rd: dict) -> Dict[str, Optional[float]]:
    c = rd["counts"]
    a, b = c.get("a_bytes"), c.get("b_bytes")

    def mib(nbytes: Optional[float]) -> Optional[float]:
        return None if nbytes is None else nbytes / MiB

    ingest = rd["lat"].get("ingest")
    return {
        "lifetime_mb_s": _ratio(mib(a), _wall(rd, *LIFETIME_PHASES)),
        "ingest_mb_s": _ratio(mib(a), _wall(rd, "ingest")),
        "transcode_mb_s": _ratio(mib(a), _wall(rd, "free", "merge")),
        "read_mb_s": _ratio(
            None if a is None or b is None else (2 * a + b) / MiB,
            _wall(rd, "read_hot", "read_cold", "read_healed"),
        ),
        "degraded_read_mb_s": _ratio(mib(b), _wall(rd, "degraded_read")),
        "repair_mb_s": _ratio(mib(c.get("lost_bytes")), _wall(rd, "repair")),
        "scrub_mb_s": _ratio(mib(c.get("scanned_bytes")), _wall(rd, "scrub")),
        "meta_ops_per_s": _ratio(c.get("meta_ops"), _wall(rd, "meta")),
        "recover_s": _wall(rd, "recover"),
        "write_p99_ms": percentile(ingest, 0.99) * 1e3 if ingest else None,
        "io_amplification": _ratio(c.get("io_lifetime"), a),
        "capacity_final_ratio": _ratio(c.get("capacity_final"), a),
    }


def e2e_summary(children: List[dict]) -> Dict[str, Optional[dict]]:
    """Pool the rounds of every untraced child; medians over rounds.
    ``setup_s`` and ``peak_rss_mb`` are per child: median over children."""
    per_round = [e2e_round(rd) for child in children for rd in child["rounds"]]
    out: Dict[str, Optional[dict]] = {}
    for name, (unit, _better, _bound) in END_TO_END.items():
        if name in ("setup_s", "peak_rss_mb"):
            out[name] = summarise((child[name] for child in children), unit)
        else:
            out[name] = summarise((r[name] for r in per_round), unit)
    return out


# -- per layer ----------------------------------------------------------------

def _cells(rd: dict, names=None, phases=None):
    """Trace cells ``[calls, self_s, total_s, bytes]`` of one round, for
    some span names over some phases (default: all)."""
    for phase, by_name in rd["trace"].items():
        if phases is not None and phase not in phases:
            continue
        for name, cell in by_name.items():
            if names is not None and name not in names:
                continue
            yield name, cell


def _traced_round(rd: dict, layer_of: Dict[str, str]) -> Dict[str, Optional[float]]:
    wall = timed_wall(rd)
    c = rd["counts"]
    out: Dict[str, Optional[float]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for name, cell in _cells(rd):
        self_s[layer_of[name]] += cell[1]
        calls[layer_of[name]] += cell[0]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = _ratio(self_s[layer], wall)
        out[f"{layer}.calls"] = calls[layer]
    other = wall - sum(self_s.values())
    out["other.self_s"] = other
    out["other.self_share"] = _ratio(other, wall)

    def total(names, phases=None, column=2):
        return sum(cell[column] for _n, cell in _cells(rd, names, phases))

    conversions = ("convert", "convert_cc_to_lrcc", "convert_lrcc_to_lrcc")
    out["codes.merge_bytes"] = total(conversions, column=3)
    out["codes.merge_mb_s"] = _ratio(out["codes.merge_bytes"] / MiB, total(conversions))
    checksums = ("ChecksumRegistry.record", "ChecksumRegistry.verify")
    out["dfs.integrity.checksum_bytes"] = total(checksums, column=3)
    out["dfs.integrity.checksum_mb_s"] = _ratio(
        out["dfs.integrity.checksum_bytes"] / MiB, total(checksums))
    appends = ("Journal.append",)
    out["dfs.journal.records"] = total(appends, column=0)
    out["dfs.journal.bytes"] = total(appends, column=3)
    out["dfs.journal.bytes_per_record"] = _ratio(
        out["dfs.journal.bytes"], out["dfs.journal.records"])
    out["dfs.journal.bytes_per_user_byte"] = _ratio(
        total(appends, phases=LIFETIME_PHASES, column=3), c.get("a_bytes"))
    out["dfs.journal.append_us"] = _ratio(total(appends) * 1e6, out["dfs.journal.records"])
    out["dfs.journal.compactions"] = total(("Journal.rewrite",), column=0)
    out["dfs.journal.compact_s"] = total(("JournaledNamenode.compact",))
    out["dfs.namenode.mutations"] = total(NAMENODE_MUTATORS, column=0)
    out["dfs.namenode.lookups"] = total(("Namenode.lookup",), column=0)
    out["dfs.namenode.chunks_on_node_s"] = total(("Namenode.chunks_on_node",))
    out["dfs.datanode.bytes_written"] = total(
        ("Datanode.receive_to_memory", "Datanode.receive_to_disk", "Datanode.store_local"),
        column=3)
    out["dfs.datanode.bytes_read"] = total(
        ("Datanode.read", "Datanode.read_range"), column=3)
    return out


def _counted_round(rd: dict) -> Dict[str, Optional[float]]:
    """Per-layer metrics the harness counts or times itself."""
    c = rd["counts"]
    lat = rd["lat"]
    a = c.get("a_bytes")
    codec = {
        key: sum(rd["codec"].get(p, {}).get(key, 0.0) for p in TIMED_PHASES)
        for key in ("encode_bytes", "encode_s", "decode_bytes", "decode_s")
    }
    slowdown = [1 / s for s in rd["speed"].values()]

    def p50_ms(*phases):
        samples = [s for p in phases for s in lat.get(p, ())]
        return statistics.median(samples) * 1e3 if samples else None

    return {
        "machine.reference_ratio": statistics.mean(slowdown) if slowdown else None,
        "codes.encode_bytes": codec["encode_bytes"],
        "codes.encode_mb_s": _ratio(codec["encode_bytes"] / MiB, codec["encode_s"]),
        "codes.decode_bytes": codec["decode_bytes"],
        "codes.decode_mb_s": _ratio(codec["decode_bytes"] / MiB, codec["decode_s"]),
        "dfs.integrity.corrupt_found": c.get("scrub_found"),
        "dfs.integrity.corrupt_repaired": c.get("scrub_repaired"),
        "dfs.journal.replay_records_per_s": _ratio(c.get("replayed"), _wall(rd, "recover")),
        "cluster.placement.colocated_stripes": c.get("colocated_stripes"),
        "cluster.metrics.ingest_io_ratio": _ratio(c.get("io_ingest"), a),
        "cluster.metrics.transcode_io_ratio": _ratio(c.get("io_transcode"), a),
        "cluster.metrics.repair_io_ratio": _ratio(c.get("io_repair"), c.get("lost_bytes")),
        "cluster.metrics.capacity_peak_ratio": _ratio(c.get("capacity_peak"), a),
        "cluster.metrics.disk_read_bytes": c.get("disk_read"),
        "cluster.metrics.disk_write_bytes": c.get("disk_write"),
        "cluster.metrics.net_bytes": c.get("net"),
        "dfs.datanode.peak_memory_bytes": c.get("memory_peak"),
        "dfs.filesystem.write_p50_ms": p50_ms("ingest"),
        "dfs.filesystem.read_p50_ms": p50_ms("read_hot", "read_cold"),
        "dfs.filesystem.free_p50_ms": p50_ms("free"),
        "dfs.filesystem.merge_p50_ms": p50_ms("merge"),
        "dfs.client.degraded_chunk_share": _ratio(
            c.get("degraded_chunks"), c.get("data_chunks_b")),
        "dfs.recovery.chunks_lost": c.get("lost_chunks"),
        "dfs.recovery.chunks_rebuilt": c.get("rebuilt_chunks"),
        "dfs.recovery.lost_enum_s": _wall(rd, "lost_enum"),
        "sched.ticks_to_drain": c.get("ticks_to_drain"),
        "sched.tasks_completed": c.get("tasks_completed"),
        "sched.tasks_deferred": c.get("tasks_deferred"),
        "sched.dead_lettered": c.get("dead_lettered"),
    }


def _median_wall(child: dict, *phases: str) -> Optional[float]:
    walls = [_wall(rd, *phases) for rd in child["rounds"]]
    walls = [w for w in walls if w is not None]
    return statistics.median(walls) if walls else None


def per_layer_summary(plain: dict, traced: dict, obs: dict) -> Dict[str, Optional[dict]]:
    """Span-derived numbers come from the traced child; what the harness
    times at op level (latencies, replay rate) and every ratio against
    untraced time come from the plain child."""
    layer_of = traced["layer_of"]
    traced_rounds = [_traced_round(rd, layer_of) for rd in traced["rounds"]]
    counted_rounds = [_counted_round(rd) for rd in plain["rounds"]]
    out: Dict[str, Optional[dict]] = {}
    for name, (unit, _better) in PER_LAYER.items():
        source = traced_rounds if name in traced_rounds[0] else counted_rounds
        if name in source[0]:
            out[name] = summarise((r[name] for r in source), unit)

    def single(name: str, value: Optional[float]) -> None:
        out[name] = summarise([value], PER_LAYER[name][0])

    plain_wall = statistics.median(timed_wall(rd) for rd in plain["rounds"])
    single("trace.overhead_ratio", _ratio(
        statistics.median(timed_wall(rd) for rd in traced["rounds"]), plain_wall))
    single("obs.enabled_overhead_ratio", _ratio(
        _median_wall(obs, *LIFETIME_PHASES), _median_wall(plain, *LIFETIME_PHASES)))
    # ops/s ratios over the same trace: journaled / unjournaled (both
    # 4-shard), and 4-shard / single (both unjournaled)
    single("dfs.journal.overhead_ratio", _ratio(
        _median_wall(plain, "meta_unjournaled"), _median_wall(plain, "meta")))
    single("dfs.shards.overhead_ratio", _ratio(
        _median_wall(plain, "meta_single"), _median_wall(plain, "meta_unjournaled")))
    stats = traced["cache_stats"]
    single("gf.pattern_hit_ratio", _ratio(
        stats["pattern_hits"], stats["pattern_hits"] + stats["pattern_misses"]))
    single("gf.pattern_evictions", stats["pattern_evictions"])
    single("gf.plan_hit_ratio", _ratio(
        stats["plan_hits"], stats["plan_hits"] + stats["plan_misses"]))
    single("gf.resident_bytes", stats["resident_bytes"])
    return out


def phase_shares(traced: dict) -> Dict[str, Dict[str, float]]:
    """Per phase, each layer's share of that phase's wall — and with one
    client nothing queues, so the share is also the ceiling on what a
    faster layer can buy there."""
    layer_of = traced["layer_of"]
    self_s: Dict[str, Dict[str, float]] = {}
    walls: Dict[str, float] = {}
    for rd in traced["rounds"]:
        for phase, by_name in rd["trace"].items():
            walls[phase] = walls.get(phase, 0.0) + rd["walls"].get(phase, 0.0)
            layers = self_s.setdefault(phase, {})
            for name, cell in by_name.items():
                layer = layer_of[name]
                layers[layer] = layers.get(layer, 0.0) + cell[1]
    return {
        phase: {layer: s / walls[phase] for layer, s in sorted(layers.items())}
        for phase, layers in self_s.items() if walls.get(phase)
    }
