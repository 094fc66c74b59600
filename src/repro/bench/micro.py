"""Codec microbenchmarks — the repo's perf trajectory, one JSON per PR.

``python -m repro bench`` measures encode/decode/transcode throughput for
representative (k, n) points in both fields, the kernel and namenode
ratios :data:`RATIO_GATES` holds, two exact IO counts and the
event-engine rate, and writes ``BENCH_codec.json`` at the repo root in a
stable schema::

    {
      "schema": "repro-bench/1",
      "quick": false,
      "metrics": {
        "<name>": {"value": 123.4, "unit": "MB/s", "params": {...}},
        ...
      }
    }

The file is committed each PR so the perf trajectory lives in git history
(``git log -p BENCH_codec.json``). Values are wall-clock and therefore
machine-dependent; the trajectory is meaningful within one machine
generation, the *schema* is what CI checks.

``--quick`` shrinks chunk sizes and repeat counts (for CI); ``--check``
validates the committed file's schema against the current metric set
(no row missing, none left over) without overwriting it, and holds the
current run to :data:`RATIO_GATES` — ratios of two CPU times taken
back to back in one process, so a slow runner moves both sides alike
and a busy neighbour's preemption counts on neither. No absolute number
is ever asserted.

It keeps only what ``benchmarks/e2e`` cannot see. Metadata throughput,
journal and shard overhead and failure-burst enumeration are read there
(``meta_ops_per_s``, ``recover_s``, ``dfs.journal.overhead_ratio``,
``dfs.shards.overhead_ratio``, ``dfs.recovery.lost_enum_s``). The
scenario suite's durability and foreground p99 are held by ``python -m
repro scenarios --check``: it raises on a lost byte, an audit violation
or a budgeted p99 above 1.05x the unthrottled one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

SCHEMA = "repro-bench/1"

#: Upper bounds ``--check`` holds the current run to. Machine-independent
#: ratios only (ROADMAP north-star 1: "gates on ratios").
RATIO_GATES = {
    # A 3-row apply must cost about what a 4-row apply costs: both gather
    # four slots in a uint64. 1.53-1.65 was the price of 6-byte table rows
    # (numpy's take copies them byte by byte); 0.92-0.99 is the padded one.
    "gf_apply_m3_over_m4_time_ratio": 1.25,
    # CC(6,9)'s three parities — an XOR row, a column of ones, two rows
    # packed into uint32 slots — must cost at most about one and a half
    # single-row repairs of the same six inputs. Four padded uint16
    # columns gathered into 4 MiB accumulators and scattered back
    # transposed read 1.62-1.79 at the 256 KiB rows `--quick` (and CI)
    # runs and 1.39-1.47 at 1 MiB; the plan reading its matrix read
    # 1.16-1.20 and 1.07-1.13 while the single row gathered a whole row
    # at once. The denominator now walks the same 64 Ki-lane tile and is
    # faster, so the readings rose: 1.2-1.4 at 256 KiB (1.40-1.50 when
    # the bench runs alone in a fresh process) and 1.36-1.39 at 1 MiB.
    "gf_encode_3x6_over_1x6_time_ratio": 1.5,
    # Asking every node for its chunks must cost about what one walk of
    # the namespace costs: both build the same (file, chunk) pairs.
    # 8.6 was the names-only index re-walking every candidate file per
    # node; 1.6-1.7 is the chunk-level index read straight out.
    "namenode_sweep_over_scan_time_ratio": 2.5,
}

#: Default output path: repo root (three levels up from this file when
#: running from a checkout); falls back to the CWD for installed copies.
def default_output() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "ROADMAP.md").exists() or (parent / ".git").exists():
            return parent / "BENCH_codec.json"
    return Path.cwd() / "BENCH_codec.json"


class Best(NamedTuple):
    """Best-of-N seconds of one call, on two clocks."""

    #: ``time.perf_counter``: what throughputs are computed from
    wall: float
    #: ``time.process_time``: CPU seconds of every thread of this
    #: process, what the :data:`RATIO_GATES` ratios are computed from
    cpu: float


def _best_seconds(fn: Callable[[], None], repeats: int, warmup: int = 2) -> Best:
    """Best-of-N seconds for one call of ``fn``, wall and CPU (min is
    the most repeatable point statistic for a throughput benchmark).
    The cyclic GC is paused during timed runs — same policy as
    ``timeit`` — so an unlucky collection inside one repeat doesn't
    pollute the sample.

    The gates read CPU time: a busy neighbour preempts one side of a
    ratio more than the other, and wall time counts the wait while CPU
    time counts only what this process ran. The CPU clock is
    ``process_time`` on both sides of ``SPLIT_FROM_BYTES``: from it on,
    a call runs parts on pool threads, which ``thread_time`` would miss;
    below it no pool thread runs, so ``process_time`` is the calling
    thread's own time and a gate's two sides read one clock whether or
    not one of them splits."""
    import gc

    for _ in range(warmup):
        fn()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall = cpu = float("inf")
        for _ in range(repeats):
            t0, c0 = time.perf_counter(), time.process_time()
            fn()
            c1, t1 = time.process_time(), time.perf_counter()
            wall, cpu = min(wall, t1 - t0), min(cpu, c1 - c0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return Best(wall, cpu)


def _cold_and_warm_seconds(make: Callable[[], object], fn, repeats: int):
    """Per repeat, wall seconds of ``fn`` on a fresh ``make()`` (cold:
    nothing it caches on the object exists yet) and again on the same
    object (warm). The two sample lists interleave in time, so machine
    drift hits both alike and their ratio stays usable on a noisy box."""
    cold, warm = [], []
    for _ in range(repeats):
        fresh = make()
        cold.append(_best_seconds(lambda: fn(fresh), repeats=1, warmup=0).wall)
        warm.append(_best_seconds(lambda: fn(fresh), repeats=1, warmup=0).wall)
    return cold, warm


def _round_robin_best(calls: List[Callable[[], object]], repeats: int) -> List[Best]:
    """Best seconds of each call, the calls taking turns so machine
    drift hits them alike and their ratio holds on a noisy box. The
    first two passes are warm-up in effect: they build tables."""
    best = [Best(float("inf"), float("inf"))] * len(calls)
    for _ in range(repeats + 2):
        for i, call in enumerate(calls):
            wall, cpu = _best_seconds(call, repeats=1, warmup=0)
            best[i] = Best(min(best[i].wall, wall), min(best[i].cpu, cpu))
    return best


def _metric(value: float, unit: str, **params) -> Dict:
    return {"value": round(float(value), 3), "unit": unit, "params": params}


def _chunks(k: int, chunk_bytes: int, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=chunk_bytes, dtype=np.uint8) for _ in range(k)]


# -- individual benchmarks ---------------------------------------------------
def bench_gf256_encode(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    from repro.codes.rs import ReedSolomon

    k, n = 6, 9
    code = ReedSolomon(k, n)
    data = _chunks(k, chunk_bytes, seed=1)
    nbytes = k * chunk_bytes

    fast = _best_seconds(lambda: code.encode(data), repeats).wall

    from repro.gf.matrix import gf_matmul_reference

    stacked = np.stack(data)
    parity_rows = code.generator[k:]
    ref = _best_seconds(lambda: gf_matmul_reference(parity_rows, stacked), repeats).wall

    params = {"k": k, "n": n, "chunk_bytes": chunk_bytes}
    return {
        "gf256_encode_mb_s": _metric(nbytes / fast / 1e6, "MB/s", **params),
        "gf256_encode_reference_mb_s": _metric(nbytes / ref / 1e6, "MB/s", **params),
    }


def bench_gf256_decode(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    from repro.codes.rs import ReedSolomon

    k, n = 6, 9
    code = ReedSolomon(k, n)
    data = _chunks(k, chunk_bytes, seed=2)
    stripe = code.encode_stripe(data)
    erased = [0, 3, 7]  # two data chunks + one parity
    available = {
        i: c for i, c in enumerate(stripe.chunks) if i not in erased
    }
    nbytes = len(erased) * chunk_bytes
    # Cold: a fresh code object — the inverse, the composed recovery
    # matrix and the multiply plan are all built inside the timer, which
    # is what the first repair of a failure pattern pays. Warm: the same
    # call again, the pattern now in the per-code LRU — the steady-state
    # (e, k) product.
    cold, warm = _cold_and_warm_seconds(
        lambda: ReedSolomon(k, n), lambda c: c.decode(available, erased), repeats
    )
    ratio = float(np.median([w / c for c, w in zip(cold, warm)]))
    params = {"k": k, "n": n, "chunk_bytes": chunk_bytes, "erased": len(erased)}
    return {
        "gf256_decode_mb_s": _metric(nbytes / min(warm) / 1e6, "MB/s", **params),
        "gf256_decode_cold_mb_s": _metric(
            nbytes / min(cold) / 1e6, "MB/s", pattern="cold",
            warm_mb_s=round(nbytes / min(warm) / 1e6, 3), **params
        ),
        # cold throughput / warm throughput, median over interleaved pairs
        "gf256_decode_cold_over_warm": _metric(ratio, "ratio", **params),
    }


def bench_gf256_encode_batch(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    """Multi-stripe batched encode vs a per-stripe loop, RS(6,9)."""
    from repro.codes.rs import ReedSolomon

    k, n, stripes = 6, 9, 64
    code = ReedSolomon(k, n)
    rng = np.random.default_rng(4)
    batch = [
        [rng.integers(0, 256, chunk_bytes, dtype=np.uint8) for _ in range(k)]
        for _ in range(stripes)
    ]
    nbytes = k * chunk_bytes * stripes
    batched = _best_seconds(lambda: code.encode_batch(batch), repeats).wall
    looped = _best_seconds(
        lambda: [code.encode(chunks) for chunks in batch], repeats
    ).wall
    return {
        "gf256_encode_batch_mb_s": _metric(
            nbytes / batched / 1e6, "MB/s",
            k=k, n=n, chunk_bytes=chunk_bytes, batch_stripes=stripes,
            per_stripe_mb_s=round(nbytes / looped / 1e6, 3),
        )
    }


def bench_gf256_transcode(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    """Access-optimal CC merge: 2 x CC(6,9) -> CC(12,15)."""
    from repro.codes.convertible import ConvertibleCode, convert, plan_conversion

    initial = ConvertibleCode(6, 9)
    final = ConvertibleCode(12, 15)
    stripes = [
        initial.encode_stripe(_chunks(6, chunk_bytes, seed=10 + i)) for i in range(2)
    ]
    plan = plan_conversion(initial, final, len(stripes))
    # Throughput denominator: logical data governed by the conversion.
    nbytes = final.k * chunk_bytes
    secs = _best_seconds(
        lambda: convert(initial, final, stripes, plan), repeats
    ).wall
    return {
        "gf256_transcode_mb_s": _metric(
            nbytes / secs / 1e6, "MB/s",
            initial="CC(6,9)", final="CC(12,15)", chunk_bytes=chunk_bytes,
        )
    }


def bench_gf_apply_ratio(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    """Time of a 3 x 12 apply over the time of a 4 x 12 apply on the same
    rows, GF(2^8), min of interleaved repeats — the table-row layout as a
    number: with no structure to read, both shapes gather one uint64 of
    four 16-bit slots per lane (three rows pad to four)."""
    from repro.gf.kernels import MulPlan

    rng = np.random.default_rng(5)
    coeffs = rng.integers(1, 256, size=(4, 12), dtype=np.uint8)
    rows = rng.integers(0, 256, size=(12, chunk_bytes), dtype=np.uint8)
    m3, m4 = MulPlan(coeffs[:3]), MulPlan(coeffs)
    best = _round_robin_best([lambda: m3.apply(rows), lambda: m4.apply(rows)], repeats)
    return {
        "gf_apply_m3_over_m4_time_ratio": _metric(
            best[0].cpu / best[1].cpu, "ratio", k=12, chunk_bytes=chunk_bytes,
            m3_mb_s=round(rows.nbytes / best[0].wall / 1e6, 3),
            m4_mb_s=round(rows.nbytes / best[1].wall / 1e6, 3),
        )
    }


def bench_gf_encode_over_repair_ratio(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    """Time of CC(6,9)'s encode plan — three parities — over the time of
    rebuilding one of those parities from the same six inputs (a
    one-erasure fused decode: a single-row plan), best of round-robin
    repeats. What the matrix's structure is worth as a number: the XOR
    row is nearly free and the other two share each gather, so three
    rows cost little more than one."""
    from repro.codes.convertible import ConvertibleCode

    code = ConvertibleCode(6, 9)
    data = _chunks(code.k, chunk_bytes, seed=6)
    plan = code.encode_plan()
    available = dict(enumerate(data))
    best = _round_robin_best(
        [lambda: plan.apply(data), lambda: code.decode(available, [code.k + 1])], repeats
    )
    nbytes = code.k * chunk_bytes
    return {
        "gf_encode_3x6_over_1x6_time_ratio": _metric(
            best[0].cpu / best[1].cpu, "ratio", code="CC(6,9)", chunk_bytes=chunk_bytes,
            encode_mb_s=round(nbytes / best[0].wall / 1e6, 3),
            one_row_mb_s=round(nbytes / best[1].wall / 1e6, 3),
        )
    }


def bench_gf_row_tile_ratio(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    """Time per byte of a single-row ``1 x 6`` apply (one lost chunk's
    repair) on ``chunk_bytes`` rows over the same on 64 KiB rows, best of
    round-robin repeats. Both sides sweep the same bytes — the 64 KiB
    side as consecutive slices of the long rows. On one CPU the ratio is
    what a long row costs beyond its length: about 1 when the row loop
    walks the one L2 tile, more when a gather spans the whole row. On
    several, the full run's long side (six rows of 1 MiB: 6 MiB, at
    least ``SPLIT_FROM_BYTES``) runs on every core and the short side
    (384 KiB) does not, so the ratio also holds the split's gain: about
    0.55 on two CPUs. ``--quick``'s long side (six rows of 256 KiB) stays
    whole and reads about 0.9 as on one CPU. Report only."""
    from repro.gf.kernels import MulPlan

    short = 64 * 1024
    rng = np.random.default_rng(7)
    plan = MulPlan(rng.integers(2, 256, size=(1, 6), dtype=np.uint8))
    rows = _chunks(6, chunk_bytes, seed=7)
    slices = [[row[s : s + short] for row in rows] for s in range(0, chunk_bytes, short)]

    def short_rows() -> None:
        for part in slices:
            plan.apply(part)

    best = _round_robin_best([lambda: plan.apply(rows), short_rows], repeats)
    nbytes = 6 * chunk_bytes
    return {
        "gf_row_1mib_over_64kib_byte_time_ratio": _metric(
            best[0].wall / best[1].wall, "ratio", k=6, chunk_bytes=chunk_bytes,
            short_bytes=short,
            long_mb_s=round(nbytes / best[0].wall / 1e6, 3),
            short_mb_s=round(nbytes / best[1].wall / 1e6, 3),
        )
    }


def bench_split(repeats: int) -> Dict[str, Dict]:
    """``cores``: the CPUs this process may use (``kernels.CORES``): the
    calling thread and ``cores - 1`` pool threads claim a split call's
    parts. ``crc_6mib_split_over_whole_time_ratio``:
    ``ChecksumRegistry.record`` of a warm 6 MiB replica block (split from
    ``SPLIT_FROM_BYTES`` on) over one ``zlib.crc32`` of the same bytes,
    best of round-robin repeats — about 0.55 on two quiet CPUs and 1.0
    on one, where nothing splits. Report only: it reads the machine, not
    the code."""
    import zlib

    from repro.dfs.integrity import ChecksumRegistry
    from repro.gf.kernels import CORES, SPLIT_FROM_BYTES

    data = _chunks(1, 6 << 20, seed=8)[0]
    registry = ChecksumRegistry()
    # A CRC of 6 MiB takes about 1.5 ms: many turns are cheap.
    best = _round_robin_best(
        [lambda: registry.record("c", data), lambda: zlib.crc32(data)], 4 * repeats
    )
    return {
        "cores": _metric(CORES, "count"),
        "crc_6mib_split_over_whole_time_ratio": _metric(
            best[0].wall / best[1].wall, "ratio", nbytes=data.nbytes, cores=CORES,
            split=data.nbytes >= SPLIT_FROM_BYTES,
            whole_mb_s=round(data.nbytes / best[1].wall / 1e6, 3),
        ),
    }


def bench_gf16_wide(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    from repro.codes.wide import WideConvertibleCode

    k, n = 17, 20
    code = WideConvertibleCode(k, n)
    data = _chunks(k, chunk_bytes, seed=3)
    nbytes = k * chunk_bytes
    enc = _best_seconds(lambda: code.encode(data), repeats).wall

    parities = code.encode(data)
    chunks = data + parities
    erased = [0, 9, 18]
    available = {i: c for i, c in enumerate(chunks) if i not in erased}
    dec_bytes = len(erased) * chunk_bytes
    # Cold: inverse, recovery matrix and its combined gather tables built
    # inside the timer (fresh code); warm: the same pattern again.
    cold, warm = _cold_and_warm_seconds(
        lambda: WideConvertibleCode(k, n),
        lambda c: c.decode(available, erased),
        repeats,
    )
    dec, cold_dec = min(warm), min(cold)

    params = {"k": k, "n": n, "chunk_bytes": chunk_bytes}
    return {
        "gf16_wide_encode_mb_s": _metric(nbytes / enc / 1e6, "MB/s", **params),
        "gf16_wide_decode_mb_s": _metric(
            dec_bytes / dec / 1e6, "MB/s", erased=len(erased), **params
        ),
        "gf16_wide_decode_cold_mb_s": _metric(
            dec_bytes / cold_dec / 1e6, "MB/s", erased=len(erased),
            pattern="cold", warm_mb_s=round(dec_bytes / dec / 1e6, 3), **params
        ),
    }


def bench_event_engine(n_events: int, repeats: int) -> Dict[str, Dict]:
    from repro.cluster.engine import Environment

    def run_once() -> None:
        env = Environment()

        def ticker(env, count):
            for _ in range(count):
                yield env.timeout(1.0)

        # A handful of interleaved processes exercises the heap the way
        # the latency experiments do (not one giant timeout chain).
        per = max(1, n_events // 8)
        for _ in range(8):
            env.process(ticker(env, per))
        env.run()

    secs = _best_seconds(run_once, repeats).wall
    total = 8 * max(1, n_events // 8)
    return {
        "event_engine_events_per_s": _metric(
            total / secs, "events/s", events=total, processes=8
        )
    }


def bench_namenode_sweep(repeats: int, n_files: int = 3_000) -> Dict[str, Dict]:
    """Time of ``chunks_on_node`` over every node ÷ time of one walk of
    the whole namespace, on the same plain ``Namenode``, min of
    interleaved repeats.  Both sides build the same ``(file, chunk)``
    pairs — nine-chunk files over 23 nodes, the ``morph-e2e`` metadata
    shape — so the ratio is what the per-node index costs over not
    having to look anything up: an index that walks files to answer
    reads several times the namespace per sweep."""
    from repro.core.schemes import CodeKind, ECScheme
    from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta
    from repro.dfs.namenode import Namenode

    n_nodes = 23  # prime: any stride puts a file's nine chunks on nine nodes
    nodes = [f"dn{i:03d}" for i in range(n_nodes)]
    scheme = ECScheme(CodeKind.CC, 6, 9)
    namenode = Namenode()
    metas = []
    for i in range(n_files):
        chunks = [
            ChunkMeta(f"f{i}/s0#{j}", nodes[(i + j * (1 + i % 22)) % n_nodes],
                      ChunkKind.DATA if j < 6 else ChunkKind.PARITY, 4096)
            for j in range(9)
        ]
        stripe = ECStripeMeta(0, 6, 9, chunks[:6], chunks[6:])
        metas.append(FileMeta(f"file-{i:06d}", 6 * 4096, 4096, scheme, stripes=[stripe]))
    namenode.register_files(metas)

    def sweep() -> int:
        query = namenode.chunks_on_node
        return sum(len(query(node)) for node in nodes)

    def scan() -> int:
        return len([
            (meta, chunk)
            for meta in namenode.files.values()
            for chunk in meta.all_chunks()
        ])

    assert sweep() == scan() == 9 * n_files
    best = _round_robin_best([sweep, scan], repeats)
    return {
        "namenode_sweep_over_scan_time_ratio": _metric(
            best[0].cpu / best[1].cpu, "ratio", n_files=n_files, n_nodes=n_nodes,
            chunks=9 * n_files, sweep_ms=round(best[0].wall * 1e3, 3),
            scan_ms=round(best[1].wall * 1e3, 3),
        )
    }


def bench_repair_reads() -> Dict[str, Dict]:
    """Source chunk-reads per lost chunk in a fixed two-node burst.

    Files in the three redundancy states of a lifetime (Hy(1,CC(6,9)),
    CC(6,9), CC(12,15)) on the functional DFS lose two nodes and are
    repaired through the heartbeat loop.  The value is an exact count —
    repair disk reads in chunk units over chunks lost — so it moves only
    when the repair path changes what it reads, never with the machine.
    """
    from repro.core.schemes import CodeKind, ECScheme, HybridScheme
    from repro.dfs import HeartbeatConfig, HeartbeatMonitor, MorphFS, RecoveryManager

    chunk = 4 * 1024
    cc69, cc1215 = ECScheme(CodeKind.CC, 6, 9), ECScheme(CodeKind.CC, 12, 15)
    fs = MorphFS(chunk_size=chunk, seed=0, future_widths=[6, 12])
    rng = np.random.default_rng(0)
    n_files = 6
    for i in range(n_files):
        name = f"f{i}"
        fs.write_file(
            name, rng.integers(0, 256, 24 * chunk, dtype=np.uint8), HybridScheme(1, cc69)
        )
        if i % 3 >= 1:
            fs.transcode(name, cc69)
        if i % 3 == 2:
            fs.transcode(name, cc1215)
    homes = sorted(
        {c.node_id for meta in fs.namenode.files.values() for c in meta.all_chunks()}
    )
    for victim in homes[:2]:
        fs.cluster.fail_node(victim)
    lost = len(RecoveryManager(fs).lost_chunks())
    reads_before = fs.metrics.disk_bytes_read
    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
    rebuilt = tasks = 0
    for _ in range(16):
        report = monitor.tick()
        rebuilt += report.chunks_recovered
        tasks += len(report.scheduler.executed)
        if not RecoveryManager(fs).lost_chunks():
            break
    if rebuilt != lost:
        raise RuntimeError(f"repair burst rebuilt {rebuilt} of {lost} lost chunks")
    reads = (fs.metrics.disk_bytes_read - reads_before) / chunk
    return {
        "repair_source_reads_per_lost_chunk": _metric(
            reads / lost, "chunks",
            lost_chunks=lost, source_chunk_reads=reads, repair_tasks=tasks,
            files=n_files, dead_nodes=2, seed=0,
        )
    }


def bench_checksum_passes(chunk_bytes: int, repeats: int) -> Dict[str, Dict]:
    """What block integrity (§6.1) costs a file over its lifetime.

    ``checksum_bytes_per_user_byte_lifetime`` is an exact count: bytes
    handed to ``ChecksumRegistry.record`` / ``verify_many`` while one file is
    ingested as Hy(1,CC(6,9)), read, freed to CC(6,9), merged to
    CC(12,15) and read again, over the file's size — CRC passes per user
    byte. It moves only when a path starts or stops checksumming: 3.75
    today (ingest 1.5: data chunks and parities; two reads at 1 each;
    0.25 for the merged parities), 4.75 while ingest also CRC'd the
    replica block its data chunks' sums already determine.

    ``read_verify_overhead_ratio`` is what those passes cost a read in
    time: striped-read throughput with the registry filled over the same
    read with it emptied (the copy into the result still happens, the
    CRC does not), median over interleaved pairs. 1.0 would be free
    verification.
    """
    from repro.core.schemes import CodeKind, ECScheme, HybridScheme
    from repro.dfs import MorphFS
    from repro.dfs.integrity import ChecksumRegistry

    class CountingRegistry(ChecksumRegistry):
        nbytes = 0

        def record(self, chunk_id, data):
            self.nbytes += data.nbytes
            super().record(chunk_id, data)

        def verify_many(self, items):  # ``verify`` is its one-item case
            self.nbytes += sum(data.nbytes for _chunk_id, data, _into in items)
            return super().verify_many(items)

    cc69, cc1215 = ECScheme(CodeKind.CC, 6, 9), ECScheme(CodeKind.CC, 12, 15)
    rng = np.random.default_rng(0)

    count_chunk = 4 * 1024
    fs = MorphFS(chunk_size=count_chunk, seed=0, future_widths=[6, 12])
    fs.checksums = registry = CountingRegistry()
    user = rng.integers(0, 256, 24 * count_chunk, dtype=np.uint8)
    fs.write_file("f", user, HybridScheme(1, cc69))
    readback = [fs.read_file("f")]
    fs.transcode("f", cc69)
    fs.transcode("f", cc1215)
    readback.append(fs.read_file("f", prefer_striped=True))
    if not all(np.array_equal(out, user) for out in readback):
        raise RuntimeError("lifetime readback differs from what was written")

    fs = MorphFS(chunk_size=chunk_bytes, seed=0, future_widths=[6, 12])
    fs.write_file("f", rng.integers(0, 256, 12 * chunk_bytes, dtype=np.uint8), cc69)
    sums = fs.checksums._sums

    def read() -> None:
        fs.read_file("f", prefer_striped=True)

    verified, unverified = [], []
    for _ in range(repeats):
        verified.append(_best_seconds(read, repeats=3, warmup=1).wall)
        fs.checksums._sums = {}
        unverified.append(_best_seconds(read, repeats=3, warmup=1).wall)
        fs.checksums._sums = sums
    ratio = float(np.median([u / v for v, u in zip(verified, unverified)]))
    return {
        "checksum_bytes_per_user_byte_lifetime": _metric(
            registry.nbytes / user.nbytes, "ratio",
            lifetime="Hy(1,CC(6,9)) -> read -> CC(6,9) -> CC(12,15) -> read",
            checksum_bytes=registry.nbytes, user_bytes=int(user.nbytes),
            chunk_bytes=count_chunk,
        ),
        "read_verify_overhead_ratio": _metric(
            ratio, "ratio", k=6, n=9, chunk_bytes=chunk_bytes,
            verified_mb_s=round(12 * chunk_bytes / min(verified) / 1e6, 3),
            unverified_mb_s=round(12 * chunk_bytes / min(unverified) / 1e6, 3),
        ),
    }


def run_benchmarks(quick: bool = False) -> Dict[str, Dict]:
    """All benchmark metrics, in a deterministic order."""
    chunk = 256 * 1024 if quick else 1024 * 1024
    # Best-of-N wall times; generous N because shared machines are noisy.
    repeats = 3 if quick else 9
    # 200k events keeps one timed run ~60ms — long enough that scheduler
    # jitter on a shared box doesn't dominate the best-of-N sample.
    events = 2_000 if quick else 200_000

    metrics: Dict[str, Dict] = {}
    metrics.update(bench_gf256_encode(chunk, repeats))
    metrics.update(bench_gf256_decode(chunk, repeats))
    # Batching pays where per-call overhead matters: small chunks. 64 KiB
    # (16 KiB quick) stripes at a 64-stripe batch is the DFS ingest shape.
    metrics.update(bench_gf256_encode_batch(chunk // 16, repeats))
    metrics.update(bench_gf256_transcode(chunk, repeats))
    metrics.update(bench_gf_apply_ratio(chunk, repeats))
    metrics.update(bench_gf_encode_over_repair_ratio(chunk, repeats))
    metrics.update(bench_gf_row_tile_ratio(chunk, repeats))
    metrics.update(bench_split(repeats))
    metrics.update(bench_gf16_wide(chunk, repeats))
    metrics.update(bench_repair_reads())
    metrics.update(bench_checksum_passes(chunk, repeats))
    metrics.update(bench_event_engine(events, repeats))
    # Same size in both modes: the gate is set at this one.
    metrics.update(bench_namenode_sweep(repeats))
    return metrics


def validate_schema(doc: Dict, expected_names) -> List[str]:
    """Schema problems with a committed BENCH_codec.json (empty = OK)."""
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["'metrics' missing or not an object"]
    for name in expected_names:
        if name not in metrics:
            problems.append(f"missing metric {name!r}")
    for name, m in metrics.items():
        if name not in expected_names:
            problems.append(f"{name}: no longer measured")
        if not isinstance(m, dict):
            problems.append(f"{name}: not an object")
            continue
        if not isinstance(m.get("value"), (int, float)) or m["value"] <= 0:
            problems.append(f"{name}: value must be a positive number")
        if not isinstance(m.get("unit"), str):
            problems.append(f"{name}: unit must be a string")
        if not isinstance(m.get("params"), dict):
            problems.append(f"{name}: params must be an object")
    return problems


def print_diff(metrics: Dict[str, Dict], committed: Dict) -> None:
    """Report-only comparison against a committed BENCH_codec.json.

    Purely informational: values are machine-dependent, so no threshold
    ever fails — CI uses this to surface the perf delta in the log.
    """
    old = committed.get("metrics", {})
    if committed.get("quick"):
        print("  (committed file was written with --quick)")
    print(f"  {'metric':38s} {'current':>12s} {'committed':>12s} {'delta':>8s}")
    for name in sorted(set(metrics) | set(old)):
        cur = metrics.get(name, {}).get("value")
        prev = old.get(name, {}).get("value")
        if cur is None:
            print(f"  {name:38s} {'-':>12s} {prev:>12,.1f}   (removed)")
        elif prev is None:
            print(f"  {name:38s} {cur:>12,.1f} {'-':>12s}   (new)")
        else:
            delta = (cur - prev) / prev * 100.0
            print(f"  {name:38s} {cur:>12,.1f} {prev:>12,.1f} {delta:>+7.1f}%")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="codec microbenchmarks -> BENCH_codec.json",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller chunks / fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate the committed BENCH_codec.json schema and hold this "
        "run to the ratio gates; do not overwrite",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="print current-vs-committed values (report only, never fails); "
        "do not overwrite",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output path (default: BENCH_codec.json at the repo root)",
    )
    args = parser.parse_args(argv)
    out = args.out or default_output()

    metrics = run_benchmarks(quick=args.quick)
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:34s} {m['value']:>12,.1f} {m['unit']}")

    if args.diff:
        if out.exists():
            print_diff(metrics, json.loads(out.read_text()))
        else:
            print(f"diff: {out} does not exist (nothing to compare)")
        if not args.check:
            return 0

    if args.check:
        if not out.exists():
            print(f"check: {out} does not exist", file=sys.stderr)
            return 1
        doc = json.loads(out.read_text())
        problems = validate_schema(doc, expected_names=sorted(metrics))
        problems += [
            f"{name} = {metrics[name]['value']} exceeds its gate {bound}"
            for name, bound in RATIO_GATES.items()
            if metrics[name]["value"] > bound
        ]
        if problems:
            for p in problems:
                print(f"check: {p}", file=sys.stderr)
            return 1
        print(
            f"check: {out.name} schema OK ({len(doc['metrics'])} metrics), "
            f"{len(RATIO_GATES)} ratio gate(s) held"
        )
        return 0

    doc = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
