"""One ``morph-e2e`` round: lifetime, failure drill, metadata churn.

Closed loop, one client: each op is issued when the previous returns
and is timed on its own with ``time.perf_counter``; verification and
set-up between ops are outside every timer. A phase's wall is the sum
of its ops. The program is driven through its public API only.

Correctness oracle (violations count as failed ops):

* every read is compared by sha256 with the generator's digest;
* after the round, each live shard's ``state_digest`` must equal that of
  a namenode recovered from the journal *files* alone;
* ``capacity_used()`` cross-checks the IO ledger against the disks;
* ``lost_chunks()`` is empty after repair;
* the scrub finds and repairs exactly the injected corruptions.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import statistics
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import (
    HeartbeatConfig,
    HeartbeatMonitor,
    Journal,
    MorphFS,
    Namenode,
    RecoveryManager,
    Scrubber,
    ShardedNamenode,
)
from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta
from repro.dfs.integrity import corrupt_chunk
from repro.dfs.journal import state_digest
from repro.obs import Observability
from repro.obs.codec import CODEC_STATS

from reference import reference_seconds
from workloads import META_BATCH, N_DATANODES, N_SHARDS, Inputs, MetaTrace, Spec

CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
LRCC1222 = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
HY = HybridScheme(1, CC69)
NODE_IDS = [f"dn{i:03d}" for i in range(N_DATANODES)]
MAX_TICKS = 64
#: The cluster's placement RNG is pinned, not drawn from ``--seed``: with
#: seeded placement the failure drill met a different mix of failure
#: patterns per seed and its rates spread 15-17 % across seeds (2-5 %
#: pinned), which would drown the regressions the bounds are there for.
PLACEMENT_SEED = 0
#: phases whose per-op latencies are kept (the rest keep only the wall)
LATENCY_PHASES = ("ingest", "read_hot", "free", "merge", "read_cold")


class Recorder:
    """Times ops, counts failures, collects one round's numbers."""

    def __init__(self, tracer=None, inject: Optional[str] = None):
        self.walls: Dict[str, float] = defaultdict(float)
        self.lat: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.phase = ""
        self.tracer = tracer
        self.inject = inject
        #: op-id table for kept spans: (phase, subject)
        self.ops: List[tuple] = []
        #: machine-speed reference samples at the part boundaries
        self.refs: List[float] = []
        #: per phase: CODEC_STATS deltas (the ledger is process-global and
        #: also sees untimed set-up, which gets a phase of its own)
        self.codec: Dict[str, Dict[str, float]] = {}
        self._codec_mark = _codec_snapshot()

    def begin(self, phase: str) -> None:
        """Close the current phase and open the next (``""`` = none)."""
        now = _codec_snapshot()
        if self.phase:
            self.codec[self.phase] = {k: now[k] - v for k, v in self._codec_mark.items()}
        self._codec_mark = now
        self.phase = phase
        if self.tracer is not None:
            self.tracer.set_phase(phase)

    def calibrate(self) -> None:
        self.refs.append(reference_seconds())

    def _fail(self, weight: int, what: str) -> None:
        self.failed += weight
        if len(self.errors) < 5:
            self.errors.append(what)

    def op(self, fn, *args, subject: str = "", weight: int = 1, **kw):
        """One timed op of the current phase; returns None if it raised."""
        self.attempted += weight
        tracer = self.tracer
        if tracer is not None:
            if tracer.keep_spans:
                tracer.op_id = len(self.ops)
                self.ops.append((self.phase, subject))
            tracer.active = True
        result = error = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kw)
        except Exception:  # the run must go on to report the failure
            error = traceback.format_exc()
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.walls[self.phase] += dt
        if self.phase in LATENCY_PHASES:
            self.lat[self.phase].append(dt)
        if error is not None:
            self._fail(weight, f"{self.phase} {subject}: {error}")
        return result

    def untimed(self, fn, *args, subject: str = "", **kw):
        """Set-up or oracle call: failures count, time does not."""
        self.attempted += 1
        try:
            return fn(*args, **kw)
        except Exception:
            self._fail(1, f"{subject or fn.__name__}: {traceback.format_exc()}")
            return None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(1, what)

    def check_read(self, out, want) -> None:
        """Byte-for-byte readback check against the generator's digest."""
        if out is None:
            return  # the read raised and is already counted
        if self.inject == "readback":
            self.inject = None
            out = out.copy()
            out[0] ^= 0xFF
        got = hashlib.sha256(np.ascontiguousarray(out).data).hexdigest()
        self.check(got == want.sha256, f"{want.name}: readback digest mismatch")

    def result(self) -> dict:
        return {
            "walls": dict(self.walls),
            "lat": dict(self.lat),
            "counts": self.counts,
            "codec": self.codec,
            "refs": self.refs,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


def _codec_snapshot() -> Dict[str, float]:
    return {
        "encode_bytes": CODEC_STATS.bytes.get("encode", 0.0),
        "encode_s": CODEC_STATS.seconds.get("encode", 0.0),
        "decode_bytes": CODEC_STATS.bytes.get("decode", 0.0),
        "decode_s": CODEC_STATS.seconds.get("decode", 0.0),
    }


def _io(fs) -> Dict[str, float]:
    s = fs.metrics.summary()
    return {
        "total": s["disk_total"] + s["network"],
        "disk_read": s["disk_read"],
        "disk_write": s["disk_write"],
        "net": s["network"],
    }


# -- part A: the file lifetime ------------------------------------------------

def _lifetime(r: Recorder, fs, inp: Inputs) -> None:
    a_bytes = sum(f.data.nbytes for f in inp.a)
    r.counts["a_bytes"] = a_bytes
    io0 = _io(fs)
    r.begin("ingest")
    for f in inp.a:
        r.op(fs.write_file, f.name, f.data, HY, subject=f.name)
    io_ingest = _io(fs)
    capacity_peak = r.untimed(fs.capacity_used) or 0.0
    memory_peak = sum(m.memory_peak_bytes for m in fs.metrics.nodes.values())

    r.begin("read_hot")
    for f in inp.a:
        r.check_read(r.op(fs.read_file, f.name, subject=f.name), f)
    io_before_transcode = _io(fs)
    r.begin("free")
    for f in inp.a:
        r.op(fs.transcode, f.name, CC69, subject=f.name)
    r.begin("merge")
    for i, f in enumerate(inp.a):
        target = CC1215 if i % 2 == 0 else LRCC1222
        r.op(fs.transcode, f.name, target, subject=f.name)
    io_after_transcode = _io(fs)
    capacity_final = r.untimed(fs.capacity_used) or 0.0
    r.begin("read_cold")
    for f in inp.a:
        out = r.op(fs.read_file, f.name, prefer_striped=True, subject=f.name)
        r.check_read(out, f)
    io1 = _io(fs)

    # Today CC(6,9) -> LRCC(12,2,2) leaves both local parities on the
    # co-located parity slot; reported, not asserted (ROADMAP fsck item).
    colocated = 0
    for meta in fs.namenode.files.values():
        for stripe in meta.stripes:
            nodes = stripe.node_ids()
            colocated += len(set(nodes)) != len(nodes)

    r.begin("delete")
    for f in inp.a:
        r.op(fs.delete_file, f.name, subject=f.name)
    r.begin("")
    r.counts.update(
        io_lifetime=io1["total"] - io0["total"],
        io_ingest=io_ingest["total"] - io0["total"],
        io_transcode=io_after_transcode["total"] - io_before_transcode["total"],
        disk_read=io1["disk_read"] - io0["disk_read"],
        disk_write=io1["disk_write"] - io0["disk_write"],
        net=io1["net"] - io0["net"],
        capacity_peak=capacity_peak,
        capacity_final=capacity_final,
        memory_peak=memory_peak,
        colocated_stripes=colocated,
    )


# -- part B: two nodes fail ---------------------------------------------------

def _pick_victims(fs, draw: int) -> tuple:
    """The node pair of median severity; the seeded draw breaks ties.

    What a lost chunk costs to serve and rebuild depends on its repair
    path: a replica block, or a data / parity chunk of a hybrid file
    (replica-range reads) or of a CC(k, .) file (k reads and a decode).
    A pair's severity is its count of lost chunks per path; the pair
    nearest the median of every count makes the drill a typical one, not
    an accident of which two nodes were drawn.
    """
    paths: Dict[tuple, Dict[str, int]] = defaultdict(lambda: dict.fromkeys(NODE_IDS, 0))
    for meta in fs.namenode.files.values():
        hybrid = bool(meta.replica_blocks)
        for stripe in meta.stripes:
            for chunk in stripe.all_chunks():
                paths[chunk.kind, hybrid, stripe.k][chunk.node_id] += 1
        for block in meta.replica_blocks:
            for copy in block.copies:
                paths[copy.kind, hybrid, 0][copy.node_id] += 1
    pairs = list(itertools.combinations(NODE_IDS, 2))
    severity = {p: [on[p[0]] + on[p[1]] for on in paths.values()] for p in pairs}
    medians = [statistics.median(column) for column in zip(*severity.values())]

    def distance(pair) -> float:
        return sum(abs(v - m) / max(m, 1) for v, m in zip(severity[pair], medians))

    nearest = min(distance(p) for p in pairs)
    candidates = [p for p in pairs if distance(p) == nearest]
    return candidates[draw % len(candidates)]


def _degraded_data_chunks(fs, dead: set) -> tuple:
    """(data chunks only a decode can serve, all data chunks)."""
    degraded = total = 0
    for meta in fs.namenode.files.values():
        first = 0
        for stripe in meta.stripes:
            for local, chunk in enumerate(stripe.data):
                total += 1
                if chunk.node_id in dead and not any(
                    copy.node_id not in dead
                    for block in meta.replica_blocks
                    if block.first_chunk <= first + local < block.first_chunk + block.n_chunks
                    for copy in block.copies
                ):
                    degraded += 1
            first += stripe.k
    return degraded, total


def _drained(fs, monitor) -> bool:
    return not fs.scheduler.queue.backlog() and not RecoveryManager(fs).lost_chunks(
        monitor.declared_dead()
    )


def _failure(r: Recorder, fs, inp: Inputs) -> None:
    # Set-up (untimed): a third of the files each stay Hy(1,CC(6,9)),
    # move to CC(6,9), and merge on to CC(12,15). No LRCC here: with its
    # co-located local parities two dead nodes can erase four chunks.
    r.begin("setup_b")
    for i, f in enumerate(inp.b):
        r.untimed(fs.write_file, f.name, f.data, HY, subject=f.name)
        if i % 3 >= 1:
            r.untimed(fs.transcode, f.name, CC69, subject=f.name)
        if i % 3 == 2:
            r.untimed(fs.transcode, f.name, CC1215, subject=f.name)
    r.counts["b_bytes"] = sum(f.data.nbytes for f in inp.b)

    victims = _pick_victims(fs, inp.victim_draw)
    for node_id in victims:
        fs.cluster.fail_node(node_id)
        fs.datanodes[node_id].fail()
    degraded, total = _degraded_data_chunks(fs, set(victims))
    r.counts.update(degraded_chunks=degraded, data_chunks_b=total)

    r.calibrate()
    r.begin("lost_enum")
    lost = r.op(RecoveryManager(fs).lost_chunks) or []
    r.counts.update(
        lost_chunks=len(lost), lost_bytes=sum(c.size for _m, c in lost)
    )

    r.begin("degraded_read")
    for f in inp.b:
        r.check_read(r.op(fs.read_file, f.name, subject=f.name), f)

    r.begin("repair")
    io0 = _io(fs)
    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
    ticks = rebuilt = completed = deferred = dead_lettered = 0
    while ticks < MAX_TICKS:
        report = r.op(monitor.tick, subject=f"tick{ticks}")
        ticks += 1
        if report is None:
            break
        rebuilt += report.chunks_recovered
        completed += len(report.scheduler.executed)
        deferred += report.scheduler.deferred_budget + report.scheduler.deferred_backoff
        dead_lettered += len(report.scheduler.dead_lettered)
        if r.op(_drained, fs, monitor, subject="drained?"):
            break
    r.counts.update(
        io_repair=_io(fs)["total"] - io0["total"],
        ticks_to_drain=ticks, rebuilt_chunks=rebuilt, tasks_completed=completed,
        tasks_deferred=deferred, dead_lettered=dead_lettered,
    )
    still_lost = r.untimed(RecoveryManager(fs).lost_chunks)
    r.check(still_lost == [], "chunks still lost after repair")

    # One seeded bit-rot per file, then a scrub that must find them all.
    injected = set()
    scanned_bytes = 0
    for f, (chunk_draw, byte_draw) in zip(inp.b, inp.corruption_draws):
        meta = fs.namenode.lookup(f.name)
        scanned_bytes += sum(c.size for c in meta.all_chunks())
        # Always a data chunk, so what the scrub must rebuild depends on
        # the file's redundancy state and not on the draw.
        data = [c for stripe in meta.stripes for c in stripe.data]
        chunk = data[chunk_draw % len(data)]
        corrupt_chunk(fs, chunk, byte_draw)
        injected.add(chunk.chunk_id)
    r.begin("scrub")
    report = r.op(Scrubber(fs).scan_and_repair)
    found = {chunk_id for _f, chunk_id in report.corrupt} if report else set()
    r.check(found == injected, "scrub did not find exactly the injected corruptions")
    r.check(report is not None and report.repaired == len(injected),
            "scrub did not repair every corruption")
    r.counts.update(
        scanned_bytes=scanned_bytes, scrub_found=len(found),
        scrub_repaired=report.repaired if report else 0,
    )

    r.begin("read_healed")
    for f in inp.b:
        r.check_read(r.op(fs.read_file, f.name, subject=f.name), f)
    r.begin("")


# -- part M: metadata churn and namenode restart ------------------------------

def _build_meta(name: str, start: int, stride: int, chunk_size: int) -> FileMeta:
    """A single-stripe CC(6,9) file: nine chunks on nine distinct nodes."""
    chunks = [
        ChunkMeta(
            f"{name}/s0#{j}", NODE_IDS[(start + j * stride) % N_DATANODES],
            ChunkKind.DATA if j < 6 else ChunkKind.PARITY, chunk_size,
        )
        for j in range(9)
    ]
    stripe = ECStripeMeta(0, 6, 9, chunks[:6], chunks[6:])
    return FileMeta(name, 6 * chunk_size, chunk_size, CC69, stripes=[stripe])


def _materialise(trace: MetaTrace, chunk_size: int) -> tuple:
    """Fresh FileMeta objects for one replay (namenodes mutate them)."""
    initial = [_build_meta(*entry, chunk_size) for entry in trace.initial]
    batches = [initial[i:i + META_BATCH] for i in range(0, len(initial), META_BATCH)]
    fresh = {
        op[1]: _build_meta(op[1], op[2], op[3], chunk_size)
        for op in trace.ops if op[0] == "register"
    }
    return batches, fresh


def _replay_meta(namenode, batches, ops, fresh) -> None:
    for batch in batches:
        namenode.register_files(batch)
    register, lookup = namenode.register_file, namenode.lookup
    mint, rename = namenode.next_chunk_ids, namenode.rename
    note, unregister = namenode.note_chunk, namenode.unregister_file
    chunks_on_node = namenode.chunks_on_node
    for op in ops:
        kind = op[0]
        if kind == "register":
            register(fresh[op[1]])
        elif kind == "lookup":
            lookup(op[1])
        elif kind == "mint":
            mint(op[1], 9)
        elif kind == "rename":
            rename(op[1], op[2])
        elif kind == "note":
            note(op[1], op[2])
        elif kind == "unregister":
            unregister(op[1])
        else:
            for node_id in NODE_IDS:
                chunks_on_node(node_id)


def _recover(paths) -> ShardedNamenode:
    return ShardedNamenode.recover([Journal(p) for p in paths])


def _meta(r: Recorder, fs, journals, spec: Spec, inp: Inputs, comparators: bool) -> None:
    trace = inp.meta
    r.counts["meta_ops"] = trace.n_ops
    batches, fresh = _materialise(trace, spec.chunk_size)
    r.begin("meta")
    r.op(_replay_meta, fs.namenode, batches, trace.ops, fresh, weight=trace.n_ops)
    if comparators:
        # The same trace without a journal, and without shards, for the
        # two overhead ratios (tracing is never on in this child).
        for phase, namenode in (
            ("meta_unjournaled", ShardedNamenode(N_SHARDS)),
            ("meta_single", Namenode()),
        ):
            batches, fresh = _materialise(trace, spec.chunk_size)
            r.begin(phase)
            r.op(_replay_meta, namenode, batches, trace.ops, fresh, weight=trace.n_ops)

    # Restart: the recovered namenode is built only from bytes the
    # journals flushed to their files.
    for journal in journals:
        journal.close()
    r.begin("recover")
    recovered = r.op(_recover, [j.path for j in journals])
    r.begin("")
    r.calibrate()
    if recovered is None:
        return
    r.counts["replayed"] = sum(shard.replayed for shard in recovered.shards)
    for i, (live, back) in enumerate(zip(fs.namenode.shards, recovered.shards)):
        r.check(state_digest(live) == state_digest(back),
                f"shard {i}: recovered state differs from live state")


# -- the round ----------------------------------------------------------------

def run_round(spec: Spec, inp: Inputs, tmp_root: Path, tracer=None,
              obs: bool = False, comparators: bool = False,
              inject: Optional[str] = None) -> dict:
    """Build a fresh cluster, run the three parts, verify, tear down."""
    r = Recorder(tracer, inject)
    t0 = perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix="round-", dir=tmp_root))
    journals: List[Journal] = []
    try:
        journals = [Journal(tmp / f"shard{i}.journal") for i in range(N_SHARDS)]
        namenode = ShardedNamenode.journaled(
            journals=journals, compact_every=spec.compact_every
        )
        fs = MorphFS(
            cluster=Cluster(ClusterSpec(n_datanodes=N_DATANODES)),
            chunk_size=spec.chunk_size,
            seed=PLACEMENT_SEED,
            future_widths=[6, 12],
            obs=Observability() if obs else None,
            namenode=namenode,
        )
        # Reference samples bracket each part's timed section: A between
        # refs 0-1, B between 2-3 (after its untimed set-up), M between 3-4.
        r.calibrate()
        _lifetime(r, fs, inp)
        r.calibrate()
        _failure(r, fs, inp)
        r.calibrate()
        _meta(r, fs, journals, spec, inp, comparators)
        r.untimed(fs.capacity_used, subject="capacity ledger cross-check")
        r.counts["journal_compactions"] = sum(j.snapshots for j in journals)
    finally:
        for journal in journals:
            journal.close()
        shutil.rmtree(tmp, ignore_errors=True)
    out = r.result()
    out["wall"] = perf_counter() - t0
    out["ops"] = r.ops
    return out
