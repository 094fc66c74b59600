"""Crash-recovery fault injection: kill the namenode at every record
boundary of a full failure-burst workload and assert byte-identical
recovery against the snapshot+replay oracle.  At every one of those
boundaries the per-node chunk index — a derived cache the digest does
not cover — must equal a full namespace scan, on the live namenode and
on the replayed one.

Metadata digests say nothing about bytes, so the paths that change a
registered file (append, close, seal, a native merge) are also swept
with a *data* oracle: crash before each record they write, restart the
filesystem on the namenode recovered from the journal prefix — every
datanode sends a block report — and every acknowledged byte must read
back while the audit finds nothing wrong; a merge, driven on by the
heartbeat, must also reach its target.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS, Namenode, ShardedNamenode
from repro.dfs.audit import audit, audit_namenode
from repro.dfs.blocks import FileState
from repro.dfs.heartbeat import HeartbeatMonitor
from repro.dfs.integrity import corrupt_chunk
from repro.dfs.journal import (
    Journal,
    JournalCrash,
    JournaledNamenode,
    Op,
    _encode,
    encode_state,
    replay,
    state_digest,
)
from repro.dfs.recovery import RecoveryManager
from repro.sched.tasks import ScrubTask, StripeRepairTask

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
LRCC = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


@contextmanager
def appended_ops(nn):
    """Collect the opcode of every record journaled inside the block,
    on any shard, chaining whatever ``after_append`` hook is installed."""
    ops = []
    shards = getattr(nn, "shards", [nn])
    saved = [shard.after_append for shard in shards]

    def chain(prev):
        def hook(node, op):
            ops.append(op)
            if prev is not None:
                prev(node, op)
        return hook

    for shard, prev in zip(shards, saved):
        shard.after_append = chain(prev)
    try:
        yield ops
    finally:
        for shard, prev in zip(shards, saved):
            shard.after_append = prev


def repair_by_stripe(fs):
    """Queue one StripeRepairTask per damaged stripe / replica block and
    drain; returns (groups repaired, chunks repaired)."""
    recovery = RecoveryManager(fs)
    groups = recovery.damaged_groups(recovery.lost_chunks())
    for meta, _home, chunks in groups:
        fs.scheduler.submit(StripeRepairTask(meta, chunks))
    fs.scheduler.run_until_drained()
    assert recovery.lost_chunks() == []
    return len(groups), sum(len(chunks) for _m, _h, chunks in groups)


def run_failure_burst(nn, seed=0, n_files=4, file_kb=48, chunk_kb=4):
    """The report demo's failure-burst trace, plus the ops it skips
    (append/close, rename, a merge left half done), driven over a
    supplied namenode."""
    fs = MorphFS(
        chunk_size=chunk_kb * KB, future_widths=[6, 12], seed=seed, namenode=nn
    )
    rng = np.random.default_rng(seed)

    datasets = {}
    for i in range(n_files):
        name = f"f{i:02d}"
        data = rng.integers(0, 256, file_kb * KB, dtype=np.uint8)
        fs.write_file(name, data, HybridScheme(1, CC69))
        datasets[name] = data
    for name in datasets:
        fs.read_file(name, 0, 8 * KB)

    # Native transcodes: ENQUEUE / MINT / NEW_STRIPE / FINALIZE.
    fs.transcode("f00", CC69)
    fs.transcode("f00", CC1215)

    # Failure burst: degraded reads, then scheduled repairs (PLACE records).
    chunk_homes = {
        c.node_id
        for meta in fs.namenode.files.values()
        for c in meta.all_chunks()
    }
    for victim in sorted(chunk_homes)[:2]:
        fs.cluster.fail_node(victim)
        fs.datanodes[victim].fail()
    for name in datasets:
        fs.read_file(name, 0, 8 * KB)
    repair_by_stripe(fs)

    # Silent corruption caught by a scrub (repair relocations -> PLACE).
    meta = fs.namenode.lookup("f01")
    corrupt_chunk(fs, meta.stripes[0].data[0])
    fs.scheduler.submit(ScrubTask())
    fs.scheduler.run_until_drained()

    # A stripe that lost a data chunk *and* a parity (its two nodes take
    # chunks of other stripes and files with them). However many chunks a
    # stripe lost, its repair is two records: one MINT for the new ids,
    # one PLACE that re-homes every rebuilt chunk.
    stripe = fs.namenode.lookup("f00").stripes[0]
    for victim in (stripe.data[3].node_id, stripe.parities[1].node_id):
        fs.cluster.fail_node(victim)
        fs.datanodes[victim].fail()
    with appended_ops(fs.namenode) as ops:
        n_groups, n_chunks = repair_by_stripe(fs)
    assert n_chunks > n_groups >= 1
    assert ops == [Op.MINT, Op.PLACE] * n_groups

    # Appends re-open and re-seal the tail stripe of a hybrid file.
    extra = rng.integers(0, 256, 3 * chunk_kb * KB, dtype=np.uint8)
    fs.append_file("f02", extra)
    datasets["f02"] = np.concatenate([datasets["f02"], extra])
    fs.close_file("f02")
    # A second append re-opens the sealed short tail stripe: exercises
    # the drop-open-region rewrite on a registered (journaled) file and
    # leaves the file with an open stripe for recovery to carry.
    extra2 = rng.integers(0, 256, chunk_kb * KB // 2, dtype=np.uint8)
    fs.append_file("f02", extra2)
    datasets["f02"] = np.concatenate([datasets["f02"], extra2])

    # Namespace churn: rename (cross-shard when hashes differ) + a merge
    # left in flight, one of its two groups staged.
    fs.namenode.rename("f03", "renamed/f03")
    datasets["renamed/f03"] = datasets.pop("f03")
    fs.transcode("f01", CC69)
    fs.schedule_transcode("f01", CC1215)
    fs.transcoder.execute_group(fs.namenode.utm["f01"].groups[0])

    for name, data in datasets.items():
        assert np.array_equal(fs.read_file(name), data), f"{name} corrupted"
    assert audit(fs) == []
    return fs, datasets


@pytest.fixture(scope="module")
def burst():
    """One sharded, journaled failure-burst run with per-boundary digests."""
    nn = ShardedNamenode.journaled(n_shards=4)
    digests = [[] for _ in nn.shards]

    def pin(node, op, shard_digests):
        shard_digests.append(state_digest(node))
        assert audit_namenode(node) == []  # live, at this record boundary

    for si, shard in enumerate(nn.shards):
        shard.after_append = lambda node, op, d=digests[si]: pin(node, op, d)
    fs, datasets = run_failure_burst(nn)
    return fs, datasets, digests


def test_crash_at_every_record_boundary_recovers_exactly(burst):
    """The acceptance criterion: for every shard, killing the namenode
    at every journal-record boundary of the failure-burst trace recovers
    byte-identically to the state the oracle pinned at that boundary."""
    fs, _datasets, digests = burst
    empty = state_digest(Namenode())
    total = 0
    for si, shard in enumerate(fs.namenode.shards):
        n = len(shard.journal)
        assert n == len(digests[si])
        assert n > 0, f"shard {si} journal never written"
        for boundary in range(n + 1):
            prefix = shard.journal.prefix(boundary)
            recovered = JournaledNamenode.recover(prefix)
            want = empty if boundary == 0 else digests[si][boundary - 1]
            got = state_digest(recovered)
            assert got == want, f"shard {si} boundary {boundary} diverged"
            assert audit_namenode(recovered) == []
            # The same prefix into a plain namenode: nothing about replay
            # — the index it rebuilds included — needs a journal.
            plain = Namenode()
            replay(plain, prefix.records())
            assert state_digest(plain) == want
            assert audit_namenode(plain) == []
            total += 1
    assert total >= 80  # the trace is long enough to mean something


def test_full_recovery_matches_live_state(burst):
    fs, datasets, _ = burst
    live = fs.namenode
    recovered = ShardedNamenode.recover([s.journal for s in live.shards])
    for si, shard in enumerate(live.shards):
        assert state_digest(recovered.shards[si]) == state_digest(shard)
        assert recovered.shards[si].replayed == len(shard.journal)
    assert audit_namenode(live) == []
    assert audit_namenode(recovered) == []
    for node_id in fs.datanodes:  # the same answers, object identity aside
        assert [(m.name, c.chunk_id) for m, c in recovered.chunks_on_node(node_id)] == [
            (m.name, c.chunk_id) for m, c in live.chunks_on_node(node_id)
        ]
    assert sorted(recovered.files) == sorted(live.files)
    for name in datasets:
        assert recovered.lookup(name).size == live.lookup(name).size


def test_recovered_namenode_serves_a_filesystem(burst):
    """A recovered sharded namenode is a working control plane: reads,
    repairs and appends keep functioning against the same datanodes, and
    the merge in flight at the crash finishes."""
    fs, datasets, _ = burst
    fs.restart(ShardedNamenode.recover([s.journal for s in fs.namenode.shards]))
    assert audit(fs) == []  # the recovered namespace lists what the live one did
    assert list(fs.namenode.utm) == ["f01"]
    monitor = HeartbeatMonitor(fs)
    while fs.namenode.utm:
        monitor.tick()
    assert fs.namenode.lookup("f01").scheme == CC1215
    assert audit(fs) == []
    for name, data in datasets.items():
        assert np.array_equal(fs.read_file(name), data)
    extra = np.arange(2 * fs.chunk_size, dtype=np.uint8) % 251
    fs.append_file("f02", extra)
    assert audit(fs) == []
    assert np.array_equal(
        fs.read_file("f02"), np.concatenate([datasets["f02"], extra])
    )


def test_spliced_snapshot_is_byte_identical_at_every_boundary():
    """The same trace with compaction firing every third record per
    shard.  At every record boundary the snapshot body spliced from the
    fragment index equals a from-scratch encode of live state, and the
    log as it stands (snapshot + suffix) recovers byte-identically."""
    nn = ShardedNamenode.journaled(n_shards=4, compact_every=3)
    boundaries = []

    def check(node, op):
        body, index, _spliced = node._snapshot_body()
        assert body == _encode(encode_state(node)), f"splice diverged after {op.name}"
        assert list(index) == list(node.files)
        crashed_here = node.journal.prefix(len(node.journal))
        assert state_digest(JournaledNamenode.recover(crashed_here)) == state_digest(node)
        boundaries.append(op)

    for shard in nn.shards:
        shard.after_append = check
    # Twice the files of the sweep above: the trace rewrites four, the
    # rest only ever get repaired.
    fs, datasets = run_failure_burst(nn, n_files=8)

    assert len(boundaries) >= 80
    stats = [shard.journal.stats() for shard in nn.shards]
    assert sum(s["compactions"] for s in stats) >= 24  # "dozens"
    spliced = sum(s["files_spliced"] for s in stats)
    reencoded = sum(s["files_reencoded"] for s in stats)
    # Most documents ride through compaction untouched; the re-encoded
    # ones are files a record changed without carrying (rename, repair,
    # append / close, the transcode state flips).
    assert spliced > reencoded > 0
    for shard in nn.shards:
        assert len(shard.journal) <= 3
        assert [op for op, _ in shard.journal.records()][0] is Op.SNAPSHOT
        recovered = JournaledNamenode.recover(shard.journal)
        assert state_digest(recovered) == state_digest(shard)
    for name, data in datasets.items():
        assert np.array_equal(fs.read_file(name), data)


def test_all_opcodes_exercised(burst):
    fs, _, _ = burst

    seen = set()
    for shard in fs.namenode.shards:
        for op, _payload in shard.journal.records():
            seen.add(op)
    must_cover = {
        Op.REGISTER, Op.UNREGISTER, Op.PLACE, Op.RELAYOUT, Op.DROP_REPLICAS,
        Op.MINT, Op.ENQUEUE, Op.NEW_STRIPE, Op.FINALIZE,
    }
    missing = must_cover - seen
    assert not missing, f"trace never journaled {sorted(o.name for o in missing)}"
    assert Op.NOTE not in seen  # nothing under src/ notes: every change is an op


def test_injected_crash_loses_only_the_unacked_op():
    """Write-behind: a JournalCrash before record N leaves a journal
    that recovers every acknowledged op and nothing after it."""
    nn = JournaledNamenode(journal=Journal(fail_after=2))
    from repro.dfs.blocks import FileMeta

    def meta(name):
        return FileMeta(
            name=name, size=0, chunk_size=4 * KB,
            scheme=CC69, stripes=[], replica_blocks=[],
        )

    nn.register_file(meta("a"))
    nn.register_file(meta("b"))
    with pytest.raises(JournalCrash):
        nn.register_file(meta("c"))
    # The third op applied in memory (write-behind) but never journaled.
    assert "c" in nn.files
    recovered = JournaledNamenode.recover(nn.journal)
    assert sorted(recovered.files) == ["a", "b"]
    assert state_digest(recovered) != state_digest(nn)


def test_file_backed_journal_survives_torn_tail(tmp_path):
    path = tmp_path / "edits.log"
    nn = JournaledNamenode(journal=Journal(path))
    from repro.dfs.blocks import FileMeta

    for i in range(5):
        nn.register_file(FileMeta(
            name=f"f{i}", size=0, chunk_size=4 * KB,
            scheme=CC69, stripes=[], replica_blocks=[],
        ))
    nn.journal.close()
    # Tear the tail: chop into the last record's payload.
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    reopened = Journal(path)
    assert len(reopened) == 4
    assert path.read_bytes() == raw[: reopened.byte_size]  # disk truncated too
    recovered = JournaledNamenode.recover(reopened)
    assert sorted(recovered.files) == ["f0", "f1", "f2", "f3"]


# -- the data oracle: acknowledged bytes survive a crash at any record ----------

def _bytes(seed, n_chunks, chunk=4 * KB):
    return np.random.default_rng(seed).integers(0, 256, int(n_chunks * chunk), dtype=np.uint8)


def _padded_tail(fs):
    """9 chunks as (6, 6): the second stripe zero-padded and encoded."""
    return fs.write_file("f", _bytes(1, 9), HybridScheme(1, CC69)).size


def _open_tail(fs):
    """(6, 2): a full stripe and an open tail, durable through replicas."""
    fs.write_file("f", _bytes(1, 6), HybridScheme(1, CC69))
    return fs.append_file("f", _bytes(2, 2)).size


#: scenario -> (parity_mode, what leaves the file in its starting state,
#: the op swept, the bytes it acknowledges on return)
LAYOUT_CHANGES = {
    "append onto a padded tail": (
        "async", _padded_tail, lambda fs: fs.append_file("f", _bytes(3, 2)), _bytes(3, 2)),
    "append onto an open tail": (
        "async", _open_tail, lambda fs: fs.append_file("f", _bytes(3, 1.5)), _bytes(3, 1.5)),
    "close": ("async", _open_tail, lambda fs: fs.close_file("f"), _bytes(0, 0)),
    "free transition seal": (
        "none", _padded_tail, lambda fs: fs.transcode("f", CC69), _bytes(0, 0)),
}


def _layout_change_run(scenario, crash_after=None):
    """The scenario on a fresh journaled filesystem, the journal dying
    before the op's record number ``crash_after`` (None: it completes).
    Returns (fs, bytes acknowledged, records the prelude wrote)."""
    parity_mode, prelude, op, added = LAYOUT_CHANGES[scenario]
    nn = JournaledNamenode()
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=5, namenode=nn,
                 parity_mode=parity_mode)
    prelude(fs)
    acknowledged = fs.read_file("f")
    base = len(nn.journal)
    if crash_after is None:
        op(fs)
        return fs, np.concatenate([acknowledged, added]), base
    nn.journal.fail_after = base + crash_after
    with pytest.raises(JournalCrash):
        op(fs)
    return fs, acknowledged, base


def _restarted(fs):
    """The namenode process dies; a new one comes up from the journal as
    it stood and serves the datanodes that survived it."""
    journal = fs.namenode.journal
    fs.restart(JournaledNamenode.recover(journal.prefix(len(journal))))


@pytest.mark.parametrize("scenario", sorted(LAYOUT_CHANGES))
def test_acknowledged_bytes_survive_a_crash_at_every_record_of_a_layout_change(scenario):
    fs, after, base = _layout_change_run(scenario)
    n_records = len(fs.namenode.journal) - base
    assert n_records >= 2 and np.array_equal(fs.read_file("f"), after)
    ops = [op for op, _ in fs.namenode.journal.records()][base:]
    assert ops.count(Op.RELAYOUT) == 1 and Op.NOTE not in ops
    for boundary in range(n_records + 1):
        crashed = boundary < n_records
        fs, acknowledged, base = _layout_change_run(scenario, boundary if crashed else None)
        assert len(fs.namenode.journal) == base + boundary
        # What the crash left stored and unlisted — staged parities and
        # regions, replaced tails — leaves with the block reports.
        _restarted(fs)
        assert audit(fs) == [], f"{scenario}, before record {boundary}"
        assert np.array_equal(fs.read_file("f"), acknowledged), (
            f"{scenario}: acknowledged bytes lost by a crash before record {boundary}")


#: merge -> (the scheme the file starts from, its chunks, future widths,
#: the target)
MERGES = {
    "CC(6,9) -> CC(12,15)": (CC69, 24, [6, 12], CC1215),
    "CC(6,9) -> LRCC(12,2,2)": (CC69, 24, [6, 12], LRCC),
    # a split: each group converts into two final stripes
    "CC(12,15) -> CC(6,9)": (CC1215, 24, [12, 6], CC69),
}


def _merge_run(case, crash_before=None):
    """``case``'s file on a fresh journaled filesystem, its conversion
    dying before record number ``crash_before`` of it (None: it
    completes). Returns (fs, the file's bytes, records before the merge)."""
    start, n_chunks, widths, target = MERGES[case]
    nn = JournaledNamenode()
    fs = MorphFS(chunk_size=4 * KB, future_widths=widths, seed=3, namenode=nn)
    data = _bytes(3, n_chunks)
    fs.write_file("f", data, HybridScheme(1, start))
    fs.transcode("f", start)  # the free transition: the merge starts from EC
    base = len(nn.journal)
    if crash_before is None:
        fs.transcode("f", target)
    else:
        nn.journal.fail_after = base + crash_before
        with pytest.raises(JournalCrash):
            fs.transcode("f", target)
    return fs, data, base


def test_a_merge_journals_its_staged_stripes_and_nothing_else():
    """The 96 KiB CC(6,9) -> CC(12,15) merge: one ENQUEUE, per group the
    ids of its three parities and the stripe that stages them, one
    FINALIZE — no queue to poll, no per-parity bit."""
    fs, _data, base = _merge_run("CC(6,9) -> CC(12,15)")
    ops = [op for op, _ in fs.namenode.journal.records()][base:]
    group = [Op.MINT] * 3 + [Op.NEW_STRIPE]
    assert ops == [Op.ENQUEUE] + group * 2 + [Op.FINALIZE]


@pytest.mark.parametrize("case", sorted(MERGES))
def test_a_restarted_merge_finishes_from_a_crash_at_every_record(case):
    start, _n, _widths, target = MERGES[case]
    fs, _data, base = _merge_run(case)
    n_records = len(fs.namenode.journal) - base
    assert fs.namenode.lookup("f").scheme == target
    for boundary in range(n_records):
        fs, data, base = _merge_run(case, boundary)
        _restarted(fs)
        job = fs.namenode.utm.get("f")
        staged = set() if job is None else {c.chunk_id for c in job.staged_chunks()}
        monitor = HeartbeatMonitor(fs)
        for _ in range(5):
            monitor.tick()
            if not fs.scheduler.has_pending():
                break
        meta = fs.namenode.lookup("f")
        # A crash before ENQUEUE: the merge was never accepted.
        want = start if boundary == 0 else target
        assert (meta.scheme, meta.state) == (want, FileState.HEALTHY), (
            f"{case}: a crash before record {boundary} stranded the merge")
        assert staged <= {c.chunk_id for c in meta.all_chunks()}  # none replaced
        assert np.array_equal(fs.read_file("f"), data), f"{case}, record {boundary}"
        assert audit(fs) == [], f"{case}, before record {boundary}"
