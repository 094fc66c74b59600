"""ShardedNamenode: routing, facade equivalence and deterministic merges."""

from zlib import crc32

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme
from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta, FileState
from repro.dfs.namenode import ConversionGroup, FileNotFoundError_, Namenode
from repro.dfs.shards import ShardedNamenode
from repro.dfs.journal import encode_file, state_digest

N_SHARDS = 4


def make_meta(name, n_stripes=2, k=3, r=1, node_base=0):
    meta = FileMeta(name=name, size=n_stripes * k * 64, chunk_size=64,
                    scheme=ECScheme(CodeKind.CC, k, k + r))
    for s in range(n_stripes):
        stripe = ECStripeMeta(stripe_index=s, k=k, n=k + r)
        for t in range(k):
            stripe.data.append(ChunkMeta(
                f"{name}/s{s}d{t}", f"dn{(node_base + t) % 8:03d}",
                ChunkKind.DATA, 64))
        for j in range(r):
            stripe.parities.append(ChunkMeta(
                f"{name}/s{s}p{j}", f"dn{(node_base + k + j) % 8:03d}",
                ChunkKind.PARITY, 64))
        meta.stripes.append(stripe)
    return meta


def names_on_distinct_shards():
    """One file name per shard, discovered by routing, so tests exercise
    cross-shard paths regardless of crc32 details."""
    picked = {}
    i = 0
    while len(picked) < N_SHARDS:
        name = f"file-{i:04d}"
        picked.setdefault(crc32(name.encode()) % N_SHARDS, name)
        i += 1
    return [picked[s] for s in range(N_SHARDS)]


def test_routing_is_deterministic_and_total():
    nn = ShardedNamenode(N_SHARDS)
    for i in range(100):
        name = f"f{i}"
        si = nn.shard_index(name)
        assert 0 <= si < N_SHARDS
        assert si == crc32(name.encode()) % N_SHARDS
        assert nn.shard_for(name) is nn.shards[si]


def test_facade_matches_single_namenode():
    """Same op sequence against one Namenode and the sharded facade:
    namespace contents, lookups and node-major results agree (the
    sharded chunks_on_node is a shard-order concat, so compare sets)."""
    single, sharded = Namenode(), ShardedNamenode(N_SHARDS)
    metas = [make_meta(f"f{i:03d}", node_base=i) for i in range(24)]
    for target in (single, sharded):
        target.register_files([make_meta(f"f{i:03d}", node_base=i)
                               for i in range(12)])
        for i in range(12, 24):
            target.register_file(make_meta(f"f{i:03d}", node_base=i))
    assert sorted(single.files) == sorted(sharded.files)
    assert len(sharded.files) == len(single.files) == 24
    for meta in metas:
        assert encode_file(sharded.lookup(meta.name)) == encode_file(
            single.lookup(meta.name)
        )
    for node in {c.node_id for m in metas for c in m.all_chunks()}:
        got = {(m.name, c.chunk_id) for m, c in sharded.chunks_on_node(node)}
        want = {(m.name, c.chunk_id) for m, c in single.chunks_on_node(node)}
        assert got == want
    single.unregister_file("f003")
    sharded.unregister_file("f003")
    assert sorted(single.files) == sorted(sharded.files)
    with pytest.raises(FileNotFoundError_):
        sharded.lookup("f003")


def test_cross_shard_rename_moves_the_meta():
    nn = ShardedNamenode(N_SHARDS)
    a, b, *_ = names_on_distinct_shards()
    assert nn.shard_index(a) != nn.shard_index(b)
    meta = make_meta(a)
    nn.register_file(meta)
    nn.rename(a, b)
    assert nn.lookup(b) is meta
    assert meta.name == b
    assert a not in nn.files
    assert b in nn.shards[nn.shard_index(b)].files
    # Rename onto an occupied name fails cleanly, original stays put.
    nn.register_file(make_meta(a))
    with pytest.raises(ValueError):
        nn.rename(a, b)
    assert nn.lookup(a).name == a


def _two_names_on_one_shard():
    first = names_on_distinct_shards()[0]
    shard = crc32(first.encode()) % N_SHARDS
    second = next(
        name for name in (f"other-{i:04d}" for i in range(1000))
        if crc32(name.encode()) % N_SHARDS == shard
    )
    return first, second


@pytest.mark.parametrize("same_shard", [True, False])
def test_rename_onto_existing_name_keeps_both_files_and_both_journals(same_shard):
    """Regression (data loss + journal divergence): a refused rename
    must leave the namespace and every shard journal exactly as they
    were, whether or not the two names share a shard."""
    if same_shard:
        a, b = _two_names_on_one_shard()
    else:
        a, b, *_ = names_on_distinct_shards()
    nn = ShardedNamenode.journaled(N_SHARDS)
    assert (nn.shard_index(a) == nn.shard_index(b)) is same_shard
    meta_a, meta_b = make_meta(a), make_meta(b, node_base=3)
    nn.register_file(meta_a)
    nn.register_file(meta_b)
    digests = [state_digest(s) for s in nn.shards]
    records = [len(s.journal) for s in nn.shards]
    with pytest.raises(ValueError, match="file exists"):
        nn.rename(a, b)
    assert nn.lookup(a) is meta_a and meta_a.name == a
    assert nn.lookup(b) is meta_b
    assert [state_digest(s) for s in nn.shards] == digests
    assert [len(s.journal) for s in nn.shards] == records
    recovered = ShardedNamenode.recover([s.journal for s in nn.shards])
    assert [state_digest(s) for s in recovered.shards] == digests
    with pytest.raises(KeyError):
        nn.rename("ghost", "nowhere")
    assert [len(s.journal) for s in nn.shards] == records


def test_cross_shard_rename_mid_transcode_journals_the_state_it_leaves():
    """The job and its staged stripes follow the file to the destination
    shard, as on a same-shard rename, and every shard's journal replays
    to the live state."""
    a, b, *_ = names_on_distinct_shards()
    nn = ShardedNamenode.journaled(N_SHARDS)
    meta = make_meta(a)
    nn.register_file(meta)
    target = ECScheme(CodeKind.CC, 6, 7)
    group = ConversionGroup(a, 0, [0, 1], 1, target)
    nn.enqueue_transcode(a, target, [group], deadline=5.0)
    staged = ECStripeMeta(stripe_index=0, k=6, n=7)
    staged.data = [c for s in meta.stripes for c in s.data]
    staged.parities = [ChunkMeta(f"{a}/m0p0", "dn007", ChunkKind.PARITY, 64)]
    nn.record_new_stripe(a, 0, 0, staged)
    nn.rename(a, b)
    assert nn.lookup(b).state is FileState.TRANSCODING
    assert list(nn.utm) == [b]
    job = nn.utm[b]
    assert job.file_name == b and job.deadline == 5.0
    assert [g.file_name for g in job.groups] == [b]
    assert job.new_stripes == {(0, 0): staged}
    assert a not in nn.shard_for(a).utm
    recovered = ShardedNamenode.recover([s.journal for s in nn.shards])
    for live, back in zip(nn.shards, recovered.shards):
        assert state_digest(back) == state_digest(live)


def test_cross_shard_rename_mid_transcode_finishes_under_the_new_name():
    """A scheduled CC(6,9) -> CC(12,15) merge one heartbeat in (one
    final stripe staged under an 8 KiB disk budget), renamed to another
    shard: heartbeats finish it under the new name, every byte reads
    back and nothing is stored for no file."""
    from repro.dfs import MorphFS
    from repro.dfs.audit import audit
    from repro.dfs.heartbeat import HeartbeatMonitor
    from repro.sched.scheduler import MaintenanceScheduler, SchedulerPolicy

    kb = 1024
    nn = ShardedNamenode.journaled(N_SHARDS)
    fs = MorphFS(chunk_size=4 * kb, future_widths=[6, 12], namenode=nn)
    fs.scheduler = MaintenanceScheduler(fs, SchedulerPolicy(disk_bytes_per_tick=8 * kb))
    data = np.random.default_rng(7).integers(0, 256, 96 * kb, dtype=np.uint8)
    fs.write_file("f", data, ECScheme(CodeKind.CC, 6, 9))
    fs.schedule_transcode("f", ECScheme(CodeKind.CC, 12, 15))
    monitor = HeartbeatMonitor(fs)
    monitor.tick()
    assert len(nn.utm["f"].new_stripes) == 1
    new = next(n for n in (f"g{i}" for i in range(100))
               if nn.shard_index(n) != nn.shard_index("f"))
    nn.rename("f", new)
    assert list(nn.utm) == [new] and len(nn.utm[new].new_stripes) == 1
    assert audit(fs) == []
    for _ in range(10):
        monitor.tick()
        if new not in nn.utm:
            break
    assert new not in nn.utm
    assert nn.lookup(new).scheme == ECScheme(CodeKind.CC, 12, 15)
    assert np.array_equal(fs.read_file(new), data)
    assert audit(fs) == []
    recovered = ShardedNamenode.recover([s.journal for s in nn.shards])
    for live, back in zip(nn.shards, recovered.shards):
        assert state_digest(back) == state_digest(live)


def test_same_shard_rename_delegates():
    nn = ShardedNamenode(1)
    nn.register_file(make_meta("x"))
    nn.rename("x", "y")
    assert "y" in nn.files and "x" not in nn.files


def test_chunk_ids_never_collide_across_shards():
    nn = ShardedNamenode(N_SHARDS)
    minted = set()
    for name in names_on_distinct_shards():
        for cid in nn.next_chunk_ids(f"{name}/s0d", 5):
            assert cid not in minted
            minted.add(cid)
        cid = nn.next_chunk_id(f"{name}/p")
        assert cid not in minted
        minted.add(cid)
    assert len(minted) == N_SHARDS * 6


def test_file_order_keys_compare_globally():
    nn = ShardedNamenode(N_SHARDS)
    names = [f"f{i:03d}" for i in range(16)]
    for name in names:
        nn.register_file(make_meta(name))
    keys = [nn._file_order[name] for name in names]
    assert len(set(keys)) == len(keys)
    assert all(name in nn._file_order for name in names)
    assert nn._file_order.get("ghost") is None
    # Per-shard relative order is preserved under the global sort.
    by_key = [name for _, name in sorted(zip(keys, names))]
    for si in range(N_SHARDS):
        mine = [n for n in names if nn.shard_index(n) == si]
        assert [n for n in by_key if nn.shard_index(n) == si] == mine


def test_transcode_jobs_live_on_their_files_shards():
    nn = ShardedNamenode(N_SHARDS)
    target = ECScheme(CodeKind.CC, 6, 8)
    names = names_on_distinct_shards()
    for name in names:
        meta = make_meta(name)
        nn.register_file(meta)
        gs = [ConversionGroup(file_name=name, group_index=0,
                              initial_stripe_indices=[0, 1],
                              n_final_stripes=1, target_scheme=target)]
        nn.enqueue_transcode(name, target, gs)
    # The utm view chains the shards in order; each job is its shard's.
    assert list(nn.utm) == names
    for si, name in enumerate(names):
        assert list(nn.shards[si].utm) == [name]
        assert [g.file_name for g in nn.utm[name].pending_groups()] == [name]


def test_transcode_lifecycle_through_facade():
    nn = ShardedNamenode(N_SHARDS)
    name = "job-file"
    meta = make_meta(name, n_stripes=2, k=3, r=1)
    nn.register_file(meta)
    target = ECScheme(CodeKind.CC, 6, 8)
    gs = [ConversionGroup(file_name=name, group_index=0,
                          initial_stripe_indices=[0, 1],
                          n_final_stripes=1, target_scheme=target)]
    nn.enqueue_transcode(name, target, gs)
    assert name in nn.utm
    stripe = ECStripeMeta(stripe_index=0, k=6, n=8)
    for t in range(6):
        stripe.data.append(ChunkMeta(f"n/d{t}", "dn000", ChunkKind.DATA, 64))
    for j in range(2):
        stripe.parities.append(ChunkMeta(f"n/p{j}", "dn001", ChunkKind.PARITY, 64))
    assert nn.try_finalize(name) is None
    nn.record_new_stripe(name, 0, 0, stripe)
    old = nn.try_finalize(name)
    assert old is not None
    assert nn.lookup(name).scheme == target
    assert name not in nn.utm


def test_recover_roundtrip():
    nn = ShardedNamenode.journaled(N_SHARDS)
    for i in range(10):
        nn.register_file(make_meta(f"f{i:03d}", node_base=i))
    back = ShardedNamenode.recover([s.journal for s in nn.shards])
    assert back.n_shards == N_SHARDS
    for si in range(N_SHARDS):
        assert state_digest(back.shards[si]) == state_digest(nn.shards[si])


def test_metadata_stats_aggregates_shards():
    nn = ShardedNamenode.journaled(N_SHARDS)
    for i in range(8):
        nn.register_file(make_meta(f"f{i:03d}"))
    stats = nn.metadata_stats()
    assert stats["files"] == 8
    assert stats["chunks"] == 8 * 2 * 4
    assert len(stats["shards"]) == N_SHARDS
    assert stats["files"] == sum(s["files"] for s in stats["shards"])
    assert stats["journal_records"] == sum(
        s["journal_records"] for s in stats["shards"]
    )
    assert stats["journal_records"] >= 8


def test_views_behave_like_mappings():
    nn = ShardedNamenode(N_SHARDS)
    names = [f"f{i:03d}" for i in range(6)]
    for name in names:
        nn.register_file(make_meta(name))
    assert set(nn.files) == set(names)
    assert len(nn.files) == 6
    assert "f000" in nn.files
    assert nn.files.get("ghost") is None
    assert sorted(m.name for m in nn.files.values()) == names
    assert len(nn.utm) == 0
