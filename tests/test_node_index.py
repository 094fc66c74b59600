"""The per-node chunk index is exact, and only op handlers write it.

``chunks_on_node`` used to re-walk candidate files and purge stale names
as it went, which hid every path that forgot to say a chunk had left a
node.  These are the cases that purge hid: after each, the index must
already equal a full namespace scan, with no query in between to heal
it — on the live namenode and on one replayed from the journal.
"""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS, Namenode, ShardedNamenode
from repro.dfs.audit import audit_namenode, full_scan
from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta, ReplicaBlockMeta
from repro.dfs.journal import JournaledNamenode, Op, replay, state_digest
from repro.dfs.namenode import TranscodeStateError
from repro.dfs.recovery import RecoveryManager

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
HY = HybridScheme(1, CC69)


def listed(namenode, name):
    """Nodes whose index lists ``name``, over every shard."""
    return {
        node_id
        for shard in getattr(namenode, "shards", [namenode])
        for node_id, index in shard._node_files.items()
        if name in index
    }


def homes(meta):
    return {c.node_id for c in meta.all_chunks()}


def replayed(journaled):
    """The journal into a plain namenode, digest-checked."""
    plain = Namenode()
    replay(plain, journaled.journal.records())
    assert state_digest(plain) == state_digest(journaled)
    return plain


def hybrid_fs(namenode=None, n_kb=48, **kw):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=3, namenode=namenode, **kw)
    data = np.random.default_rng(3).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HY)
    return fs, data


def tiny(name, nodes, copies=()):
    """One CC(2,3) stripe on ``nodes``, plus a replica block on ``copies``."""
    kinds = [ChunkKind.DATA, ChunkKind.DATA, ChunkKind.PARITY]
    chunks = [ChunkMeta(f"{name}/c{i}", node, kinds[i], 64) for i, node in enumerate(nodes)]
    blocks = [ReplicaBlockMeta(0, 0, 2, [
        ChunkMeta(f"{name}/r{i}", node, ChunkKind.REPLICA, 128) for i, node in enumerate(copies)
    ])] if copies else []
    return FileMeta(name, 128, 64, ECScheme(CodeKind.CC, 2, 3),
                    stripes=[ECStripeMeta(0, 2, 3, chunks[:2], chunks[2:])],
                    replica_blocks=blocks)


# -- the handlers, on hand-built metadata -------------------------------------

def test_a_lone_chunk_is_stored_bare_and_several_as_a_list_in_layout_order():
    nn = Namenode()
    meta = tiny("f", ["a", "b", "a"], copies=["a", "c"])
    nn.register_file(meta)
    d0, d1, p0 = meta.stripes[0].data + meta.stripes[0].parities
    r0, r1 = meta.replica_blocks[0].copies
    assert nn._node_files["b"]["f"] is d1
    assert nn._node_files["a"]["f"] == [d0, p0, r0]
    assert nn.chunks_on_node("a") == [(meta, d0), (meta, p0), (meta, r0)]
    assert nn.chunks_on_node("nowhere") == []
    assert audit_namenode(nn) == []
    # Dropping the replicas takes r0 out of the middle of nothing: the
    # entry shrinks, and collapses back to a bare chunk at one.
    assert nn.drop_replicas("f", ECScheme(CodeKind.CC, 2, 3)) == [r0, r1]
    assert nn._node_files["a"]["f"] == [d0, p0] and "f" not in nn._node_files["c"]
    nn.place_chunks("f", [("f/c2", "f/c2'", "c")])
    assert nn._node_files["a"]["f"] is d0 and nn._node_files["c"]["f"] is p0
    assert audit_namenode(nn) == []


def test_place_rewrites_the_live_chunk_and_moves_its_entry():
    nn = Namenode()
    a, b = tiny("a", ["x", "y", "z"]), tiny("b", ["x", "y", "z"])
    nn.register_file(a)
    nn.register_file(b)
    chunk = a.stripes[0].data[0]
    nn.place_chunks("a", [("a/c0", "a/recovered#1", "w")])
    assert a.stripes[0].data[0] is chunk  # identity kept
    assert (chunk.chunk_id, chunk.node_id) == ("a/recovered#1", "w")
    assert listed(nn, "a") == {"w", "y", "z"} and listed(nn, "b") == {"x", "y", "z"}
    assert nn.chunks_on_node("w") == [(a, chunk)]
    assert audit_namenode(nn) == []
    # Onto a node the file already uses: the entry is in layout order,
    # whichever chunk arrived last.
    nn.place_chunks("a", [("a/c2", "a/recovered#2", "w")])
    assert nn._node_files["w"]["a"] == [chunk, a.stripes[0].parities[0]]
    nn.place_chunks("a", [("a/recovered#1", "a/recovered#3", "z")])
    assert nn._node_files["w"]["a"] is a.stripes[0].parities[0]
    assert audit_namenode(nn) == []


@pytest.mark.parametrize("make", [Namenode, JournaledNamenode])
def test_place_of_an_unlisted_chunk_is_rejected_whole(make):
    nn = make()
    nn.register_file(tiny("a", ["x", "y", "z"]))
    before = state_digest(nn)
    with pytest.raises(KeyError, match="ghost"):
        nn.place_chunks("a", [("a/c0", "a/new", "w"), ("ghost", "a/new2", "w")])
    with pytest.raises(KeyError):
        nn.place_chunks("nobody", [("a/c0", "a/new", "w")])
    assert state_digest(nn) == before and listed(nn, "a") == {"x", "y", "z"}
    if make is JournaledNamenode:
        assert [op for op, _ in nn.journal.records()] == [Op.REGISTER]
    assert audit_namenode(nn) == []


@pytest.mark.parametrize("make", [Namenode, JournaledNamenode])
def test_a_relayout_swaps_the_tail_and_its_entries(make):
    """The file keeps ``keep`` stripes and the blocks under them; what
    the new tail re-lists keeps its identity and its entry, what it does
    not is returned to the caller and leaves the index."""
    nn = make()
    a = tiny("a", ["x", "y", "z"], copies=["u", "v"])
    two = tiny("a2", ["p", "q", "r"], copies=["s"])
    two.stripes[0].stripe_index, two.replica_blocks[0].first_chunk = 1, 2
    a.stripes += two.stripes
    a.replica_blocks += two.replica_blocks
    nn.register_files([a, tiny("b", ["x", "y", "z"])])
    head, old = a.stripes
    head_block, old_block = a.replica_blocks
    # A seal: stripe 1 re-listed without its parity, its block trimmed to
    # nothing, one stripe more.
    sealed = ECStripeMeta(1, 2, 2, old.data, [])
    more = tiny("a3", ["y", "w", "y"]).stripes[0]
    dropped = nn.relayout_file("a", 1, [sealed, more], [ReplicaBlockMeta(1, 2, 2, [])], 384)
    assert dropped == old.parities + old_block.copies
    assert a.stripes == [head, sealed, more] and a.stripes[0] is head and a.size == 384
    assert a.replica_blocks[0] is head_block and sealed.data[0] is old.data[0]
    assert listed(nn, "a") == {"x", "y", "z", "u", "v", "p", "q", "w"}
    assert nn._node_files["p"]["a"] is old.data[0]
    assert nn._node_files["y"]["a"] == [head.data[1], more.data[0], more.parities[0]]
    assert listed(nn, "b") == {"x", "y", "z"}
    assert audit_namenode(nn) == []
    # Rejected whole: more stripes kept than there are, an unknown file,
    # a file mid-transcode.
    before = state_digest(nn)
    with pytest.raises(ValueError):
        nn.relayout_file("a", 4, [], [], 0)
    with pytest.raises(KeyError):
        nn.relayout_file("ghost", 0, [], [], 0)
    nn.enqueue_transcode("b", CC69, [], 3)
    with pytest.raises(TranscodeStateError):
        nn.relayout_file("b", 0, [], [], 0)
    nn.abort_transcode("b")
    assert nn.relayout_file("a", 3, [], [], 384) == []  # keeps everything
    assert audit_namenode(nn) == []
    if make is JournaledNamenode:
        assert [op for op, _ in nn.journal.records()].count(Op.RELAYOUT) == 2
    else:
        assert state_digest(nn) == before


def test_a_note_changes_nothing():
    """``note_chunk`` is the benchmark harness's shim: the index comes
    out as the metadata says — as it was — and the node argument is not
    what decides."""
    nn = Namenode()
    nn.register_files([tiny("a", ["x", "y", "z"]), tiny("b", ["x", "y", "z"])])
    before = state_digest(nn)
    nn.note_chunk("nowhere", "a")
    assert listed(nn, "a") == {"x", "y", "z"} and "nowhere" not in nn._node_files
    nn.note_chunk("x", "ghost")                  # not registered: nothing at all
    assert state_digest(nn) == before
    assert audit_namenode(nn) == []


def test_unregister_rename_and_reregister_leave_nothing_behind():
    nn = Namenode()
    nn.register_files([tiny("a", ["x", "y", "z"]), tiny("b", ["x", "y", "z"])])
    nn.unregister_file("a")
    assert listed(nn, "a") == set()
    nn.rename("b", "c")
    assert listed(nn, "b") == set() and listed(nn, "c") == {"x", "y", "z"}
    nn.register_file(tiny("a", ["p", "q", "r"]))  # the name, elsewhere
    assert listed(nn, "a") == {"p", "q", "r"}
    assert audit_namenode(nn) == []


def test_load_rebuilds_the_index():
    nn = Namenode()
    nn.register_files([tiny("a", ["x", "y", "x"]), tiny("b", ["x", "y", "z"])])
    nn.place_chunks("b", [("b/c0", "b/m", "q")])
    restored = Namenode.restore(nn.snapshot())
    assert audit_namenode(restored) == []
    assert [(m.name, c.chunk_id) for m, c in restored.chunks_on_node("x")] == [
        ("a", "a/c0"), ("a", "a/c2"),
    ]


# -- the data plane: every path that used to leave a name behind --------------

def test_a_write_that_raises_before_registering_leaves_no_entry():
    fs, _data = hybrid_fs()

    def failing(*args, **kw):
        raise RuntimeError("disk on fire")

    for datanode in fs.datanodes.values():
        datanode.receive_to_disk = failing  # replicas land in memory first
    with pytest.raises(RuntimeError):
        fs.write_file("g", np.zeros(48 * KB, np.uint8), HY)
    assert "g" not in fs.namenode.files and listed(fs.namenode, "g") == set()
    assert audit_namenode(fs.namenode) == []


def test_delete_and_free_leave_no_entry_on_the_old_nodes():
    fs, data = hybrid_fs()
    meta = fs.namenode.lookup("f")
    replica_nodes = {c.node_id for b in meta.replica_blocks for c in b.copies}
    stripe_nodes = {c.node_id for s in meta.stripes for c in s.all_chunks()}
    assert replica_nodes - stripe_nodes  # the free transition vacates these
    fs.transcode("f", CC69)
    assert listed(fs.namenode, "f") == stripe_nodes
    assert audit_namenode(fs.namenode) == []
    fs.delete_file("f")
    assert listed(fs.namenode, "f") == set()
    assert audit_namenode(fs.namenode) == []


def test_cross_shard_rename_leaves_no_entry_on_the_source_shard():
    nn = ShardedNamenode(4)
    fs, data = hybrid_fs(namenode=nn)
    new = next(n for n in (f"g{i}" for i in range(100))
               if nn.shard_index(n) != nn.shard_index("f"))
    src, dst = nn.shard_for("f"), nn.shard_for(new)
    fs.namenode.rename("f", new)
    assert src._node_files and not any(src._node_files.values())
    assert listed(dst, new) == homes(nn.lookup(new)) and listed(nn, "f") == set()
    assert audit_namenode(nn) == []
    assert np.array_equal(fs.read_file(new), data)


def test_merge_finalize_swaps_the_parities_entries():
    fs, data = hybrid_fs()
    fs.transcode("f", CC69)
    old_parity_nodes = {p.node_id for s in fs.namenode.lookup("f").stripes for p in s.parities}
    fs.transcode("f", CC1215)
    meta = fs.namenode.lookup("f")
    assert listed(fs.namenode, "f") == homes(meta)
    assert len(meta.stripes) == 1 and len(old_parity_nodes) >= len(meta.stripes[0].parities)
    assert audit_namenode(fs.namenode) == []


def test_collision_relocation_moves_the_entry_with_the_chunk():
    """Placement that is not k*-aware puts two data chunks of the merged
    stripe on one node (a list entry); the merge moves one away."""
    nn = JournaledNamenode()
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6], seed=3, namenode=nn)
    data = np.random.default_rng(3).integers(0, 256, 48 * KB, dtype=np.uint8)
    fs.write_file("f", data, CC69)
    doubled = [n for n, index in nn._node_files.items() if type(index.get("f")) is list]
    assert doubled
    assert audit_namenode(nn) == []
    before = len(nn.journal)
    fs.transcode("f", CC1215)
    assert Op.PLACE in [op for op, _ in nn.journal.records()][before:]
    assert Op.NOTE not in [op for op, _ in nn.journal.records()]
    meta = nn.lookup("f")
    assert len(homes(meta)) == 15 and listed(nn, "f") == homes(meta)
    assert audit_namenode(nn) == []
    assert np.array_equal(fs.read_file("f"), data)


def test_a_two_chunk_stripe_repair_vacates_both_old_nodes():
    nn = JournaledNamenode()
    fs, data = hybrid_fs(namenode=nn)
    fs.transcode("f", CC69)
    stripe = nn.lookup("f").stripes[0]
    victims = [stripe.data[3].node_id, stripe.parities[1].node_id]
    for node_id in victims:
        fs.cluster.fail_node(node_id)
    lost = RecoveryManager(fs).lost_chunks()
    assert len(lost) >= 2
    before = len(nn.journal)
    assert RecoveryManager(fs).recover_chunks(lost) == len(lost)
    records = list(nn.journal.records())[before:]
    places = [body for op, body in records if op is Op.PLACE]
    assert sum(len(body["m"]) for body in places) == len(lost)
    assert max(len(body["m"]) for body in places) >= 2  # one PLACE, two chunks
    for node_id in victims:
        assert nn.chunks_on_node(node_id) == [] and not nn._node_files[node_id]
    assert RecoveryManager(fs).lost_chunks() == []
    assert audit_namenode(nn) == []
    assert np.array_equal(fs.read_file("f"), data)


def test_a_repair_mid_transcode_shows_through_old_and_new_stripes():
    """The moved chunk is one object, shared by the file's old stripe and
    the UTM job's accumulating new one — live, and after replay."""
    nn = JournaledNamenode()
    fs, data = hybrid_fs(namenode=nn, n_kb=96)
    fs.transcode("f", CC69)
    fs.transcode("f", CC1215, heartbeats=False)
    fs.transcoder.execute_group(nn.poll_work_for("f", 1)[0])  # one of two groups
    job = nn.utm["f"]
    new_stripe, = job.new_stripes.values()
    victim = new_stripe.data[7]
    assert victim is nn.lookup("f").stripes[1].data[1]
    old_id, old_node = victim.chunk_id, victim.node_id
    fs.cluster.fail_node(old_node)
    RecoveryManager(fs).recover_all()
    assert victim.node_id != old_node and victim.chunk_id != old_id
    assert nn.chunks_on_node(old_node) == []
    assert (nn.lookup("f"), victim) in nn.chunks_on_node(victim.node_id)
    assert audit_namenode(nn) == []

    plain = replayed(nn)
    twin = plain.lookup("f").stripes[1].data[1]
    assert (twin.chunk_id, twin.node_id) == (victim.chunk_id, victim.node_id)
    new_twin, = plain.utm["f"].new_stripes.values()
    assert new_twin.data[7] is twin
    assert plain.chunks_on_node(old_node) == []
    assert audit_namenode(plain) == []

    # The transcode finishes on the repaired layout, and the switch
    # leaves the index on the new stripes.
    fs.cluster.recover_node(old_node)
    fs.run_transcode_heartbeats("f")
    assert nn.lookup("f").scheme == CC1215
    assert audit_namenode(nn) == []
    assert np.array_equal(fs.read_file("f"), data)


def test_append_close_and_seal_publish_between_records():
    """The structural paths publish through one op each: at every record
    they write, the registered file — and so the index — is whole."""
    nn = JournaledNamenode()

    def whole(node, _op):
        assert audit_namenode(node) == []

    nn.after_append = whole
    fs, data = hybrid_fs(namenode=nn, n_kb=40, parity_mode="none")
    extra = np.arange(10 * KB, dtype=np.uint8)
    fs.append_file("f", extra)
    fs.close_file("f")
    unsealed = [s for s in nn.lookup("f").stripes if not s.parities]
    assert unsealed  # written with parity_mode="none", not re-written by the append
    before = len(nn.journal)
    fs.transcode("f", CC69)  # seals them, then frees
    ops = [op for op, _ in nn.journal.records()]
    assert Op.NOTE not in ops and ops.count(Op.RELAYOUT) == 3  # append, close, seal
    assert ops[before:].count(Op.RELAYOUT) == 1 and len(unsealed) > 1  # one for all
    assert ops[-2:] == [Op.RELAYOUT, Op.DROP_REPLICAS]
    assert audit_namenode(nn) == []
    assert np.array_equal(fs.read_file("f"), np.concatenate([data, extra]))


def test_full_scan_oracle_is_the_old_answer():
    nn = Namenode()
    nn.register_files([tiny("a", ["x", "y", "z"]), tiny("b", ["z", "x", "y"])])
    assert [(m.name, c.chunk_id) for m, c in full_scan(nn, "x")] == [
        ("a", "a/c0"), ("b", "b/c1"),
    ]
