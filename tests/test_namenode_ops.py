"""Typed ops: ``apply`` is the one write path of plain, journaled and
sharded namenodes — a rejected op leaves neither state nor record, and
a journal replays into a plain ``Namenode``."""

from dataclasses import replace
from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import CodeKind, ECScheme
from repro.dfs.audit import audit_namenode
from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta
from repro.dfs.journal import JournaledNamenode, Op, state_digest
from repro.dfs.namenode import (
    ConversionGroup,
    DropReplicas,
    Enqueue,
    Finalize,
    Mint,
    Namenode,
    NewStripe,
    Note,
    Place,
    Register,
    RegisterBatch,
    Relayout,
    Rename,
    TranscodeStateError,
    Unregister,
)
from repro.dfs.shards import ShardedNamenode

CC69 = ECScheme(CodeKind.CC, 6, 9)
N_SHARDS = 4
REJECTED = (ValueError, KeyError, TranscodeStateError)


def striped(name, n_stripes=2, shift=0, tag="s"):
    """A CC(6,9) file: nine chunks per stripe on nine distinct nodes."""
    stripes = [
        ECStripeMeta(
            si, 6, 9,
            [ChunkMeta(f"{name}/{tag}{si}d{j}", f"dn{(shift + si * 9 + j) % 23:02d}",
                       ChunkKind.DATA, 64) for j in range(6)],
            [ChunkMeta(f"{name}/{tag}{si}p{j}", f"dn{(shift + si * 9 + 6 + j) % 23:02d}",
                       ChunkKind.PARITY, 64) for j in range(3)],
        )
        for si in range(n_stripes)
    ]
    return FileMeta(name, 6 * 64 * n_stripes, 64, CC69, stripes=stripes)


def one_stripe_groups(name, n_groups=2):
    """``n_groups`` groups, each re-encoding one stripe into one."""
    return [ConversionGroup(name, g, [g], 1, CC69) for g in range(n_groups)]


def merged_stripe(meta, group_index):
    """The final stripe of a one-stripe group, over the live data chunks."""
    old = meta.stripes[group_index % len(meta.stripes)]
    parities = [ChunkMeta(f"{meta.name}/g{group_index}p{j}", f"dn{19 + j}",
                          ChunkKind.PARITY, 64) for j in range(3)]
    return ECStripeMeta(0, 6, 9, list(old.data), parities)


def sibling(name):
    """Another name on ``name``'s shard."""
    shard = crc32(name.encode()) % N_SHARDS
    return next(n for n in (f"{name}~{i}" for i in range(1000))
                if crc32(n.encode()) % N_SHARDS == shard)


def names_by_shard():
    picked = {}
    i = 0
    while len(picked) < N_SHARDS:
        name = f"file-{i:04d}"
        picked.setdefault(crc32(name.encode()) % N_SHARDS, name)
        i += 1
    return [picked[s] for s in range(N_SHARDS)]


# -- a batch is all or nothing ------------------------------------------------

@pytest.mark.parametrize("make", [Namenode, JournaledNamenode])
def test_batch_with_a_duplicate_inside_registers_nothing(make):
    nn = make()
    with pytest.raises(ValueError, match="file exists: a"):
        nn.register_files([striped("x"), striped("a"), striped("a")])
    assert len(nn.files) == 0 and nn._file_order == {} and nn._node_files == {}
    if make is JournaledNamenode:
        assert len(nn.journal) == 0 and nn._frags == {}
        assert state_digest(JournaledNamenode.recover(nn.journal)) == state_digest(nn)


def test_replayed_batch_is_validated_like_a_live_one():
    plain = Namenode()
    with pytest.raises(ValueError):
        plain.apply(RegisterBatch([striped("a"), striped("a")]))
    assert state_digest(plain) == state_digest(Namenode())


def test_sharded_batch_with_one_taken_name_changes_no_shard():
    nn = ShardedNamenode.journaled(N_SHARDS)
    names = names_by_shard()
    taken = names[-1]  # lives on the last shard: every other bucket is valid
    nn.register_file(striped(taken))
    digests = [state_digest(s) for s in nn.shards]
    records = [len(s.journal) for s in nn.shards]
    batch = [striped(f"{n}-new") for n in names] + [striped(n) for n in names]
    with pytest.raises(ValueError, match=f"file exists: {taken}"):
        nn.register_files(batch)
    assert [state_digest(s) for s in nn.shards] == digests
    assert [len(s.journal) for s in nn.shards] == records
    assert sorted(nn.files) == [taken]
    # ... and a duplicate inside one bucket is caught the same way.
    with pytest.raises(ValueError):
        nn.register_files([striped(names[0]), striped(names[1]), striped(names[1])])
    assert [len(s.journal) for s in nn.shards] == records


# -- a final stripe stages once, inside its job --------------------------------

@pytest.mark.parametrize("make", [Namenode, JournaledNamenode])
def test_new_stripe_rejects_a_stripe_outside_its_job_or_staged_before(make):
    nn = make()
    meta = striped("x")
    nn.register_file(meta)
    job = nn.enqueue_transcode("x", CC69, one_stripe_groups("x"))
    nn.record_new_stripe("x", 1, 0, merged_stripe(meta, 1))
    before = state_digest(nn)
    bad = [
        (0, 1),   # final stripe 1 of a one-stripe group
        (0, -1),
        (2, 0),   # no such group
        (1, 0),   # staged already: a staged parity is never replaced
    ]
    for group_index, final_idx in bad:
        with pytest.raises(TranscodeStateError):
            nn.record_new_stripe("x", group_index, final_idx, merged_stripe(meta, group_index))
    assert list(job.new_stripes) == [(1, 0)] and state_digest(nn) == before
    if make is JournaledNamenode:
        ops = [op for op, _ in nn.journal.records()]
        assert ops == [Op.REGISTER, Op.ENQUEUE, Op.NEW_STRIPE]
    assert job.pending_groups() == one_stripe_groups("x")[:1]
    assert nn.try_finalize("x") is None  # group 0 never staged


# -- the public API, rejected ops included, against the log -------------------

POOL = ["a", "b", "c"]
pool = st.sampled_from(POOL)
steps = st.one_of(
    st.tuples(st.just("register"), pool),
    st.tuples(st.just("batch"), st.lists(pool, max_size=3)),
    st.tuples(st.just("unregister"), pool),
    st.tuples(st.just("rename"), pool, pool),
    st.tuples(st.just("note_chunk"), pool, st.integers(0, 22)),
    st.tuples(st.just("relayout"), pool, st.integers(0, 3), st.integers(0, 2),
              st.booleans()),
    st.tuples(st.just("place"), pool, st.integers(0, 17), st.integers(0, 22)),
    st.tuples(st.just("drop_replicas"), pool),
    st.tuples(st.just("mint"), pool, st.integers(0, 9)),
    st.tuples(st.just("enqueue"), pool),
    st.tuples(st.just("new_stripe"), pool, st.integers(0, 2), st.integers(0, 1)),
    st.tuples(st.just("finalize"), pool),
)


def run_step(nn, step, serial):
    kind, args = step[0], step[1:]
    if kind == "register":
        nn.register_file(striped(args[0], shift=serial))
    elif kind == "batch":
        nn.register_files(striped(name, shift=serial) for name in args[0])
    elif kind == "unregister":
        nn.unregister_file(args[0])
    elif kind == "rename":
        nn.rename(*args)
    elif kind == "note_chunk":
        nn.note_chunk(f"dn{args[1]:02d}", args[0])
    elif kind == "relayout":
        # Keep some stripes (or more than there are: rejected), continue
        # with fresh ones — after, as a seal does, the first dropped
        # stripe re-listed with the chunk objects it had.
        name, keep, n_new, relist = args
        meta = nn.files.get(name)
        tail = striped(name, n_new, shift=serial, tag=f"t{serial}s").stripes
        if relist and meta is not None:
            relisted = meta.stripes[keep:keep + 1]
            tail = [replace(s, parities=s.parities[:2], n=8) for s in relisted] + tail
        dropped = nn.relayout_file(name, keep, tail, [], 6 * 64 * (keep + len(tail)))
        assert not {c.chunk_id for c in dropped} & {c.chunk_id for c in meta.all_chunks()}
    elif kind == "place":
        # A chunk the file lists — or, for an unknown file, one it cannot.
        meta = nn.files.get(args[0])
        chunks = meta.all_chunks() if meta is not None else []
        old = chunks[args[1] % len(chunks)].chunk_id if chunks else "ghost"
        nn.place_chunks(args[0], [(old, f"{args[0]}/moved#{serial}", f"dn{args[2]:02d}")])
    elif kind == "drop_replicas":
        nn.drop_replicas(args[0], CC69)
    elif kind == "mint":
        if args[1] == 0:
            nn.next_chunk_id(args[0])
        else:
            nn.next_chunk_ids(args[0], args[1])
    elif kind == "enqueue":
        nn.enqueue_transcode(args[0], CC69, one_stripe_groups(args[0]))
    elif kind == "new_stripe":
        meta = nn.lookup(args[0])
        if meta.stripes:
            nn.record_new_stripe(args[0], args[1], args[2], merged_stripe(meta, args[1]))
    else:
        nn.try_finalize(args[0])


@pytest.mark.parametrize("compact_every", [0, 4])
@settings(max_examples=60, deadline=None)
@given(sequence=st.lists(steps, max_size=30))
def test_every_public_call_is_zero_or_one_record_and_replays_plain(compact_every, sequence):
    nn = JournaledNamenode(compact_every=compact_every)
    for serial, step in enumerate(sequence):
        stats = nn.journal.stats()
        records = stats["appended_total"] - stats["compactions"]
        digest = state_digest(nn)
        try:
            run_step(nn, step, serial)
        except REJECTED:
            raised = True
        else:
            raised = False
        stats = nn.journal.stats()
        moved = stats["appended_total"] - stats["compactions"] - records
        assert moved in (0, 1), step
        if raised:
            assert moved == 0 and state_digest(nn) == digest, step
        # Nothing journal-specific is needed to replay: a plain namenode
        # and the base-class apply reproduce live state from the records
        # — the derived per-node index included.
        assert audit_namenode(nn) == [], step
    recovered = JournaledNamenode.recover(nn.journal)
    assert state_digest(recovered) == state_digest(nn)
    assert len(recovered.journal) == len(nn.journal)  # replay appended nothing


# -- apply(op) and the public method are the same call ------------------------

def drive(nn, through_apply):
    """Every op type once or more, cross-shard rename included."""
    a, b, c, d = names_by_shard()

    def call(method, op, *args, **kw):
        return nn.apply(op) if through_apply else getattr(nn, method)(*args, **kw)

    meta = striped(a)
    call("register_file", Register(meta), meta)
    batch = [striped(b), striped(c, shift=5)]
    call("register_files", RegisterBatch(list(batch)), batch)
    call("next_chunk_id", Mint(a, 1), a)
    call("next_chunk_ids", Mint(b, 9), b, 9)
    call("rename", Rename(b, d), b, d)                      # across shards
    call("rename", Rename(d, sibling(d)), d, sibling(d))    # within one shard
    call("note_chunk", Note(a), "dn22", a)
    call("note_chunk", Note("ghost"), "dn22", "ghost")
    tail = striped(c, 1, shift=7, tag="t").stripes
    assert len(call("relayout_file", Relayout(c, 1, tail, [], 768), c, 1, tail, [], 768)) == 9
    moves = [(f"{a}/s0d0", f"{a}/recovered#1", "dn21"), (f"{a}/s1p2", f"{a}/recovered#2", "dn22")]
    call("place_chunks", Place(a, moves), a, moves)
    assert call("drop_replicas", DropReplicas(c, CC69), c, CC69) == []
    groups = one_stripe_groups(a)
    call("enqueue_transcode", Enqueue(a, CC69, groups, 7.5), a, CC69, groups,
         deadline=7.5)
    groups_c = one_stripe_groups(c)
    call("enqueue_transcode", Enqueue(c, CC69, groups_c, None), c, CC69, groups_c)
    for g in (0, 1):
        stripe = merged_stripe(meta, g)
        call("record_new_stripe", NewStripe(a, g, 0, stripe), a, g, 0, stripe)
    assert call("try_finalize", Finalize(c), c) is None     # pending: no record
    assert call("try_finalize", Finalize(a), a) is not None
    assert call("unregister_file", Unregister(c), c).name == c  # drops c's job


def test_sharded_apply_and_public_methods_write_the_same_journals():
    by_method = ShardedNamenode.journaled(N_SHARDS)
    by_op = ShardedNamenode.journaled(N_SHARDS)
    drive(by_method, through_apply=False)
    drive(by_op, through_apply=True)
    assert [s.journal.data for s in by_op.shards] == [s.journal.data for s in by_method.shards]
    assert [state_digest(s) for s in by_op.shards] == [state_digest(s) for s in by_method.shards]
    seen = {op for s in by_method.shards for op, _ in s.journal.records()}
    assert seen == set(Op) - {Op.SNAPSHOT}
    assert audit_namenode(by_method) == []
