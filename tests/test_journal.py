"""Journal record codec, log mechanics and snapshot compaction.

One record encoder: every body re-encodes to itself, in marshal version
2 only, and the state document's sha256 is pinned."""

import hashlib
import struct
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs.blocks import (
    ChunkKind,
    ChunkMeta,
    ECStripeMeta,
    FileMeta,
    FileState,
    ReplicaBlockMeta,
)
from repro.dfs.journal import (
    RECORD_VERSION,
    Journal,
    JournalCrash,
    JournalError,
    JournaledNamenode,
    Op,
    _encode,
    decode_file,
    decode_job,
    decode_scheme,
    encode_file,
    encode_job,
    encode_scheme,
    encode_state,
    load_state,
    replay,
    state_digest,
)
from repro.dfs.namenode import ConversionGroup, Namenode, TranscodeJob

# -- strategies ---------------------------------------------------------------

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12,
)
mds_schemes = st.builds(
    lambda kind, k, r: ECScheme(kind, k, k + r),
    kind=st.sampled_from([CodeKind.RS, CodeKind.CC]),
    k=st.integers(1, 12), r=st.integers(1, 4),
)
lrc_schemes = st.builds(
    lambda kind, k, lg, rg: ECScheme(kind, k, k + lg + rg,
                                     local_groups=lg, r_global=rg),
    kind=st.sampled_from([CodeKind.LRC, CodeKind.LRCC]),
    k=st.integers(2, 12), lg=st.integers(1, 3), rg=st.integers(1, 3),
)
bwo_schemes = st.builds(
    lambda k, r, extra: ECScheme(CodeKind.CC, k, k + r,
                                 anticipate_parities=r + extra),
    k=st.integers(1, 12), r=st.integers(1, 3), extra=st.integers(1, 3),
)
ec_schemes = st.one_of(mds_schemes, lrc_schemes, bwo_schemes)
schemes = st.one_of(
    ec_schemes,
    st.builds(Replication, copies=st.integers(1, 3)),
    st.builds(HybridScheme, copies=st.integers(1, 3), ec=ec_schemes),
)
chunks = st.builds(
    ChunkMeta,
    chunk_id=names, node_id=names,
    kind=st.sampled_from(list(ChunkKind)), size=st.integers(0, 1 << 20),
)
stripes = st.builds(
    lambda i, data, parities: ECStripeMeta(
        stripe_index=i, k=len(data), n=len(data) + len(parities),
        data=data, parities=parities,
    ),
    i=st.integers(0, 7),
    data=st.lists(chunks, min_size=1, max_size=4),
    parities=st.lists(chunks, max_size=3),
)
blocks = st.builds(
    ReplicaBlockMeta,
    block_index=st.integers(0, 7), first_chunk=st.integers(0, 64),
    n_chunks=st.integers(1, 8), copies=st.lists(chunks, max_size=3),
)
file_metas = st.builds(
    FileMeta,
    name=names, size=st.integers(0, 1 << 30), chunk_size=st.integers(1, 1 << 16),
    scheme=schemes,
    stripes=st.lists(stripes, max_size=3),
    replica_blocks=st.lists(blocks, max_size=2),
    state=st.sampled_from(list(FileState)),
    version=st.integers(0, 9),
)
groups = st.builds(
    ConversionGroup,
    file_name=names, group_index=st.integers(0, 7),
    initial_stripe_indices=st.lists(st.integers(0, 15), max_size=4),
    n_final_stripes=st.integers(1, 4), target_scheme=schemes,
)
jobs = st.builds(
    TranscodeJob,
    file_name=names, target_scheme=schemes,
    groups=st.lists(groups, max_size=3),
    new_stripes=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), stripes, max_size=3
    ),
    deadline=st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False)
    ),
)


# -- codec round-trips --------------------------------------------------------

def _through_the_log(doc):
    """What a reader gets: the document after one trip through the
    journal's own encoder and its own record reader."""
    journal = Journal()
    journal.append(Op.NOTE, {"d": doc})
    ((_op, payload),) = journal.records()
    return payload["d"]


@settings(max_examples=100, deadline=None)
@given(file_metas)
def test_file_record_roundtrip(meta):
    doc = encode_file(meta)
    # Positional document: [name,size,cs,scheme,[stripes],[blocks],state,v]
    assert isinstance(doc, list) and len(doc) == 8
    assert doc[0] == meta.name and doc[6] == meta.state.value
    assert all(isinstance(s, list) and len(s) == 5 for s in doc[4])
    assert all(isinstance(b, list) and len(b) == 4 for b in doc[5])
    back = decode_file(_through_the_log(doc))
    assert back == meta
    assert encode_file(back) == doc
    assert _encode(encode_file(back)) == _encode(doc)
    assert back.state is meta.state
    assert all(
        c.kind is want.kind
        for got, want_s in zip(back.stripes, meta.stripes)
        for c, want in zip(got.all_chunks(), want_s.all_chunks())
    )


@settings(max_examples=60, deadline=None)
@given(file_metas, st.lists(stripes, max_size=3), st.lists(blocks, max_size=2),
       st.integers(0, 3), st.integers(0, 1 << 30))
def test_relayout_record_carries_the_change_and_replays_to_live_state(
    meta, tail, tail_blocks, keep, size
):
    """RELAYOUT: the record is the stripes kept and the new tail — not
    the file — and replaying it into a plain namenode reaches what the
    live handler left, kept objects untouched."""
    meta.state = FileState.HEALTHY
    keep = min(keep, len(meta.stripes))
    kept = meta.stripes[:keep]
    nn = JournaledNamenode()
    nn.register_file(meta)
    nn.relayout_file(meta.name, keep, tail, tail_blocks, size)
    assert meta.stripes == kept + tail and meta.size == size
    assert all(a is b for a, b in zip(meta.stripes, kept + tail))
    assert meta.replica_blocks[len(meta.replica_blocks) - len(tail_blocks):] == tail_blocks
    (_, _), (op, body) = nn.journal.records()
    assert op is Op.RELAYOUT and sorted(body) == ["b", "k", "n", "s", "z"]
    assert (body["n"], body["k"], body["z"]) == (meta.name, keep, size)
    assert len(body["s"]) == len(tail) and len(body["b"]) == len(tail_blocks)
    assert meta.name not in nn._frags  # the change, not the file
    plain = Namenode()
    replay(plain, nn.journal.records())
    assert state_digest(plain) == state_digest(nn)
    assert plain.files[meta.name] == meta


@settings(max_examples=100, deadline=None)
@given(schemes)
def test_scheme_roundtrip(scheme):
    doc = encode_scheme(scheme)
    assert all(not isinstance(x, (list, dict)) for x in doc)  # flat
    assert decode_scheme(_through_the_log(doc)) == scheme


def test_lrc_scheme_roundtrip():
    s = ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2)
    assert encode_scheme(s) == ["ec", "lrc", 12, 16, 2, 2, None]
    assert decode_scheme(encode_scheme(s)) == s
    hy = HybridScheme(2, s)
    assert encode_scheme(hy) == ["hy", 2, "lrc", 12, 16, 2, 2, None]
    assert decode_scheme(encode_scheme(hy)) == hy
    with pytest.raises(JournalError):
        decode_scheme(["nope", 1])


@settings(max_examples=100, deadline=None)
@given(jobs)
def test_job_record_roundtrip(job):
    doc = encode_job(job)
    assert isinstance(doc, list) and len(doc) == 5
    back = decode_job(_through_the_log(doc))
    assert back == job
    assert encode_job(back) == doc


@settings(max_examples=40, deadline=None)
@given(
    st.lists(file_metas, max_size=5, unique_by=lambda m: m.name),
    st.integers(0, 1 << 20),
)
def test_state_roundtrip_with_inflight_transcode(metas, chunk_seq):
    """Encode and load through the journal's canonical state codec,
    including a half-finished UTM job (one of its final stripes staged)."""
    nn = Namenode()
    for meta in metas:
        nn.register_file(meta)
    nn._chunk_seq = chunk_seq
    if metas:
        meta = metas[0]
        target = ECScheme(CodeKind.CC, 12, 15)
        gs = [ConversionGroup(
            file_name=meta.name, group_index=0,
            initial_stripe_indices=list(range(len(meta.stripes))),
            n_final_stripes=2, target_scheme=target,
        )]
        nn.enqueue_transcode(meta.name, target, gs)
        nn.record_new_stripe(meta.name, 0, 1, ECStripeMeta(0, 12, 15))
    fresh = Namenode()
    load_state(fresh, encode_state(nn))
    assert sorted(encode_state(nn)) == ["chunk_seq", "files", "utm"]
    assert state_digest(fresh) == state_digest(nn)
    assert list(fresh.files) == list(nn.files)
    # Derived caches were rebuilt, not copied.
    for name in fresh.files:
        assert fresh._file_order[name] > 0


# -- log mechanics ------------------------------------------------------------

def _meta(name):
    return FileMeta(name=name, size=0, chunk_size=4096,
                    scheme=ECScheme(CodeKind.CC, 6, 9))


def test_append_records_prefix_and_stats():
    j = Journal()
    j.append(Op.REGISTER, {"a": 1})
    j.append(Op.NOTE, {"b": 2})
    j.append(Op.MINT, {"c": 3})
    assert len(j) == 3
    assert [op for op, _ in j.records()] == [Op.REGISTER, Op.NOTE, Op.MINT]
    assert [p for _, p in j.prefix(2).records()] == [{"a": 1}, {"b": 2}]
    s = j.stats()
    assert s["records"] == 3 and s["appended_total"] == 3
    assert s["snapshots"] == 0 and s["records_since_snapshot"] == 3


def test_corruption_before_tail_raises():
    j = Journal()
    for i in range(4):
        j.append(Op.NOTE, {"i": i})
    raw = bytearray(j.data)
    # Flip a payload byte of the *second* record: damage that does not
    # reach EOF must be treated as corruption, not a torn tail.
    raw[j._offsets[1] + 16] ^= 0xFF
    with pytest.raises(JournalError):
        Journal()._load(bytes(raw))


def test_torn_tail_is_truncated_in_memory():
    j = Journal()
    for i in range(4):
        j.append(Op.NOTE, {"i": i})
    fresh = Journal()
    fresh._load(j.data[:-2])
    assert len(fresh) == 3


def _raw_record(version, op=Op.NOTE, body=_encode({})):
    return struct.pack("<IHHI", len(body), version, int(op), zlib.crc32(body)) + body


def test_future_record_version_rejected():
    with pytest.raises(JournalError):
        Journal()._load(_raw_record(99))


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, RECORD_VERSION + 1])
def test_only_the_current_record_version_is_read(version, tmp_path):
    """v6 replaced v5 as v5 replaced v4: there is no reader for any
    other version, older or newer, in memory or from a file — and a
    good record before the foreign one does not make it a 'torn tail'."""
    assert RECORD_VERSION == 6
    good = _raw_record(RECORD_VERSION)
    assert Journal()._load(good) == len(good)
    with pytest.raises(JournalError, match=f"version {version}"):
        Journal()._load(_raw_record(version))
    path = tmp_path / "edits.log"
    path.write_bytes(good + _raw_record(version))
    with pytest.raises(JournalError, match=f"version {version}"):
        Journal(path)
    assert path.read_bytes() == good + _raw_record(version)  # not truncated


#: One fixed state document holding every kind of value a record carries
#: and a few that stress the encoder's byte form: the same interned node
#: id repeated (marshal 3+ would back-reference it), a chunk sequence
#: above 2**31 (marshal's long form), a float deadline, None and a bool.
_PINNED_STATE = {
    "files": [[
        "pinned", 3 << 31, 4096, ["ec", "cc", 6, 9, None, None, None],
        [[0, 6, 9,
          [[f"pinned/s0d{j}", sys.intern("dn003"), "data", 4096] for j in range(2)],
          [["pinned/s0p0", sys.intern("dn003"), "parity", 4096]]]],
        [], "transcoding", 1,
    ]],
    "chunk_seq": (1 << 40) + 7,
    "utm": [["pinned", ["ec", "cc", 12, 15, None, None, None],
             [["pinned", 0, [0, 1], 1, ["ec", "cc", 12, 15, None, None, None]]],
             [], 86400.25]],
    "flag": True,
}


def test_the_byte_form_is_pinned():
    """The journal's bytes are the same on every Python the project
    supports (CI runs 3.9 and 3.12): marshal version 2 has no
    back-references and no interned-string flag, and dicts keep their
    literal key order.  A change of encoder or version moves this."""
    body = _encode(_PINNED_STATE)
    assert hashlib.sha256(body).hexdigest() == (
        "1ccddc00cd0fa91f7e65179de474f665a145d9648b46ff1444b320e1a08bc36a"
    )
    assert body.count(b"dn003") == 3  # written in full each time
    assert _through_the_log(_PINNED_STATE) == _PINNED_STATE


def test_append_takes_a_pre_encoded_body():
    doc = {"n": "a", "m": [1, 2]}
    a, b = Journal(), Journal()
    a.append(Op.PLACE, doc)
    b.append(Op.PLACE, _encode(doc))
    assert a.data == b.data
    assert list(b.records()) == [(Op.PLACE, doc)]
    assert b.body_offset(0) == struct.calcsize("<IHHI")
    assert b.data[b.body_offset(0):] == _encode(doc)


def test_scans_release_their_view_of_the_log():
    """_load / records() / prefix() read through one memoryview each; a
    view left alive would make the next append's bytearray growth raise
    BufferError."""
    j = Journal()
    for i in range(5):
        j.append(Op.NOTE, {"i": i})
    assert [p["i"] for _, p in j.records()] == [0, 1, 2, 3, 4]
    assert len(j.prefix(3)) == 3
    j.append(Op.NOTE, {"i": 5})
    # A half-consumed scan is closed when its iterator is dropped.
    for _op, payload in j.records():
        if payload["i"] == 2:
            break
    j.append(Op.NOTE, {"i": 6})
    # A scan held open mid-iteration pins the log, by design.
    it = j.records()
    next(it)
    with pytest.raises(BufferError):
        j.append(Op.NOTE, {"i": 7})
    it.close()
    assert len(j) == 7  # the refused append left no trace
    j.append(Op.NOTE, {"i": 7})
    assert [p["i"] for _, p in j.records()] == list(range(8))
    fresh = Journal()
    assert fresh._load(memoryview(j.data)) == j.byte_size
    assert [p["i"] for _, p in fresh.records()] == list(range(8))


def test_file_backed_journal_reopens(tmp_path):
    path = tmp_path / "edits.log"
    nn = JournaledNamenode(journal=Journal(path))
    nn.register_file(_meta("a"))
    nn.next_chunk_ids("a/s0d", 6)
    nn.rename("a", "b")
    nn.journal.close()
    recovered = JournaledNamenode.recover(Journal(path))
    assert sorted(recovered.files) == ["b"]
    assert recovered._chunk_seq == nn._chunk_seq
    assert state_digest(recovered) == state_digest(nn)
    assert recovered.replayed == 3


def test_mint_replay_advances_sequence():
    nn = JournaledNamenode()
    nn.next_chunk_id("x")
    nn.next_chunk_ids("y", 7)
    recovered = JournaledNamenode.recover(nn.journal)
    assert recovered._chunk_seq == 8
    assert recovered.next_chunk_id("z") == nn.next_chunk_id("z")


def test_auto_compaction_folds_log_to_snapshot():
    nn = JournaledNamenode(compact_every=4)
    for i in range(10):
        nn.register_file(_meta(f"f{i}"))
    s = nn.journal.stats()
    assert s["snapshots"] == 1
    assert s["records"] < 10
    assert s["records_since_snapshot"] == s["records"] - 1
    recovered = JournaledNamenode.recover(nn.journal)
    assert state_digest(recovered) == state_digest(nn)


def test_manual_compaction_single_record(tmp_path):
    path = tmp_path / "edits.log"
    nn = JournaledNamenode(journal=Journal(path))
    for i in range(6):
        nn.register_file(_meta(f"f{i}"))
    nn.unregister_file("f3")
    before = state_digest(nn)
    nn.compact()
    assert len(nn.journal) == 1
    assert [op for op, _ in nn.journal.records()] == [Op.SNAPSHOT]
    nn.journal.close()
    recovered = JournaledNamenode.recover(Journal(path))
    assert state_digest(recovered) == before


def test_batch_register_is_atomic_in_the_journal():
    nn = JournaledNamenode()
    nn.register_file(_meta("dup"))
    with pytest.raises(ValueError):
        nn.register_files([_meta("x"), _meta("dup")])
    # Failed batch: nothing applied, nothing journaled.
    assert "x" not in nn.files
    recovered = JournaledNamenode.recover(nn.journal)
    assert state_digest(recovered) == state_digest(nn)


def test_metadata_stats_reports_journal_counters():
    nn = JournaledNamenode()
    nn.register_file(_meta("a"))
    stats = nn.metadata_stats()
    assert stats["files"] == 1
    assert stats["journal_records"] == 1
    assert stats["journal_bytes"] > 0
    assert stats["replayed"] == 0


# -- fragment index: encode each file once ------------------------------------

CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)


def _striped(name, n_stripes=1, size=4096):
    """A CC(6,9) file with real chunk lists (nine chunks per stripe)."""
    stripes = [
        ECStripeMeta(
            si, 6, 9,
            [ChunkMeta(f"{name}/s{si}d{j}", f"dn{(si * 9 + j) % 23:02d}",
                       ChunkKind.DATA, size) for j in range(6)],
            [ChunkMeta(f"{name}/s{si}p{j}", f"dn{(si * 9 + 6 + j) % 23:02d}",
                       ChunkKind.PARITY, size) for j in range(3)],
        )
        for si in range(n_stripes)
    ]
    return FileMeta(name, 6 * size * n_stripes, size, CC69, stripes=stripes)


def _assert_index_sound(nn):
    """Every entry is the canonical document of a live file, read out of
    the log; the spliced snapshot body equals a from-scratch encode; and
    the journal still recovers to live state."""
    log = nn.journal.data
    for name, (at, length) in nn._frags.items():
        assert name in nn.files, f"entry for dead file {name}"
        assert log[at:at + length] == _encode(encode_file(nn.files[name])), name
    body, index, spliced = nn._snapshot_body()
    assert body == _encode(encode_state(nn))
    assert list(index) == list(nn.files)
    assert spliced == len(nn._frags)
    assert state_digest(JournaledNamenode.recover(nn.journal)) == state_digest(nn)


def _merged_stripe(nn, name):
    meta = nn.files[name]
    data = [c for s in meta.stripes for c in s.data]
    parities = [ChunkMeta(f"{name}/m0p{j}", f"dn{20 + j}", ChunkKind.PARITY, 4096)
                for j in range(3)]
    return ECStripeMeta(0, 12, 15, data, parities)


def _group(name):
    return ConversionGroup(name, 0, [0, 1], 1, CC1215)


#: (label, action, opcode of the record it lands or None, entries it must
#: refresh, entries it must drop).  Everything else must stay put.
INDEX_STEPS = [
    ("register", lambda nn: nn.register_file(_striped("d")),
     Op.REGISTER, {"d"}, set()),
    ("register batch", lambda nn: nn.register_files([_striped("e"), _striped("f")]),
     Op.REGISTER_BATCH, {"e", "f"}, set()),
    ("mint one", lambda nn: nn.next_chunk_id("x"), Op.MINT, set(), set()),
    ("mint many", lambda nn: nn.next_chunk_ids("x", 9), Op.MINT, set(), set()),
    ("unregister", lambda nn: nn.unregister_file("d"),
     Op.UNREGISTER, set(), {"d"}),
    ("re-register the same name, other content",
     lambda nn: nn.register_file(_striped("d", size=512)),
     Op.REGISTER, {"d"}, set()),
    ("rename drops the old name and indexes nothing for the new",
     lambda nn: nn.rename("e", "g"), Op.RENAME, set(), {"e"}),
    ("rename back", lambda nn: nn.rename("g", "e"), Op.RENAME, set(), set()),
    ("note_chunk fills the renamed file in",
     lambda nn: nn.note_chunk("dn00", "e"), Op.NOTE, {"e"}, set()),
    ("note_chunk of an unchanged file re-records its document",
     lambda nn: nn.note_chunk("dn22", "f"), Op.NOTE, {"f"}, set()),
    ("relayout carries the new tail, not the file",
     lambda nn: nn.relayout_file("d", 0, _striped("d'", size=256).stripes, [], 6 * 256),
     Op.RELAYOUT, set(), {"d"}),
    ("note_chunk on an unknown file journals nothing",
     lambda nn: nn.note_chunk("dn01", "ghost"), None, set(), set()),
    ("place carries the move, not the file",
     lambda nn: nn.place_chunks("f", [("f/s0d1", "f/moved#1", "dn21")]),
     Op.PLACE, set(), {"f"}),
    ("place again: nothing left to drop",
     lambda nn: nn.place_chunks("f", [("f/moved#1", "f/moved#2", "dn20")]),
     Op.PLACE, set(), set()),
    ("drop replicas flips the scheme", lambda nn: nn.drop_replicas("c", CC69),
     Op.DROP_REPLICAS, set(), {"c"}),
    ("enqueue flips the state", lambda nn: nn.enqueue_transcode(
        "a", CC1215, [_group("a")]), Op.ENQUEUE, set(), {"a"}),
    ("note while transcoding", lambda nn: nn.note_chunk("dn00", "a"),
     Op.NOTE, {"a"}, set()),
    ("finalize with a final stripe unstaged is not a switch",
     lambda nn: nn.try_finalize("a"), None, set(), set()),
    ("new stripe", lambda nn: nn.record_new_stripe(
        "a", 0, 0, _merged_stripe(nn, "a")), Op.NEW_STRIPE, set(), set()),
    ("finalize", lambda nn: nn.try_finalize("a"), Op.FINALIZE, set(), {"a"}),
    ("enqueue another", lambda nn: nn.enqueue_transcode(
        "b", CC1215, [_group("b")]), Op.ENQUEUE, set(), {"b"}),
    ("note it", lambda nn: nn.note_chunk("dn00", "b"), Op.NOTE, {"b"}, set()),
    ("compact re-homes every entry", lambda nn: nn.compact(),
     Op.SNAPSHOT, {"a", "b", "c", "d", "e", "f"}, set()),
]


def test_each_opcode_refreshes_or_drops_the_entries_it_should():
    nn = JournaledNamenode()
    nn.register_files([_striped("a", 2), _striped("b", 2), _striped("c")])
    assert set(nn._frags) == {"a", "b", "c"}
    landed = {Op.REGISTER_BATCH}
    for label, action, op, refreshed, dropped in INDEX_STEPS:
        before = dict(nn._frags)
        n_before = nn.journal.appended_total
        action(nn)
        after = nn._frags
        if op is None:
            assert nn.journal.appended_total == n_before, label
        else:
            assert nn.journal.appended_total == n_before + 1, label
            assert list(nn.journal.records())[-1][0] is op, label
            landed.add(op)
        for name in refreshed:
            assert name in after and after[name] != before.get(name), label
        for name in dropped:
            assert name in before and name not in after, label
        for name in set(before) - refreshed - dropped:
            assert after[name] == before[name], f"{label}: {name} moved"
        assert set(after) - set(before) <= refreshed, label
        _assert_index_sound(nn)
    assert landed == set(Op), "the table must cover all 13 opcodes"
    assert nn.files["a"].scheme == CC1215 and nn.files["a"].version == 1
    moved = nn.files["f"].stripes[0].data[1]
    assert (moved.chunk_id, moved.node_id) == ("f/moved#2", "dn20")
    assert nn.files["c"].version == 1


def test_entry_is_written_only_after_its_record_landed():
    nn = JournaledNamenode(journal=Journal(fail_after=2))
    nn.register_file(_striped("a"))
    nn.register_file(_striped("b"))
    with pytest.raises(JournalCrash):
        nn.register_file(_striped("c"))
    with pytest.raises(JournalCrash):
        nn.register_files([_striped("d"), _striped("e")])
    assert set(nn._frags) == {"a", "b"}
    # A record that would have refreshed an entry leaves none behind.
    with pytest.raises(JournalCrash):
        nn.note_chunk("dn22", "a")
    assert set(nn._frags) == {"b"}
    with pytest.raises(JournalCrash):
        nn.unregister_file("b")
    assert nn._frags == {}
    assert sorted(JournaledNamenode.recover(nn.journal).files) == ["a", "b"]


class _FailingHandle:
    def write(self, _data):
        raise OSError(28, "No space left on device")

    def flush(self):  # pragma: no cover - write never succeeds
        raise AssertionError("flushed a record that was never written")

    def close(self):
        pass


def test_oserror_from_the_file_handle_leaves_no_entry_and_no_record(tmp_path):
    path = tmp_path / "edits.log"
    nn = JournaledNamenode(journal=Journal(path))
    nn.register_file(_striped("a"))
    good_handle, nn.journal._fh = nn.journal._fh, _FailingHandle()
    before = nn.journal.stats()
    with pytest.raises(OSError):
        nn.register_file(_striped("b"))
    with pytest.raises(OSError):
        nn.note_chunk("dn00", "a")
    assert nn._frags == {}
    assert nn.journal.stats() == before  # the mirror took nothing either
    # The disk recovers: later records land, compaction re-encodes the
    # two files it has no entry for and the log agrees with live state.
    nn.journal._fh = good_handle
    nn.note_chunk("dn00", "b")
    assert set(nn._frags) == {"b"}
    nn.unregister_file("a")
    nn.compact()
    assert nn.journal.stats()["files_spliced"] == 1
    nn.journal.close()
    recovered = JournaledNamenode.recover(Journal(path))
    assert sorted(recovered.files) == ["b"]


def test_index_starts_empty_after_recover_and_first_compaction_fills_it():
    nn = JournaledNamenode()
    nn.register_files([_striped(f"f{i}") for i in range(5)])
    recovered = JournaledNamenode.recover(nn.journal)
    assert recovered._frags == {}
    recovered.register_file(_striped("late"))
    assert set(recovered._frags) == {"late"}
    recovered.compact()
    s = recovered.stats()
    assert (s["files_spliced"], s["files_reencoded"]) == (1, 5)
    assert len(recovered._frags) == 6
    _assert_index_sound(recovered)
    recovered.compact()
    s = recovered.stats()
    assert (s["files_spliced"], s["files_reencoded"]) == (7, 5)
    assert s["compactions"] == 2 and s["compact_seconds"] > 0
    _assert_index_sound(recovered)


def test_rename_onto_an_existing_name_is_refused_before_any_mutation():
    nn = JournaledNamenode()
    nn.register_files([_striped("a"), _striped("b")])
    records = len(nn.journal)
    with pytest.raises(ValueError, match="file exists"):
        nn.rename("a", "b")
    with pytest.raises(KeyError):
        nn.rename("ghost", "z")
    assert list(nn.files) == ["a", "b"] and nn.files["a"].name == "a"
    assert len(nn.journal) == records
    assert set(nn._frags) == {"a", "b"}
    assert state_digest(JournaledNamenode.recover(nn.journal)) == state_digest(nn)


def test_compaction_counters_reach_metadata_stats():
    nn = JournaledNamenode(compact_every=4)
    for i in range(9):
        nn.register_file(_striped(f"f{i}"))
    stats = nn.metadata_stats()
    assert stats["journal_compactions"] == 2
    assert stats["journal_files_spliced"] == 4 + 8
    assert stats["journal_files_reencoded"] == 0
    assert stats["journal_compact_seconds"] > 0
    assert nn.journal.stats()["compactions"] == 2


# -- canonical bytes: one document, one byte form -----------------------------

def _bodies(journal):
    """Each record's body, as the bytes that sit in the log."""
    data = journal.data
    for index in range(len(journal)):
        at = journal.body_offset(index)
        (length,) = struct.unpack_from("<I", data, at - struct.calcsize("<IHHI"))
        yield data[at:at + length]


def test_every_record_a_crash_sweep_writes_re_encodes_to_its_body():
    """For every record the crash sweep's failure-burst trace writes on a
    compacting journal — all twelve op types and the SNAPSHOTs they fold
    into — the payload the reader decodes encodes back to the record's
    body byte for byte.  Splice compaction and the state digest rest on
    a document having exactly one byte form."""
    from tests.test_journal_crash import run_failure_burst

    nn = JournaledNamenode(compact_every=3)
    seen = set()

    def no_tuples(doc):
        assert not isinstance(doc, tuple)
        for value in doc.values() if isinstance(doc, dict) else doc:
            if isinstance(value, (list, dict, tuple)):
                no_tuples(value)

    def check(node, _op):
        journal = node.journal
        for (opcode, payload), body in zip(journal.records(), _bodies(journal)):
            assert _encode(payload) == body, opcode.name
            no_tuples(payload)  # one byte form whatever sequence a caller passed
            seen.add(opcode)

    nn.after_append = check
    run_failure_burst(nn)
    # What the trace does not issue on one namenode: a batch
    # registration, the benchmark harness's note and a removal.
    nn.register_files([_striped("batch/a"), _striped("batch/b", 2)])
    nn.note_chunk("dn00", "batch/b")
    nn.unregister_file("batch/a")
    assert seen == set(Op)
