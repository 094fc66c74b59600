"""``repro.dfs.audit``: each kind of damage, planted on a whole filesystem,
is reported as exactly that violation; the audit itself moves nothing;
and the faults it found that nothing else reports — a merged parity that
encodes rot (ROADMAP item 5), the copies a returning node kept after
they were re-homed (item 1d) and the chunks two names list after a crash
mid cross-shard rename (item 2) — are pinned."""

from dataclasses import replace

import numpy as np
import pytest

from repro.codes.costmodel import TranscodeCost
from repro.core.planner import TranscodeKind, TranscodeStep
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import JournaledNamenode, MorphFS, Namenode, ShardedNamenode
from repro.dfs.audit import KINDS, audit
from repro.dfs.blocks import FileMeta, ReplicaBlockMeta
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.dfs.integrity import Scrubber, corrupt_chunk
from repro.dfs.journal import JournalCrash
from repro.dfs.namenode import TranscodeJob
from repro.obs.codec import CODEC_STATS

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)


def whole_fs(namenode=None):
    """A 48 KiB ``Hy(1,CC(6,9))`` file after the free transition: two
    CC(6,9) stripes in one k*-window."""
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=1, namenode=namenode)
    data = np.random.default_rng(1).integers(0, 256, 48 * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    fs.transcode("f", CC69)
    assert audit(fs) == []
    return fs


def stripe0(fs):
    return fs.namenode.lookup("f").stripes[0]


def held(fs, chunk):
    return dict(fs.datanodes[chunk.node_id].held())[chunk.chunk_id]


# -- one planted fault per kind, returning the subject it must be reported on --------

def flipped_byte(fs):
    chunk = stripe0(fs).data[0]
    corrupt_chunk(fs, chunk)
    return chunk.chunk_id


def dropped_index_entry(fs):
    chunk = stripe0(fs).data[0]
    del fs.namenode._node_files[chunk.node_id]["f"]
    return chunk.node_id


def mutation_around_the_journal(fs):
    fs.namenode.lookup("f").version += 1
    return "namenode"


def utm_job_of_a_deleted_file(fs):
    fs.namenode.utm["gone"] = TranscodeJob("gone", CC1215)
    return "gone"


def chunk_listed_by_a_second_file(fs):
    chunk = stripe0(fs).data[0]
    copy = replace(chunk)
    fs.namenode.register_file(FileMeta(
        "g", chunk.size, chunk.size, Replication(1),
        replica_blocks=[ReplicaBlockMeta(0, 0, 1, [copy])],
    ))
    return chunk.chunk_id


def forgotten_sum(fs):
    chunk = stripe0(fs).parities[1]
    fs.checksums.forget(chunk.chunk_id)
    return chunk.chunk_id


def metered_delete_with_no_disk_delete(fs):
    fs.metrics.record_disk_delete(stripe0(fs).data[0].node_id, 4 * KB)
    return "cluster"


def unlisted_stored_chunk(fs):
    fs.datanodes["dn000"].store_local("stray", np.zeros(4 * KB, np.uint8))
    return "stray"


def listed_chunk_gone_from_its_home(fs):
    chunk = stripe0(fs).data[2]
    fs.datanodes[chunk.node_id].delete(chunk.chunk_id)
    return chunk.chunk_id


def replica_block_listed_by_an_ec_file(fs):
    fs.namenode.lookup("f").replica_blocks.append(ReplicaBlockMeta(0, 0, 6))
    return "f"


def chunk_moved_onto_a_stripe_mate(fs):
    stripe = stripe0(fs)
    chunk, mate = stripe.data[0], stripe.data[1]
    old_node, old_id, data = chunk.node_id, chunk.chunk_id, held(fs, chunk)
    fs.rehome_chunks(fs.namenode.lookup("f"), [(chunk, mate.node_id, data)], old_node, "moved")
    fs.datanodes[old_node].delete(old_id)
    return "f/s0"


def corrupted_parity_under_a_fresh_sum(fs):
    parity = stripe0(fs).parities[0]
    corrupt_chunk(fs, parity)
    fs.checksums.record(parity.chunk_id, held(fs, parity))
    return parity.chunk_id


PLANTED = {
    "bytes": flipped_byte,
    "index": dropped_index_entry,
    "journal": mutation_around_the_journal,
    "queue": utm_job_of_a_deleted_file,
    "owner": chunk_listed_by_a_second_file,
    "sums": forgotten_sum,
    "capacity": metered_delete_with_no_disk_delete,
    "unlisted": unlisted_stored_chunk,
    "missing": listed_chunk_gone_from_its_home,
    "layout": replica_block_listed_by_an_ec_file,
    "colocated": chunk_moved_onto_a_stripe_mate,
    "parity": corrupted_parity_under_a_fresh_sum,
}


def test_every_kind_has_a_planted_fault():
    assert sorted(PLANTED) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(PLANTED))
def test_a_planted_fault_is_reported_as_exactly_its_violation(kind):
    # Journaled only where the journal is the point: an op-free change to
    # the UTM is also a state the journal does not hold.
    fs = whole_fs(JournaledNamenode() if kind == "journal" else Namenode())
    subject = PLANTED[kind](fs)
    assert [(v.kind, v.subject) for v in audit(fs)] == [(kind, subject)]


def moved(fs, chunk, node_id):
    """Re-home ``chunk`` onto ``node_id`` the way a repair would."""
    old_node, old_id, data = chunk.node_id, chunk.chunk_id, held(fs, chunk)
    fs.rehome_chunks(fs.namenode.lookup("f"), [(chunk, node_id, data)], old_node, "moved")
    fs.datanodes[old_node].delete(old_id)


def test_a_replica_copy_moved_onto_a_node_of_its_stripe_is_colocated():
    """Two sources of one hybrid block on one node: the stripe's chunks
    are distinct, the copy covering them is not."""
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=1)
    fs.write_file("f", np.ones(48 * KB, np.uint8), HybridScheme(1, CC69))
    assert audit(fs) == []
    meta = fs.namenode.lookup("f")
    moved(fs, meta.replica_blocks[1].copies[0], meta.stripes[1].parities[2].node_id)
    assert [(v.kind, v.subject) for v in audit(fs)] == [("colocated", "f/s1")]


def test_two_copies_of_a_replica_block_on_one_node_are_colocated():
    fs = MorphFS(chunk_size=4 * KB, seed=1)
    fs.write_file("f", np.ones(48 * KB, np.uint8), Replication(2))
    assert audit(fs) == []
    copies = fs.namenode.lookup("f").replica_blocks[1].copies
    moved(fs, copies[1], copies[0].node_id)
    assert [(v.kind, v.subject) for v in audit(fs)] == [("colocated", "f/b1")]


def test_a_native_merge_into_a_hybrid_leaves_a_layout_fault():
    """The rule the planner used to follow — a hybrid target converted
    natively — left the file labelled ``Hy(1,CC(12,15))`` with no replica
    copy, every other kind clean: the planner now says RRW for it."""
    fs = whole_fs()
    fs.planner.plan = lambda source, target: TranscodeStep(
        source, target, TranscodeKind.CONVERTIBLE, TranscodeCost(0.0, 0.0)
    )
    fs.transcode("f", HybridScheme(1, CC1215))
    assert [(v.kind, v.subject) for v in audit(fs)] == [("layout", "f/s0")]


def test_a_replicated_file_listing_a_stripe_is_a_layout_fault():
    fs = whole_fs()
    fs.namenode.lookup("f").scheme = Replication(2)
    assert [(v.kind, v.subject) for v in audit(fs)] == [("layout", "f")]


def test_the_audit_moves_no_counter():
    fs = whole_fs(JournaledNamenode())
    fs.transcode("f", CC1215)
    corrupt_chunk(fs, fs.namenode.lookup("f").stripes[0].data[3])
    ledger = {node: replace(m) for node, m in fs.metrics.nodes.items()}
    codec = [dict(d) for d in (CODEC_STATS.bytes, CODEC_STATS.seconds, CODEC_STATS.ops)]
    journal = len(fs.namenode.journal)
    assert [v.kind for v in audit(fs)] == ["bytes"]
    assert fs.metrics.nodes == ledger
    assert [dict(d) for d in (CODEC_STATS.bytes, CODEC_STATS.seconds, CODEC_STATS.ops)] == codec
    assert len(fs.namenode.journal) == journal


def test_a_merge_bakes_a_rotten_parity_into_one_scrub_cannot_see():
    """ROADMAP item 5, found by machine: stripe 0's rotten parity 0 is
    merged into a new parity stored under a fresh sum of its wrong
    bytes. Scrub finds nothing; the audit's re-encode does."""
    fs = whole_fs()
    corrupt_chunk(fs, stripe0(fs).parities[0])
    fs.transcode("f", CC1215)
    (merged,) = fs.namenode.lookup("f").stripes
    assert Scrubber(fs).scan().corrupt == []
    assert [(v.kind, v.subject) for v in audit(fs)] == [("parity", merged.parities[0].chunk_id)]


def test_a_crash_mid_cross_shard_rename_leaves_chunks_two_names_list():
    """ROADMAP item 2's repro: a rename to a name on another shard
    journals the destination's Register, and the source journal dies
    before its Unregister. Recovered, both names list the same 18 chunk
    ids — one delete away from losing the other name's bytes."""
    nn = ShardedNamenode.journaled(4)
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=1, namenode=nn)
    data = np.random.default_rng(1).integers(0, 256, 48 * KB, dtype=np.uint8)
    fs.write_file("a", data, HybridScheme(1, CC69))
    fs.transcode("a", CC69)
    new = next(name for name in (f"b{i}" for i in range(64))
               if nn.shard_index(name) != nn.shard_index("a"))
    source = nn.shard_for("a").journal
    source.fail_after = len(source)
    with pytest.raises(JournalCrash):
        nn.rename("a", new)
    fs.restart(ShardedNamenode.recover(
        [shard.journal.prefix(len(shard.journal)) for shard in nn.shards]
    ))
    shared = sorted(c.chunk_id for c in fs.namenode.lookup("a").all_chunks())
    assert len(shared) == 18
    assert sorted(c.chunk_id for c in fs.namenode.lookup(new).all_chunks()) == shared
    assert [(v.kind, v.subject) for v in audit(fs)] == [("owner", c) for c in shared]


# -- the faults a looser reading would miss -----------------------------------------

def test_rot_on_disk_under_a_sound_buffered_copy_is_seen():
    fs = whole_fs()
    chunk = stripe0(fs).data[0]
    fs.datanodes[chunk.node_id].receive_to_memory(chunk.chunk_id, held(fs, chunk), "dn000")
    corrupt_chunk(fs, chunk)  # the disk copy; the buffered one is sound
    assert [(v.kind, v.subject) for v in audit(fs)] == [("bytes", chunk.chunk_id)]


def test_a_lookup_that_adds_an_empty_node_is_seen():
    fs = whole_fs()
    namenode = fs.namenode
    ask = namenode.chunks_on_node

    def chunks_on_node(node_id):
        namenode._node_files.setdefault("dn999", {})
        return ask(node_id)

    namenode.chunks_on_node = chunks_on_node
    assert [(v.kind, v.subject) for v in audit(fs)] == [("index", "namenode")]


def test_a_journal_record_that_does_not_replay_is_seen():
    fs = whole_fs(JournaledNamenode())
    journal = fs.namenode.journal
    records = list(journal.records())
    journal.records = lambda: iter(records[:-1])
    found = [(v.kind, v.subject, v.detail) for v in audit(fs)]
    replayed = f"{len(records) - 1} of its {len(records)} records replayed"
    assert ("journal", "namenode", replayed) in found
    assert {kind for kind, _, _ in found} == {"journal"}


def test_a_stripe_short_of_parities_is_seen():
    fs = whole_fs()
    fs.codec_for_stripe = lambda meta, stripe: fs.codec_for(ECScheme(CodeKind.CC, 6, 10))  # one parity more
    assert [(v.kind, v.subject) for v in audit(fs)] == [("parity", "f/s0"), ("parity", "f/s1")]


# -- a returning node drops what was re-homed while it was away --------------------

def test_a_node_back_from_the_dead_drops_its_rehomed_copy():
    """ROADMAP 1d: the parity-0 home of a 1 KiB file dies, the parity is
    rebuilt elsewhere, the node comes back still holding the old copy,
    which no metadata lists. Its return tick deletes it."""
    fs = MorphFS(chunk_size=2 * KB, future_widths=[6, 12])
    fs.write_file("f0", np.arange(KB, dtype=np.uint8), HybridScheme(1, CC69))
    parity = fs.namenode.lookup("f0").stripes[0].parities[0]
    old = (parity.chunk_id, parity.node_id)
    assert old == ("f0/s0p#00000009", "dn001")
    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
    fs.cluster.fail_node("dn001")
    assert sum(report.chunks_recovered for report in monitor.run_ticks(2)) == 1
    assert parity.node_id != "dn001" and audit(fs) == []  # down: not reachable
    fs.cluster.recover_node("dn001")
    assert [(v.kind, v.subject) for v in audit(fs)] == [("unlisted", old[0])]
    assert monitor.tick().newly_alive == ["dn001"]
    assert not fs.datanodes["dn001"].has_chunk(old[0])
    assert audit(fs) == []
    assert np.array_equal(fs.read_file("f0"), np.arange(KB, dtype=np.uint8))


def test_a_returning_node_keeps_a_running_transcodes_staged_parities():
    fs = whole_fs()
    fs.write_file("g", np.ones(96 * KB, np.uint8), HybridScheme(1, CC69))
    fs.transcode("g", CC69)
    fs.schedule_transcode("g", CC1215)
    fs.transcoder.execute_group(fs.namenode.utm["g"].groups[0])  # one of two
    (staged,) = fs.namenode.utm["g"].new_stripes.values()
    for parity in staged.parities:
        assert fs.drop_unlisted(parity.node_id) == 0
    assert audit(fs) == []
    fs.transcoder.run_pending("g")
    assert audit(fs) == []
