"""Stripe-granular repair: the one reconstruction pipeline (§4.4, §6.1).

The differential here pins what "repair by stripe" may and may not
change. Rebuilding everything a failure took from a stripe in one fused
recovery must end exactly where repairing ``lost_chunks()`` one chunk at
a time ends — same bytes in every chunk, same slot -> node map — and may
never read more source bytes on the way.
"""

import itertools

import numpy as np
import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.integrity import quarantine
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.dfs.journal import Journal, JournaledNamenode, Op
from repro.dfs.recovery import RecoveryError, RecoveryManager
from repro.sched.tasks import StripeRepairTask, TaskClass

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
SCHEMES = {
    "hy1-cc69": HybridScheme(1, CC69),
    "cc69": CC69,
    "cc1215": CC1215,
    "lrcc1222": ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2),
    "rs69": ECScheme(CodeKind.RS, 6, 9),
    "lrc1222": ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2),
}


def build(scheme, n_kb, seed=3, **fs_kw):
    """A fresh filesystem holding one seeded file; same inputs, same layout."""
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=seed, **fs_kw)
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, scheme)
    return fs, data


LRCC2422 = ECScheme(CodeKind.LRCC, 24, 28, local_groups=2, r_global=2)


def lrcc_file():
    """24 chunks written hybrid, freed, merged: two LRCC(12,2,2) stripes
    on a cluster wide enough to merge them again."""
    fs = MorphFS(Cluster(ClusterSpec(n_datanodes=40)), chunk_size=4 * KB, future_widths=[12, 24])
    data = np.random.default_rng(3).integers(0, 256, 96 * KB, dtype=np.uint8)
    fs.write_file("f", data, SCHEMES["hy1-cc69"])
    for target in (CC69, SCHEMES["lrcc1222"]):
        fs.transcode("f", target)
    return fs, data


def kill(fs, *node_ids):
    for node_id in node_ids:
        fs.cluster.fail_node(node_id)


def layout(fs):
    """slot -> (node, stored bytes) for every chunk of the file."""
    meta = fs.namenode.lookup("f")
    return [
        (c.kind, c.node_id, fs.datanodes[c.node_id].read(c.chunk_id).tobytes())
        for c in meta.all_chunks()
    ]


def repair_both_ways(make, damage, declared_dead=None):
    """Run the stripe pipeline and the chunk-at-a-time oracle on twin
    filesystems; returns (pipeline fs, oracle fs, data, chunks lost)."""
    twins = []
    for by_stripe in (True, False):
        fs, data = make()
        damage(fs)
        recovery = RecoveryManager(fs)
        lost = recovery.lost_chunks(declared_dead)
        reads_before = fs.metrics.disk_bytes_read
        if by_stripe:
            assert recovery.recover_chunks(lost) == len(lost)
        else:
            for meta, chunk in lost:
                recovery.recover_chunk(meta, chunk)
        twins.append((fs, fs.metrics.disk_bytes_read - reads_before, len(lost)))
    (fs_a, reads_a, n_lost), (fs_b, reads_b, _) = twins
    assert layout(fs_a) == layout(fs_b)
    assert reads_a <= reads_b
    assert RecoveryManager(fs_a).lost_chunks(declared_dead) == []
    return fs_a, fs_b, data, n_lost


def kill_sites(*sites):
    """A damage function: fail the nodes holding the given (stripe, slot) chunks."""

    def damage(fs):
        meta = fs.namenode.lookup("f")
        kill(fs, *{meta.stripes[s].all_chunks()[slot].node_id for s, slot in sites})

    return damage


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("draw", range(4))
    def test_seeded_node_failures_match_chunk_at_a_time(self, name, draw):
        """One- and two-node failures drawn over the file's own nodes."""
        scheme = SCHEMES[name]
        probe, _ = build(scheme, 192)
        homes = sorted({c.node_id for c in probe.namenode.lookup("f").all_chunks()})
        rng = np.random.default_rng(100 + draw)
        victims = list(rng.choice(homes, size=1 + draw % 2, replace=False))

        fs, _oracle, data, n_lost = repair_both_ways(
            lambda: build(scheme, 192), lambda fs: kill(fs, *victims)
        )
        assert n_lost >= len(victims)
        assert np.array_equal(fs.read_file("f"), data)

    @pytest.mark.parametrize("name", ["cc69", "hy1-cc69", "lrcc1222", "lrc1222"])
    def test_data_and_parity_lost_in_one_stripe(self, name):
        scheme = SCHEMES[name]
        k = (scheme.ec if isinstance(scheme, HybridScheme) else scheme).k
        damage = kill_sites((0, 1), (0, k + 1))
        fs, _oracle, data, n_lost = repair_both_ways(lambda: build(scheme, 192), damage)
        assert n_lost >= 2
        assert np.array_equal(fs.read_file("f"), data)

    @pytest.mark.parametrize("hybrid", [True, False])
    def test_tail_short_stripe(self, hybrid):
        """A sealed short tail — CC(2,5) closing a CC(6,9) file — decodes
        with its own narrower code."""

        def make():
            fs, data = build(HybridScheme(1, CC69), 24)
            extra = np.random.default_rng(9).integers(0, 256, 7 * KB, dtype=np.uint8)
            fs.append_file("f", extra)
            fs.close_file("f")
            if not hybrid:
                fs.transcode("f", CC69)  # free transition: replicas dropped
            return fs, np.concatenate([data, extra])

        tail = make()[0].namenode.lookup("f").stripes[-1]
        assert (tail.k, tail.n) == (2, 5)
        damage = kill_sites((1, 0), (1, 3), (0, 7))
        fs, _oracle, data, n_lost = repair_both_ways(make, damage)
        assert n_lost >= 3
        assert np.array_equal(fs.read_file("f"), data)

    def test_partition_unreachable_survivor(self):
        """A survivor behind a partition cut is not a source; the island's
        own chunks count as lost and are re-homed on the namenode's side."""
        probe, _ = build(CC69, 96)
        stripe = probe.namenode.lookup("f").stripes[0]
        dead, island = stripe.data[0].node_id, stripe.data[2].node_id

        def damage(fs):
            kill(fs, dead)
            fs.partition.isolate([island])

        fs, _oracle, data, n_lost = repair_both_ways(
            lambda: build(CC69, 96), damage, declared_dead={dead, island}
        )
        assert n_lost >= 2
        meta = fs.namenode.lookup("f")
        assert not {dead, island} & {c.node_id for c in meta.all_chunks()}
        assert np.array_equal(fs.read_file("f"), data)

    def test_lost_parity_is_not_reencoded(self, monkeypatch):
        """A parity over intact data is the identity-inverse case of the
        fused recovery: one decode, no ``encode`` computing r parities to
        keep one."""
        from repro.codes.base import ErasureCode

        fs, _ = build(CC69, 96)
        stripe = fs.namenode.lookup("f").stripes[0]
        expected = fs.datanodes[stripe.parities[2].node_id].read(
            stripe.parities[2].chunk_id
        ).copy()
        kill(fs, stripe.parities[2].node_id)

        def no_encode(*_a, **_k):
            raise AssertionError("repair must not call encode")

        monkeypatch.setattr(ErasureCode, "encode", no_encode)
        monkeypatch.setattr(ErasureCode, "encode_batch", no_encode)
        RecoveryManager(fs).recover_all()
        parity = stripe.parities[2]
        assert np.array_equal(fs.datanodes[parity.node_id].read(parity.chunk_id), expected)

    def test_lrc_single_loss_reads_only_group_peers(self):
        scheme = SCHEMES["lrcc1222"]
        fs, data = build(scheme, 48)  # a single stripe
        stripe = fs.namenode.lookup("f").stripes[0]
        kill(fs, stripe.data[3].node_id)
        lost = RecoveryManager(fs).lost_chunks()
        assert [c for _m, c in lost] == [stripe.data[3]]
        before = fs.metrics.disk_bytes_read
        RecoveryManager(fs).recover_chunks(lost)
        assert fs.metrics.disk_bytes_read - before == (12 // 2) * 4 * KB
        assert np.array_equal(fs.read_file("f"), data)

    def test_non_mds_pattern_reaches_past_the_first_k_survivors(self):
        """Two losses in one LRC group: the first k survivors include the
        idle group's local parity and are rank-deficient; the repair
        reads on instead of giving up."""
        scheme = SCHEMES["lrc1222"]
        fs, data = build(scheme, 192)
        stripe = fs.namenode.lookup("f").stripes[0]
        kill(fs, stripe.data[0].node_id, stripe.data[1].node_id)
        RecoveryManager(fs).recover_all()
        assert RecoveryManager(fs).lost_chunks() == []
        assert np.array_equal(fs.read_file("f"), data)

    @pytest.mark.parametrize("reader", ["read", "repair", "transcode"])
    def test_every_reader_reaches_past_the_first_k_survivors(self, reader):
        """A data chunk and a global parity of an LRCC(12,2,2) stripe
        gone: the first k readable slots (11 data + local parity 0) have
        rank 11. The client and repair read on; the transcoder used to
        stop there and fail a conversion inside the code's tolerance."""
        fs, data = lrcc_file()
        stripe = fs.namenode.lookup("f").stripes[0]
        kill(fs, stripe.data[7].node_id, stripe.parities[2].node_id)
        if reader == "repair":
            RecoveryManager(fs).recover_all()
            assert RecoveryManager(fs).lost_chunks() == []
        elif reader == "transcode":
            fs.transcode("f", LRCC2422)
            assert fs.namenode.lookup("f").scheme == LRCC2422
        assert np.array_equal(fs.read_file("f"), data)

    def test_transcode_rebuilds_a_lost_local_parity_from_its_group(self):
        """LRCC -> LRCC reads the 8 parities of its two stripes; one
        local parity gone is the XOR of its 6 group peers (it used to be
        a k = 12 chunk decode)."""
        fs, data = lrcc_file()
        quarantine(fs, fs.namenode.lookup("f").stripes[0].parities[0])
        before = fs.metrics.disk_bytes_read
        fs.transcode("f", LRCC2422)
        assert fs.metrics.disk_bytes_read - before == (7 + 6) * 4 * KB
        assert np.array_equal(fs.read_file("f"), data)

    def test_beyond_tolerance_raises(self):
        fs, _ = build(CC69, 96)
        stripe = fs.namenode.lookup("f").stripes[0]
        kill(fs, *[c.node_id for c in stripe.all_chunks()[:4]])
        with pytest.raises(RecoveryError):
            RecoveryManager(fs).recover_all()

    def test_foreign_chunk_is_rejected(self):
        fs, _ = build(CC69, 96)
        other, _ = build(CC69, 96)
        stray = other.namenode.lookup("f").stripes[0].data[0]
        with pytest.raises(RecoveryError):
            RecoveryManager(fs).recover_chunk(fs.namenode.lookup("f"), stray)


class TestJournalOrder:
    def test_stripe_repair_is_one_mint_and_one_place(self):
        journal = Journal()
        fs, data = build(CC69, 96, namenode=JournaledNamenode(journal))
        stripe = fs.namenode.lookup("f").stripes[0]
        kill(fs, stripe.data[0].node_id, stripe.parities[0].node_id)
        lost = RecoveryManager(fs).lost_chunks()
        groups = RecoveryManager(fs).damaged_groups(lost)
        before = len(journal)
        RecoveryManager(fs).recover_chunks(lost)
        ops = [op for op, _body in journal.records()][before:]
        assert ops == [Op.MINT, Op.PLACE] * len(groups)
        assert len(lost) > len(groups)  # fewer records than chunks
        assert np.array_equal(fs.read_file("f"), data)


class TestStripeTask:
    def test_one_task_per_damaged_group(self):
        fs, data = build(HybridScheme(1, CC69), 96)
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[0].node_id
        kill(fs, victim)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        lost = RecoveryManager(fs).lost_chunks()
        groups = RecoveryManager(fs).damaged_groups(lost)
        report = monitor.tick()
        tasks = [t for t in report.scheduler.executed if isinstance(t, StripeRepairTask)]
        assert len(tasks) == len(groups)
        assert report.chunks_recovered == len(lost)
        assert np.array_equal(fs.read_file("f"), data)

    def test_resubmission_sweep_does_not_duplicate_queued_chunks(self):
        from repro.sched import MaintenanceScheduler, SchedulerPolicy

        fs, _ = build(CC69, 96)
        fs.scheduler = MaintenanceScheduler(fs, SchedulerPolicy(disk_bytes_per_tick=1.0))
        for node_id in fs.datanodes:
            fs.scheduler.budgets.charge(node_id, disk_bytes=1e12)
        kill(fs, fs.namenode.lookup("f").stripes[0].data[0].node_id)
        monitor = HeartbeatMonitor(
            fs, HeartbeatConfig(dead_after_missed=1, repair_resubmit_every_ticks=1)
        )
        monitor.tick()
        queued = len(fs.scheduler.queue.backlog())
        for _ in range(3):
            monitor.tick()
        assert queued and len(fs.scheduler.queue.backlog()) == queued

    def test_critical_when_stripe_is_at_its_limit(self):
        fs, _ = build(CC69, 96)
        stripe = fs.namenode.lookup("f").stripes[0]
        kill(fs, *[c.node_id for c in stripe.all_chunks()[:3]])
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        monitor._declared_dead = {c.node_id for c in stripe.all_chunks()[:3]}
        monitor._submit_repairs()
        tasks = {
            id(t.chunks[0]): t
            for t in fs.scheduler.queue.backlog()
            if isinstance(t, StripeRepairTask)
        }
        assert tasks[id(stripe.data[0])].klass is TaskClass.CRITICAL_REPAIR
        assert len(tasks[id(stripe.data[0])].chunks) == 3


def test_identity_not_equality_finds_the_chunk():
    """Two chunks that compare equal field by field are still two chunks."""
    fs, _ = build(CC69, 96)
    meta = fs.namenode.lookup("f")
    groups = RecoveryManager(fs).damaged_groups(
        [(meta, c) for c in itertools.chain(meta.stripes[0].data[:2], meta.stripes[1].data[:1])]
    )
    assert [(home.stripe_index, len(chunks)) for _m, home, chunks in groups] == [(0, 2), (1, 1)]
