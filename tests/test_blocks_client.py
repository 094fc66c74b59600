"""Block metadata helpers, client error paths, Namenode restart."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.dfs.blocks import ECStripeMeta, FileState
from repro.dfs.client import ReadError
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.dfs.journal import JournaledNamenode
from repro.sched.tasks import StripeRepairTask

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def hybrid_fs(n_kb=96, seed=1):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], namenode=JournaledNamenode())
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    return fs, data


class TestFileMetaHelpers:
    def test_hybrid_blocks_nest_correct_replicas(self):
        fs, _ = hybrid_fs()
        meta = fs.namenode.lookup("f")
        for hb in meta.hybrid_blocks():
            first = hb.stripe.stripe_index * hb.stripe.k
            for block in hb.replicas:
                assert block.first_chunk < first + hb.stripe.k
                assert block.first_chunk + block.n_chunks > first

    @pytest.fixture
    def mixed(self):
        """12 chunks + a 2-chunk appended tail: stripes of width 6, 6, 2."""
        fs, _ = hybrid_fs(n_kb=48)
        fs.append_file("f", np.ones(8 * KB, dtype=np.uint8))
        meta = fs.namenode.lookup("f")
        assert [s.k for s in meta.stripes] == [6, 6, 2]
        return meta

    def test_hybrid_blocks_pair_a_short_tail_with_its_own_block(self, mixed):
        # ``stripe_index * k`` put the 2-wide tail at chunk 4: block 0.
        pairs = [(hb.stripe, hb.replicas) for hb in mixed.hybrid_blocks()]
        assert pairs == [(s, [b]) for s, b in zip(mixed.stripes, mixed.replica_blocks)]

    def test_first_data_index(self, mixed):
        assert list(mixed.stripe_spans()) == list(zip([0, 6, 12], mixed.stripes))
        assert [mixed.first_data_index(s) for s in mixed.stripes] == [0, 6, 12]
        twin = ECStripeMeta(**vars(mixed.stripes[1]))  # equal, not a stripe of the file
        with pytest.raises(ValueError):
            mixed.first_data_index(twin)

    def test_stripe_of(self, mixed):
        s0, s1, s2 = mixed.stripes
        found = [mixed.stripe_of(i) for i in (0, 5, 6, 11, 12, 13)]
        assert found == [(s0, 0), (s0, 5), (s1, 0), (s1, 5), (s2, 0), (s2, 1)]
        assert all(a is b for (a, _), b in zip(found, (s0, s0, s1, s1, s2, s2)))
        with pytest.raises(IndexError):
            mixed.stripe_of(14)

    def test_block_covering(self, mixed):
        b0, b1, b2 = mixed.replica_blocks
        assert [mixed.block_covering(i) for i in (0, 5, 6, 11, 12, 13)] == [b0, b0, b1, b1, b2, b2]
        assert mixed.block_covering(14) is None

    def test_chunk_by_id(self):
        fs, _ = hybrid_fs()
        meta = fs.namenode.lookup("f")
        target = meta.stripes[1].parities[2]
        assert meta.chunk_by_id(target.chunk_id) is target
        assert meta.chunk_by_id("nope") is None

    def test_all_chunks_counts(self):
        fs, _ = hybrid_fs(n_kb=96)  # 24 chunks -> 4 stripes of CC(6,9)
        meta = fs.namenode.lookup("f")
        # 4 stripes x 9 + 4 replica blocks x 1 copy.
        assert len(meta.all_chunks()) == 4 * 9 + 4

    def test_n_data_chunks(self):
        fs, _ = hybrid_fs(n_kb=96)
        meta = fs.namenode.lookup("f")
        assert meta.n_data_chunks == 24

    def test_is_hybrid_flag(self):
        fs, _ = hybrid_fs()
        meta = fs.namenode.lookup("f")
        assert meta.is_hybrid
        fs.transcode("f", CC69)
        assert not meta.is_hybrid


class TestClientErrorPaths:
    def test_read_beyond_eof(self):
        fs, data = hybrid_fs()
        with pytest.raises(ValueError):
            fs.read_file("f", offset=len(data), length=1)

    def test_zero_length_read(self):
        fs, data = hybrid_fs()
        out = fs.read_file("f", offset=100, length=0)
        assert len(out) == 0

    def test_replication_file_with_all_copies_dead(self):
        from repro.core.schemes import Replication
        from repro.dfs import BaselineDFS

        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(2).integers(0, 256, 16 * KB, dtype=np.uint8)
        fs.write_file("r", data, Replication(2))
        meta = fs.namenode.lookup("r")
        for copy in meta.replica_blocks[0].copies:
            fs.cluster.fail_node(copy.node_id)
            fs.datanodes[copy.node_id].fail()
        with pytest.raises(ReadError):
            fs.read_file("r")

    def test_unaligned_cross_stripe_range(self):
        fs, data = hybrid_fs(n_kb=96)
        # Range straddling two stripes, offset mid-chunk.
        out = fs.read_file("f", offset=23 * KB, length=26 * KB, prefer_striped=True)
        assert np.array_equal(out, data[23 * KB : 49 * KB])


def restarted(fs):
    """The namenode process dies and comes back from its journal."""
    fs.restart(JournaledNamenode.recover(fs.namenode.journal))
    return fs.namenode


class TestNamenodeRestart:
    def test_a_restarted_namenode_serves_the_files(self):
        fs, data = hybrid_fs()
        restarted(fs)
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []

    def test_restart_mid_transcode_resumes_at_the_unstaged_groups(self):
        fs, data = hybrid_fs(n_kb=192)
        fs.transcode("f", CC69)
        target = ECScheme(CodeKind.CC, 12, 15)
        fs.schedule_transcode("f", target)
        groups = fs.namenode.utm["f"].groups
        for group in groups[:2]:
            fs.transcoder.execute_group(group)
        nn = restarted(fs)
        meta = nn.lookup("f")
        assert meta.state is FileState.TRANSCODING
        assert meta.scheme == CC69  # old metadata authoritative until the switch
        assert np.array_equal(fs.read_file("f"), data)
        assert nn.utm["f"].pending_groups() == groups[2:]
        assert audit(fs) == []  # the staged parities are still answered for
        fs.transcoder.run_pending("f")
        assert nn.lookup("f").scheme == target
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []

    def test_a_restart_starts_an_empty_queue_the_heartbeat_refills(self):
        """Queued tasks hold the old process's files: the restarted
        namenode's queue starts empty, and the heartbeat derives the
        repairs from the recovered metadata."""
        fs, data = hybrid_fs()
        fs.transcode("f", CC69)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        old = fs.namenode.lookup("f")
        fs.scheduler.submit(StripeRepairTask(old, [old.stripes[0].data[0]]))
        policy = fs.scheduler.policy
        nn = restarted(fs)
        assert not fs.scheduler.has_pending() and fs.scheduler.policy is policy
        monitor.run_ticks(2)
        chunk = nn.lookup("f").stripes[0].data[0]
        assert chunk.node_id != victim
        assert old.stripes[0].data[0].node_id == victim  # the old process's copy
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []

    def test_chunk_ids_stay_unique_after_restart(self):
        fs, data = hybrid_fs()
        before = fs.namenode.next_chunk_id("x")
        after = restarted(fs).next_chunk_id("x")
        assert before != after
