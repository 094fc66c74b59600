"""Heartbeat-driven maintenance and hybrid appendability (§4.2, §6.1)."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.dfs.integrity import corrupt_chunk

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def hybrid_fs(seed=1, n_kb=96):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    return fs, data


def kill(fs, node_id):
    fs.cluster.fail_node(node_id)
    fs.datanodes[node_id].fail()


class TestHeartbeatMonitor:
    def test_transient_blip_never_triggers_recovery(self):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=3))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        kill(fs, victim)
        r1 = monitor.tick()
        r2 = monitor.tick()
        assert r1.newly_dead == [] and r2.newly_dead == []
        assert r1.chunks_recovered == 0
        # Node comes back before declaration: nothing happened.
        fs.cluster.recover_node(victim)
        fs.datanodes[victim].recover()
        r3 = monitor.tick()
        assert monitor.declared_dead() == set()
        assert r3.chunks_recovered == 0

    def test_sustained_failure_declares_and_recovers(self):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        kill(fs, victim)
        monitor.tick()
        report = monitor.tick()
        assert victim in report.newly_dead
        assert report.chunks_recovered >= 1
        assert np.array_equal(fs.read_file("f"), data)
        # Everything re-homed to live nodes.
        for chunk in fs.namenode.lookup("f").all_chunks():
            assert fs.datanodes[chunk.node_id].is_alive

    def test_recovered_node_rejoins(self):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        victim = fs.cluster.nodes[0].node_id
        kill(fs, victim)
        monitor.tick()
        assert victim in monitor.declared_dead()
        fs.cluster.recover_node(victim)
        fs.datanodes[victim].recover()
        report = monitor.tick()
        assert victim in report.newly_alive
        assert victim not in monitor.declared_dead()

    def test_heartbeat_drives_transcode_in_bounded_steps(self):
        fs, data = hybrid_fs(n_kb=192)  # 8 stripes -> 4 merge groups
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        groups, parities = fs._build_groups(meta, ECScheme(CodeKind.CC, 12, 15))
        fs.namenode.enqueue_transcode("f", ECScheme(CodeKind.CC, 12, 15), groups, parities)
        monitor = HeartbeatMonitor(fs)
        done_in = 0
        for _ in range(10):
            report = monitor.tick()
            done_in += 1
            if not fs.namenode.utm:
                break
        assert not fs.namenode.utm  # finalized
        assert fs.namenode.lookup("f").scheme == ECScheme(CodeKind.CC, 12, 15)
        assert np.array_equal(fs.read_file("f"), data)

    def test_periodic_scrub_repairs_corruption(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        corrupt_chunk(fs, meta.stripes[0].data[0])
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(scrub_every_ticks=2))
        r1 = monitor.tick()
        assert r1.chunks_scrubbed == 0  # not a scrub tick
        r2 = monitor.tick()
        assert r2.chunks_scrubbed > 0
        assert r2.corruptions_repaired == 1
        assert np.array_equal(fs.read_file("f"), data)

    def test_clock_advances(self):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(interval_s=5.0))
        monitor.run_ticks(4)
        assert fs.clock == pytest.approx(20.0)


class TestAppends:
    def test_append_roundtrip(self):
        fs, data = hybrid_fs(n_kb=24)
        extra = np.random.default_rng(9).integers(0, 256, 40 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        combined = np.concatenate([data, extra])
        assert np.array_equal(fs.read_file("f"), combined)

    def test_nothing_stays_buffered(self):
        """A temporary replica leaves its striper's buffer cache once the
        stripe is stored — after a write, after an append of full and of
        open stripes, after a delete. (Appended full stripes used to keep
        theirs forever: dropped by a prefix their ids never had.)"""

        def nothing_buffered():
            assert fs.memory_used() == 0
            assert all(n.memory_in_use_bytes == 0 for n in fs.metrics.nodes.values())
            assert audit(fs) == []

        fs, data = hybrid_fs(n_kb=24)  # one full stripe
        nothing_buffered()
        rng = np.random.default_rng(10)
        fs.append_file("f", rng.integers(0, 256, 48 * KB, dtype=np.uint8))  # two full
        nothing_buffered()
        fs.append_file("f", rng.integers(0, 256, 30 * KB, dtype=np.uint8))  # full + open
        nothing_buffered()
        fs.close_file("f")
        nothing_buffered()
        fs.delete_file("f")
        nothing_buffered()
        assert fs.capacity_used() == 0

    def test_open_stripe_has_no_parities(self):
        fs, data = hybrid_fs(n_kb=24)  # exactly one full stripe
        fs.append_file("f", np.ones(10 * KB, dtype=np.uint8))
        meta = fs.namenode.lookup("f")
        assert meta.stripes[-1].parities == []
        assert meta.stripes[-1].k < 6

    def test_open_stripe_keeps_extra_replica(self):
        """Durability of the open stripe comes from c+1 replicas (§4.2)."""
        fs, data = hybrid_fs(n_kb=24)
        fs.append_file("f", np.ones(10 * KB, dtype=np.uint8))
        meta = fs.namenode.lookup("f")
        assert len(meta.replica_blocks[-1].copies) == 2  # Hy(1) + 1 extra

    def test_close_encodes_tail_and_trims_replica(self):
        fs, data = hybrid_fs(n_kb=24)
        extra = np.random.default_rng(4).integers(0, 256, 10 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        fs.close_file("f")
        meta = fs.namenode.lookup("f")
        tail = meta.stripes[-1]
        assert len(tail.parities) == 3  # same parity count, narrower stripe
        assert len(meta.replica_blocks[-1].copies) == 1
        combined = np.concatenate([data, extra])
        assert np.array_equal(fs.read_file("f"), combined)

    def test_close_meters_the_tail_chunks_it_gathers(self):
        """A 3-chunk open tail sealed at its first data home: 2 data
        chunks in, 3 parities out — 5 chunks of network, none free."""
        fs, _ = hybrid_fs(n_kb=24)
        fs.append_file("f", np.ones(10 * KB, dtype=np.uint8))
        before = fs.metrics.net_bytes_total
        fs.close_file("f")
        assert fs.metrics.net_bytes_total - before == (2 + 3) * 4 * KB

    def test_closed_tail_survives_failures(self):
        fs, data = hybrid_fs(n_kb=24)
        extra = np.random.default_rng(5).integers(0, 256, 10 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        fs.close_file("f")
        meta = fs.namenode.lookup("f")
        kill(fs, meta.stripes[-1].data[0].node_id)
        combined = np.concatenate([data, extra])
        assert np.array_equal(fs.read_file("f"), combined)

    def test_multiple_appends_complete_stripes(self):
        fs, data = hybrid_fs(n_kb=24)
        pieces = [data]
        rng = np.random.default_rng(6)
        for i in range(4):
            extra = rng.integers(0, 256, 9 * KB, dtype=np.uint8)
            fs.append_file("f", extra)
            pieces.append(extra)
        assert np.array_equal(fs.read_file("f"), np.concatenate(pieces))
        meta = fs.namenode.lookup("f")
        # All but possibly the last stripe are sealed.
        for stripe in meta.stripes[:-1]:
            assert stripe.parities

    def test_open_stripe_survives_replica_failure(self):
        fs, data = hybrid_fs(n_kb=24)
        extra = np.random.default_rng(7).integers(0, 256, 10 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        meta = fs.namenode.lookup("f")
        kill(fs, meta.replica_blocks[-1].copies[0].node_id)
        combined = np.concatenate([data, extra])
        assert np.array_equal(fs.read_file("f"), combined)

    def test_append_to_non_hybrid_rejected(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        fs.write_file("g", np.zeros(24 * KB, np.uint8), CC69)
        with pytest.raises(ValueError):
            fs.append_file("g", np.ones(KB, np.uint8))

    def test_transcode_after_close(self):
        """A closed appended file flows through the normal lifetime."""
        fs, data = hybrid_fs(n_kb=48)
        extra = np.random.default_rng(8).integers(0, 256, 48 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        fs.close_file("f")
        fs.transcode("f", CC69)
        fs.transcode("f", ECScheme(CodeKind.CC, 12, 15))
        combined = np.concatenate([data, extra])
        assert np.array_equal(fs.read_file("f"), combined)


LRCC1222 = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


class TestTailSealedWithTheCodeItIsReadWith:
    """One sealer, and it asks ``codec_for_stripe`` — what reads and
    repairs decode with. (``close_file`` used to encode a short
    LRCC-family tail with a CC the decoder never built, so one dead data
    node made the file unreadable; the seal at the free transition
    refused the short tail outright.)"""

    @pytest.mark.parametrize("close_first", [True, False], ids=["close", "seal-at-transition"])
    @pytest.mark.parametrize("tail", ["full", "short"])
    @pytest.mark.parametrize("ec", [CC69, LRCC1222], ids=["CC(6,9)", "LRCC(12,2,2)"])
    def test_seal_then_degraded_read_and_clean_scrub(self, ec, tail, close_first):
        from repro.dfs.integrity import Scrubber

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        n_chunks = ec.k if tail == "full" else 5
        data = np.random.default_rng(11).integers(0, 256, n_chunks * 4 * KB, dtype=np.uint8)
        fs.write_file("f", np.zeros(0, np.uint8), HybridScheme(1, ec))
        fs.append_file("f", data)
        if close_first:
            fs.close_file("f")
        fs.transcode("f", ec)

        meta = fs.namenode.lookup("f")
        (stripe,) = meta.stripes
        assert (stripe.k, stripe.n, len(stripe.parities)) == (n_chunks, n_chunks + ec.r, ec.r)
        assert [p.kind for p in stripe.parities] == fs._parity_kinds(ec)
        assert audit(fs) == []

        report = Scrubber(fs).scan_and_repair()
        assert (report.corrupt, report.quarantined, report.repaired) == ([], [], 0)
        kill(fs, stripe.data[0].node_id)
        assert np.array_equal(fs.read_file("f"), data)
        report = Scrubber(fs).scan_and_repair()
        assert (report.corrupt, report.quarantined, report.repaired) == ([], [], 0)
        assert fs.memory_used() == 0
