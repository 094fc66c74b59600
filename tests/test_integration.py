"""Full-system integration: complete lifetimes under adversity.

These tests run the whole stack together — hybrid ingest, lifetime
transitions, heartbeat maintenance, failures, corruption, appends,
transcodes — and assert that data stays byte-identical and the IO ledger
stays consistent with the cost model throughout.
"""

import numpy as np
import pytest

from repro.core.lifecycle import (
    LifetimePhase,
    LifetimePolicy,
    LifetimeStage,
    morph_macrobench_policy,
)
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.dfs.integrity import Scrubber, corrupt_chunk
from repro.dfs.recovery import RecoveryManager

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


class TestFullLifetimeUnderFailures:
    def test_lifetime_with_mid_life_node_loss(self):
        """Ingest -> fail a node -> recover -> transcode chain -> verify."""
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(1).integers(0, 256, 192 * KB, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, CC69))
        victim = fs.namenode.lookup("f").stripes[1].data[2].node_id
        fs.cluster.fail_node(victim)
        RecoveryManager(fs).recover_all()
        fs.transcode("f", CC69)
        fs.transcode("f", ECScheme(CodeKind.CC, 12, 15))
        assert np.array_equal(fs.read_file("f"), data)

    def test_failure_during_transcode_then_recovery(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(2).integers(0, 256, 192 * KB, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, CC69))
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        fs.schedule_transcode("f", ECScheme(CodeKind.CC, 12, 15))
        groups = fs.namenode.utm["f"].groups
        # Execute half, then lose a node holding an old parity.
        for g in groups[: len(groups) // 2]:
            fs.transcoder.execute_group(g)
        victim = meta.stripes[-1].parities[0].node_id
        fs.cluster.fail_node(victim)
        # Old metadata is still authoritative; recovery rebuilds from it.
        RecoveryManager(fs).recover_all()
        assert np.array_equal(fs.read_file("f"), data)
        # Resume and finish.
        fs.transcoder.run_pending("f")
        assert fs.namenode.lookup("f").scheme == ECScheme(CodeKind.CC, 12, 15)
        assert np.array_equal(fs.read_file("f"), data)

    def test_corruption_failure_and_append_interleaved(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, CC69))
        # Corrupt a parity, append more data, fail a node, scrub, verify.
        corrupt_chunk(fs, fs.namenode.lookup("f").stripes[0].parities[0])
        extra = rng.integers(0, 256, 30 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        fs.close_file("f")
        victim = fs.namenode.lookup("f").stripes[-1].data[0].node_id
        fs.cluster.fail_node(victim)
        Scrubber(fs).scan_and_repair()
        RecoveryManager(fs).recover_all()
        assert np.array_equal(fs.read_file("f"), np.concatenate([data, extra]))

    def test_heartbeat_drives_a_lifetime_in_real_time(self):
        """Heartbeat maintenance while the file's age crosses each stage."""
        policy = morph_macrobench_policy()
        fs = MorphFS(chunk_size=4 * KB, future_widths=policy.ec_widths())
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(interval_s=30.0, dead_after_missed=2))
        data = np.random.default_rng(4).integers(0, 256, 160 * KB, dtype=np.uint8)
        fs.write_file("f", data, policy.stages[0].scheme)
        stage = 0
        victim_killed = False
        for _ in range(16):
            monitor.tick()
            if policy.stage_index_at(fs.clock) > stage:
                stage += 1
                fs.transcode("f", policy.stages[stage].scheme)
            if not victim_killed and fs.clock >= 120:
                fs.cluster.fail_node(fs.namenode.lookup("f").stripes[0].data[0].node_id)
                victim_killed = True
        meta = fs.namenode.lookup("f")
        assert meta.scheme == ECScheme(CodeKind.CC, 20, 23)
        assert np.array_equal(fs.read_file("f"), data)


class TestBaselineVsMorphConsistency:
    def test_identical_logical_state_different_cost(self):
        """Both systems end at the same logical state; Morph pays less."""
        rng = np.random.default_rng(5)
        datasets = {f"f{i}": rng.integers(0, 256, 48 * KB, dtype=np.uint8) for i in range(3)}

        baseline = BaselineDFS(chunk_size=4 * KB)
        morph = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        for name, data in datasets.items():
            baseline.write_file(name, data, Replication(3))
            morph.write_file(name, data, HybridScheme(1, CC69))
        for name in datasets:
            baseline.transcode(name, ECScheme(CodeKind.RS, 6, 9))
            baseline.transcode(name, ECScheme(CodeKind.RS, 12, 15))
            morph.transcode(name, CC69)
            morph.transcode(name, ECScheme(CodeKind.CC, 12, 15))
        for name, data in datasets.items():
            assert np.array_equal(baseline.read_file(name), data)
            assert np.array_equal(morph.read_file(name), data)
        assert baseline.capacity_used() == morph.capacity_used()
        assert morph.metrics.disk_bytes_total < 0.55 * baseline.metrics.disk_bytes_total

    def test_io_ledger_matches_cost_model(self):
        """Simulator-measured transcode IO equals the closed form."""
        from repro.codes.costmodel import convertible_cost

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(6).integers(0, 256, 192 * KB, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, CC69))
        fs.transcode("f", CC69)
        read0 = fs.metrics.disk_bytes_read
        write0 = fs.metrics.disk_bytes_written
        fs.transcode("f", ECScheme(CodeKind.CC, 12, 15))
        cost = convertible_cost(6, 3, 12, 3)
        logical = float(len(data))
        assert fs.metrics.disk_bytes_read - read0 == pytest.approx(cost.read * logical)
        assert fs.metrics.disk_bytes_written - write0 == pytest.approx(cost.write * logical)


class TestCustomPolicies:
    def test_service_a_like_policy_through_dfs(self):
        """narrow CC -> medium LRCC -> wide LRCC on real (small) stripes."""
        hy = HybridScheme(1, ECScheme(CodeKind.CC, 6, 9))
        med = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
        wide = ECScheme(CodeKind.LRCC, 24, 30, local_groups=4, r_global=2)
        policy = LifetimePolicy([
            LifetimeStage(0.0, hy, LifetimePhase.HOT),
            LifetimeStage(10.0, hy.ec, LifetimePhase.WARM),
            LifetimeStage(20.0, med, LifetimePhase.COOL),
            LifetimeStage(30.0, wide, LifetimePhase.FRIGID),
        ])
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12, 24])
        data = np.random.default_rng(7).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, hy)
        for stage in policy.stages[1:]:
            fs.transcode("f", stage.scheme)
        meta = fs.namenode.lookup("f")
        assert meta.scheme == wide
        assert np.array_equal(fs.read_file("f"), data)
        # Late-life repair is local: kill one node, read still fine.
        fs.cluster.fail_node(meta.stripes[0].data[3].node_id)
        assert np.array_equal(fs.read_file("f"), data)
