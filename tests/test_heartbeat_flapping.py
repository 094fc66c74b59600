"""Flapping nodes and scrub gating in the heartbeat monitor (§6.1).

A node that repeatedly goes quiet for one beat less than the declaration
threshold and then returns must never be declared dead, and must never
trigger reconstruction IO — transient blips are the common case in large
clusters and repair storms for them would swamp foreground traffic.
"""

import numpy as np
import pytest

import repro.dfs.integrity as integrity
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.sched.tasks import StripeRepairTask

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def hybrid_fs(seed=1, n_kb=96):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    return fs, data


class TestFlappingNode:
    @pytest.mark.parametrize("dead_after_missed", [2, 3, 5])
    def test_flapping_node_is_never_declared_dead(self, dead_after_missed):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(
            fs, HeartbeatConfig(dead_after_missed=dead_after_missed)
        )
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        for _cycle in range(4):
            fs.cluster.fail_node(victim)
            # Miss one beat fewer than the declaration threshold...
            for _ in range(dead_after_missed - 1):
                report = monitor.tick()
                assert report.newly_dead == []
            # ...then come back: the miss counter must reset fully.
            fs.cluster.recover_node(victim)
            report = monitor.tick()
            assert report.newly_dead == []
            assert victim not in monitor.declared_dead()
        assert np.array_equal(fs.read_file("f"), data)

    def test_flapping_node_never_enqueues_repair_tasks(self):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=3))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        for _cycle in range(5):
            fs.cluster.fail_node(victim)
            reports = [monitor.tick(), monitor.tick()]
            fs.cluster.recover_node(victim)
            reports.append(monitor.tick())
            for report in reports:
                assert report.chunks_recovered == 0
                assert not any(
                    isinstance(t, StripeRepairTask)
                    for t in report.scheduler.executed
                )
            assert not any(
                isinstance(t, StripeRepairTask) for t in fs.scheduler.queue.backlog()
            )
        # Chunks were never re-homed away from the flapping node.
        meta = fs.namenode.lookup("f")
        assert any(c.node_id == victim for c in meta.all_chunks())

    def test_task_whose_chunks_partly_came_back_repairs_only_the_rest(self):
        """Two nodes die and take two chunks of one stripe; one returns
        before the (throttled) repair runs. The stripe's task sheds the
        returned chunk and rebuilds only the other."""
        from repro.sched import MaintenanceScheduler, SchedulerPolicy

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(2).integers(0, 256, 24 * KB, dtype=np.uint8)
        fs.write_file("f", data, CC69)  # a single CC(6,9) stripe
        stripe = fs.namenode.lookup("f").stripes[0]
        gone, flapper = stripe.data[1], stripe.parities[0]
        gone_node, flap_node, flap_id = gone.node_id, flapper.node_id, flapper.chunk_id
        # Near-zero budget: the repair is queued but never admitted.
        fs.scheduler = MaintenanceScheduler(fs, SchedulerPolicy(disk_bytes_per_tick=1.0))
        for node_id in fs.datanodes:
            fs.scheduler.budgets.charge(node_id, disk_bytes=1e12)
        fs.cluster.fail_node(gone_node)
        fs.cluster.fail_node(flap_node)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        monitor.tick()
        (task,) = fs.scheduler.queue.backlog()
        assert isinstance(task, StripeRepairTask)
        assert {id(c) for c in task.chunks} == {id(gone), id(flapper)}

        fs.cluster.recover_node(flap_node)
        report = monitor.tick()
        assert report.repairs_cancelled == 1
        assert [id(c) for c in task.chunks] == [id(gone)]
        assert task.result != "cancelled" and fs.scheduler.queue.backlog() == [task]

        # Lift the throttle: only the chunk still lost is rebuilt.
        fs.scheduler.policy = SchedulerPolicy()
        fs.scheduler.budgets = MaintenanceScheduler(fs).budgets
        writes_before = fs.metrics.disk_bytes_written
        report = monitor.tick()
        assert report.chunks_recovered == 1
        assert fs.metrics.disk_bytes_written - writes_before == 4 * KB
        assert gone.node_id != gone_node
        assert (flapper.node_id, flapper.chunk_id) == (flap_node, flap_id)
        assert np.array_equal(fs.read_file("f"), data)

    def test_task_rechecks_chunks_that_returned_without_a_heartbeat(self):
        """The task's own re-check covers a return the monitor has not
        seen yet: it is executed directly, with one of two chunks back."""
        from repro.dfs.recovery import RecoveryManager

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(2).integers(0, 256, 24 * KB, dtype=np.uint8)
        fs.write_file("f", data, CC69)
        meta = fs.namenode.lookup("f")
        stripe = meta.stripes[0]
        fs.cluster.fail_node(stripe.data[0].node_id)
        fs.cluster.fail_node(stripe.data[4].node_id)
        recovery = RecoveryManager(fs)
        ((_meta, _home, chunks),) = recovery.damaged_groups(recovery.lost_chunks())
        task = StripeRepairTask(meta, chunks)
        fs.cluster.recover_node(stripe.data[4].node_id)
        assert task.execute(fs) == "repaired"
        assert [id(c) for c in task.chunks] == [id(stripe.data[0])]
        assert task.execute(fs) == "skipped" and task.chunks == []
        assert np.array_equal(fs.read_file("f"), data)

    def test_miss_counter_resets_on_single_beat(self):
        """One good beat wipes the whole miss history, not just one miss."""
        fs, _ = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        victim = fs.cluster.nodes[0].node_id
        fs.cluster.fail_node(victim)
        monitor.tick()  # missed 1 of 2
        fs.cluster.recover_node(victim)
        monitor.tick()  # beat: counter back to zero
        fs.cluster.fail_node(victim)
        report = monitor.tick()  # missed 1 of 2 again — still alive
        assert report.newly_dead == []
        assert victim not in monitor.declared_dead()


class TestScrubGating:
    def test_scrub_every_ticks_zero_never_instantiates_scrubber(
        self, monkeypatch
    ):
        fs, _ = hybrid_fs()

        def explode(*args, **kwargs):
            raise AssertionError("Scrubber must not run with scrubbing off")

        monkeypatch.setattr(integrity, "Scrubber", explode)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(scrub_every_ticks=0))
        for _ in range(25):
            report = monitor.tick()
            assert report.chunks_scrubbed == 0

    def test_scrub_every_ticks_runs_on_cadence(self):
        fs, _ = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(scrub_every_ticks=3))
        scrub_ticks = [
            monitor.tick().chunks_scrubbed > 0 for _ in range(6)
        ]
        assert scrub_ticks == [False, False, True, False, False, True]
