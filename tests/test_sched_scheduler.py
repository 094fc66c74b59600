"""MaintenanceScheduler behavior: admission, budgets, retries, accounting.

Covers the scheduler standalone (CallbackTasks, no filesystem) and wired
into MorphFS through the heartbeat loop.
"""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.sched import (
    CallbackTask,
    MaintenanceScheduler,
    SchedulerPolicy,
    ScrubTask,
    TaskClass,
    TaskCost,
    TaskState,
)

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def hybrid_fs(seed=1, n_kb=96, **kw):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], **kw)
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    return fs, data


def io_task(order, name, klass=TaskClass.REPAIR, node="n1", nbytes=10):
    return CallbackTask(
        lambda: order.append(name),
        klass=klass,
        charges={node: TaskCost(disk_bytes=nbytes)},
        label=name,
    )


class TestExecutionOrder:
    def test_priority_bands_respected_within_a_tick(self):
        sched = MaintenanceScheduler()
        order = []
        sched.submit(io_task(order, "scrub", TaskClass.SCRUB))
        sched.submit(io_task(order, "transcode", TaskClass.TRANSCODE))
        sched.submit(io_task(order, "repair", TaskClass.REPAIR))
        sched.submit(io_task(order, "critical", TaskClass.CRITICAL_REPAIR))
        report = sched.run_tick()
        assert order == ["critical", "repair", "transcode", "scrub"]
        assert len(report.executed) == 4
        assert not sched.has_pending()


class TestBudgets:
    def test_budget_spreads_work_across_ticks(self):
        policy = SchedulerPolicy(disk_bytes_per_tick=25)
        sched = MaintenanceScheduler(policy=policy)
        order = []
        for i in range(6):
            sched.submit(io_task(order, f"t{i}", nbytes=10))
        per_tick = []
        while sched.has_pending():
            report = sched.run_tick()
            per_tick.append(len(report.executed))
        # 25 bytes/tick admits 2 x 10-byte tasks per tick on node n1.
        assert per_tick == [2, 2, 2]
        assert order == [f"t{i}" for i in range(6)]

    def test_per_node_budgets_are_independent(self):
        policy = SchedulerPolicy(disk_bytes_per_tick=10)
        sched = MaintenanceScheduler(policy=policy)
        order = []
        sched.submit(io_task(order, "a1", node="a", nbytes=10))
        sched.submit(io_task(order, "b1", node="b", nbytes=10))
        report = sched.run_tick()
        assert len(report.executed) == 2  # different nodes, both fit

    def test_a_blocked_head_banks_budget_for_urgent_work(self):
        policy = SchedulerPolicy(disk_bytes_per_tick=10)
        sched = MaintenanceScheduler(policy=policy)
        order = []
        sched.submit(io_task(order, "big-repair", TaskClass.REPAIR, nbytes=8))
        sched.submit(io_task(order, "small-scrub", TaskClass.SCRUB, nbytes=5))
        sched.budgets.charge("n1", disk_bytes=15)  # in debt before tick 1
        r1 = sched.run_tick()  # refills to 5: head (8) doesn't fit
        # The scrub COULD fit in the remaining 5 but is held back so the
        # bucket banks up for the more urgent repair.
        assert r1.executed == [] and r1.deferred_budget == 2
        r2 = sched.run_tick()  # refilled to 10 (one tick's rate): head runs
        assert [t.label for t in r2.executed] == ["big-repair"]
        r3 = sched.run_tick()  # scrub follows once budget refills
        assert [t.label for t in r3.executed] == ["small-scrub"]

    def test_metadata_only_bypasses_budget_exhaustion(self):
        policy = SchedulerPolicy(disk_bytes_per_tick=10)
        sched = MaintenanceScheduler(policy=policy)
        sched.budgets.charge("n1", disk_bytes=1e9)  # deep debt: no overdraft
        order = []
        sched.submit(io_task(order, "blocked", TaskClass.REPAIR, nbytes=100_000))
        meta_task = CallbackTask(
            lambda: order.append("meta"), klass=TaskClass.TRANSCODE, label="meta"
        )
        meta_task.metadata_only = True
        sched.submit(meta_task)
        report = sched.run_tick()
        assert order == ["meta"]
        assert report.deferred_budget >= 1


class TestAdmission:
    """A task that lists per-node charges is admitted on those nodes; any
    other IO task may touch any live node for any number of bytes, so it
    waits until every live node's buckets are full, then runs and is
    charged what its window metered."""

    RATE = 1 << 20

    def budgeted(self):
        fs, _data = hybrid_fs()
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=self.RATE, net_bytes_per_tick=self.RATE)
        )
        return fs, fs.scheduler

    def test_an_unlisted_task_waits_for_full_buckets_then_pays_what_it_moved(self):
        fs, sched = self.budgeted()
        sched.budgets.charge(sorted(fs.datanodes)[0], disk_bytes=1.5 * self.RATE)
        first, second = sched.submit(ScrubTask()), sched.submit(ScrubTask())
        r1 = sched.run_tick()  # one node refilled to half a tick: both wait
        assert r1.executed == [] and r1.deferred_budget == 2
        before = per_node(fs)
        r2 = sched.run_tick()  # every bucket full: one runs, and only one
        reference = moved(before, per_node(fs))
        assert r2.executed == [first] and r2.deferred_budget == 1
        assert reference
        for node_id in fs.datanodes:
            disk, net, _cpu = reference.get(node_id, (0.0, 0.0, 0.0))
            budget = sched.budgets.node(node_id)
            assert (budget.disk.tokens, budget.net.tokens) == (self.RATE - disk, self.RATE - net)
        assert sched.run_tick().executed == [second]

    def test_a_dead_nodes_debt_holds_nothing(self):
        fs, sched = self.budgeted()
        victim = sorted(fs.datanodes)[0]
        sched.budgets.charge(victim, disk_bytes=1e12)
        fs.cluster.fail_node(victim)
        task = sched.submit(ScrubTask())
        assert sched.run_tick().executed == [task]

    def test_a_listed_task_is_admitted_on_its_own_nodes(self):
        fs, sched = self.budgeted()
        busy, idle = sorted(fs.datanodes)[:2]
        sched.budgets.charge(busy, disk_bytes=1.5 * self.RATE)
        order = []
        sched.submit(io_task(order, "idle", node=idle, nbytes=self.RATE))
        sched.submit(io_task(order, "busy", node=busy, nbytes=self.RATE // 2))
        sched.submit(CallbackTask(lambda: order.append("unlisted"), label="unlisted"))
        r1 = sched.run_tick()  # busy refilled to half: its half-tick task fits
        assert order == ["idle", "busy"] and r1.deferred_budget == 1
        assert sched.budgets.node(idle).disk.tokens == sched.budgets.node(busy).disk.tokens == 0
        r2 = sched.run_tick()  # both refilled full: the unlisted task runs
        assert order == ["idle", "busy", "unlisted"] and r2.disk_bytes == 0


class TestRetries:
    def test_failure_retries_with_exponential_backoff_then_dead_letters(self):
        sched = MaintenanceScheduler(policy=SchedulerPolicy(max_attempts=3))
        boom = RuntimeError("disk on fire")

        def fail():
            raise boom

        task = sched.submit(CallbackTask(fail, label="doomed"))
        attempt_ticks = []
        for _ in range(12):
            report = sched.run_tick()
            if report.failed:
                attempt_ticks.append(sched.tick_count)
            if report.dead_lettered:
                break
        # Backoff: attempt at tick 1, then +1, then +2.
        assert attempt_ticks == [1, 2, 4]
        assert task.state is TaskState.DEAD
        assert task.attempts == 3
        assert task.last_error is boom
        assert sched.dead_letter == [task]
        assert not sched.has_pending()

    def test_success_after_retry_leaves_no_dead_letter(self):
        sched = MaintenanceScheduler()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise RuntimeError("transient")
            return "ok"

        task = sched.submit(CallbackTask(flaky, label="flaky"))
        sched.run_until_drained()
        assert task.state is TaskState.DONE
        assert task.result == "ok"
        assert sched.dead_letter == []


class TestMorphFSIntegration:
    def test_budgeted_repairs_spread_over_heartbeats_then_complete(self):
        fs, data = hybrid_fs(n_kb=96)
        # One chunk repair worst-case: (k+1) * 4 KB disk with k=6 -> 28 KB.
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=30 * KB)
        )
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        n_lost = len(fs.namenode.chunks_on_node(victim))
        fs.cluster.fail_node(victim)
        reports = [monitor.tick() for _ in range(40)]
        recovered = sum(r.chunks_recovered for r in reports)
        assert n_lost >= 2
        assert recovered == n_lost
        # Throttling actually spread the work over multiple ticks.
        busy_ticks = [r for r in reports if r.chunks_recovered]
        assert len(busy_ticks) > 1
        assert sum(r.scheduler.deferred_budget for r in reports) > 0
        assert np.array_equal(fs.read_file("f"), data)

    def test_scheduler_records_per_class_accounting(self):
        fs, data = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        monitor.tick()
        ledger = fs.metrics.maintenance
        repair_classes = {"repair", "critical_repair"} & set(ledger)
        assert repair_classes
        assert sum(ledger[c].tasks_completed for c in repair_classes) >= 1
        assert sum(ledger[c].disk_bytes for c in repair_classes) > 0

    def test_free_transition_completes_in_one_tick_under_exhausted_budget(self):
        fs, data = hybrid_fs()
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=1.0)
        )
        for node_id in fs.datanodes:
            fs.scheduler.budgets.charge(node_id, disk_bytes=1e12)  # deep debt
        fs.schedule_transcode("f", CC69)
        report = fs.scheduler.run_tick()
        assert [t.describe() for t in report.executed] == ["free-transition f"]
        meta = fs.namenode.lookup("f")
        assert meta.scheme == CC69
        assert meta.replica_blocks == []
        assert np.array_equal(fs.read_file("f"), data)

    def test_scheduled_convertible_transcode_runs_via_heartbeats(self):
        fs, data = hybrid_fs(n_kb=192)
        fs.transcode("f", CC69)
        fs.schedule_transcode(
            "f", ECScheme(CodeKind.CC, 12, 15), deadline=fs.clock + 60.0
        )
        assert fs.namenode.utm["f"].deadline == pytest.approx(fs.clock + 60.0)
        monitor = HeartbeatMonitor(fs)
        for _ in range(10):
            monitor.tick()
            if not fs.namenode.utm:
                break
        assert not fs.namenode.utm
        assert fs.namenode.lookup("f").scheme == ECScheme(CodeKind.CC, 12, 15)
        assert np.array_equal(fs.read_file("f"), data)

    def test_repair_task_skips_if_node_returns_before_execution(self):
        fs, data = hybrid_fs()
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=1 * KB)
        )
        for node_id in fs.datanodes:
            fs.scheduler.budgets.charge(node_id, disk_bytes=1e12)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        monitor.tick()  # declares dead; repairs blocked on budget
        assert fs.scheduler.has_pending()
        fs.cluster.recover_node(victim)
        fs.datanodes[victim].recover()
        # Lift the throttle so the queued tasks actually execute.
        fs.scheduler.policy = SchedulerPolicy()
        fs.scheduler.budgets = MaintenanceScheduler(fs).budgets
        report = monitor.tick()
        assert report.chunks_recovered == 0  # everything skipped, not repaired
        assert all(
            t.result == "skipped" for t in report.scheduler.executed
        )


class TestStripeRepairBudgets:
    """Stripe-granular repair tasks under the byte budgets: one task a
    damaged group, and the per-node per-tick cap is never exceeded."""

    SCHEMES = [
        HybridScheme(1, CC69),
        CC69,
        ECScheme(CodeKind.CC, 12, 15),
        ECScheme(CodeKind.RS, 6, 9),
        ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2),
        ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2),
    ]

    @staticmethod
    def _two_node_burst(scheme, **fs_kw):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], **fs_kw)
        data = np.random.default_rng(4).integers(0, 256, 192 * KB, dtype=np.uint8)
        fs.write_file("f", data, scheme)
        homes = sorted({c.node_id for c in fs.namenode.lookup("f").all_chunks()})
        for victim in homes[:2]:
            fs.cluster.fail_node(victim)
        return fs, data

    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    def test_each_damaged_group_is_repaired_by_one_task(self, scheme):
        from repro.dfs.recovery import RecoveryManager
        from repro.sched import StripeRepairTask

        fs, data = self._two_node_burst(scheme)
        recovery = RecoveryManager(fs)
        groups = recovery.damaged_groups(recovery.lost_chunks())
        assert any(len(chunks) > 1 for _m, _h, chunks in groups) or len(groups) > 1
        for meta, _home, chunks in groups:
            assert StripeRepairTask(meta, chunks).execute(fs) == "repaired"
        assert recovery.lost_chunks() == []
        assert np.array_equal(fs.read_file("f"), data)

    def test_no_node_exceeds_its_per_tick_cap(self):
        cap = 64 * KB  # fits the largest stripe task: (12 + 2) * 4 KiB
        fs, data = self._two_node_burst(ECScheme(CodeKind.CC, 12, 15))
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=cap, net_bytes_per_tick=cap)
        )
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))

        def per_node():
            return {
                n: (m.disk_bytes_read + m.disk_bytes_written, m.net_bytes_in + m.net_bytes_out)
                for n, m in fs.metrics.nodes.items()
            }

        recovered, busy_ticks, deferred = 0, 0, 0
        for _ in range(60):
            before = per_node()
            report = monitor.tick()
            for node_id, (disk, net) in per_node().items():
                disk0, net0 = before.get(node_id, (0.0, 0.0))
                assert disk - disk0 <= cap and net - net0 <= cap, node_id
            recovered += report.chunks_recovered
            busy_ticks += bool(report.chunks_recovered)
            deferred += report.scheduler.deferred_budget
        assert recovered > 0 and busy_ticks > 1 and deferred > 0
        from repro.dfs.recovery import RecoveryManager

        assert RecoveryManager(fs).lost_chunks(monitor.declared_dead()) == []
        assert np.array_equal(fs.read_file("f"), data)


def per_node(fs):
    """Every node's disk read + written, network in + out and CPU."""
    return {
        node: (m.disk_bytes_total, m.net_bytes_total, m.cpu_seconds)
        for node, m in fs.metrics.nodes.items()
    }


def moved(before, after):
    """The reference a window must match: a before/after diff of every
    node's counters, the nodes that moved nothing left out."""
    out = {}
    for node, now in after.items():
        delta = tuple(a - b for a, b in zip(now, before.get(node, (0.0, 0.0, 0.0))))
        if any(delta):
            out[node] = delta
    return out


def row(entry):
    return entry.disk_bytes, entry.net_bytes, entry.cpu_seconds


class TestMeteringWindow:
    """The scheduler charges each task what the metering window around it
    saw on the nodes it touched; that must be what a diff of every node's
    counters says, per node and in the ledger."""

    LRCC = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)

    @staticmethod
    def budgeted(fs, rate):
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=rate, net_bytes_per_tick=rate)
        )
        return fs.scheduler

    @staticmethod
    def spy_on_charges(sched, monkeypatch):
        """Every budget charge the scheduler makes, summed per node."""
        charged = {}
        real = sched.budgets.charge

        def charge(node_id, disk_bytes=0.0, net_bytes=0.0):
            disk, net = charged.get(node_id, (0.0, 0.0))
            charged[node_id] = (disk + disk_bytes, net + net_bytes)
            real(node_id, disk_bytes, net_bytes)

        monkeypatch.setattr(sched.budgets, "charge", charge)
        return charged

    @staticmethod
    def assert_charged(charged, reference):
        assert charged == {
            node: (disk, net) for node, (disk, net, _cpu) in reference.items() if disk or net
        }

    @staticmethod
    def assert_ledger(ledger, classes, rows_before, reference):
        disk, net, cpu = (sum(column) for column in zip(*reference.values()))
        got = [
            sum(row(ledger[c])[i] - rows_before[c][i] for c in classes) for i in range(3)
        ]
        assert got[:2] == [disk, net]
        assert got[2] == pytest.approx(cpu)

    def test_repairs_and_a_conversion_group_are_charged_what_they_moved(
        self, monkeypatch
    ):
        """The repairs drain first, one a tick (a repair lists no charges,
        so it waits for full buckets); then one conversion group runs."""
        fs, data = hybrid_fs(n_kb=96)
        fs.transcode("f", CC69)
        sched = self.budgeted(fs, 1 << 20)  # fits every task: nothing overdrafts
        charged = self.spy_on_charges(sched, monkeypatch)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=1))
        ledger = fs.metrics.maintenance
        fs.cluster.fail_node(fs.namenode.lookup("f").stripes[0].data[0].node_id)

        def repairs():
            reports = [monitor.tick()]
            for _ in range(20):
                if not sched.has_pending():
                    break
                reports.append(monitor.tick())
            assert not sched.has_pending() and len(reports) > 1  # one a tick
            return reports

        def one_group():
            fs.schedule_transcode("f", self.LRCC)
            return [monitor.tick()]

        for classes, run in (
            (("repair", "critical_repair"), repairs),
            (("transcode",), one_group),
        ):
            rows_before = {c: row(ledger[c]) for c in classes}
            charged.clear()
            before = per_node(fs)
            reports = run()
            reference = moved(before, per_node(fs))
            assert reports[-1].scheduler.executed
            assert not any(r.scheduler.failed for r in reports)
            assert reference and all(disk for disk, _net, _cpu in reference.values())
            self.assert_charged(charged, reference)
            self.assert_ledger(ledger, classes, rows_before, reference)
        assert reports[0].transcode_groups_run == 1
        assert sum(net for _disk, net in charged.values()) > 0
        for _ in range(20):
            if "f" not in fs.namenode.utm:
                break
            monitor.tick()
        assert fs.namenode.lookup("f").scheme == self.LRCC
        assert np.array_equal(fs.read_file("f"), data)

    def test_an_inline_transcode_inside_a_task_charges_both_windows(self, monkeypatch):
        fs, data = hybrid_fs(n_kb=96)
        fs.transcode("f", CC69)
        sched = self.budgeted(fs, 1 << 20)
        charged = self.spy_on_charges(sched, monkeypatch)
        sched.submit(CallbackTask(
            lambda fs: fs.transcode("f", self.LRCC), klass=TaskClass.SCRUB, label="inline"
        ))
        ledger = fs.metrics.maintenance
        rows_before = {c: row(ledger[c]) for c in ("scrub", "transcode")}
        before = per_node(fs)
        report = sched.run_tick()
        reference = moved(before, per_node(fs))
        assert [task.label for task in report.executed] == ["inline"]
        self.assert_charged(charged, reference)
        # The task's own row and the inline groups' row both hold it all.
        self.assert_ledger(ledger, ("scrub",), rows_before, reference)
        self.assert_ledger(ledger, ("transcode",), rows_before, reference)
        assert np.array_equal(fs.read_file("f"), data)

    def test_a_task_that_overruns_its_budget_is_charged_in_full(self, monkeypatch):
        fs, data = hybrid_fs(n_kb=96)
        fs.transcode("f", CC69)
        rate = 1 * KB  # under one 4 KiB chunk: every group overdrafts
        sched = self.budgeted(fs, rate)
        charged = self.spy_on_charges(sched, monkeypatch)
        fs.schedule_transcode("f", self.LRCC)
        monitor = HeartbeatMonitor(fs)
        before = per_node(fs)
        report = monitor.tick()
        reference = moved(before, per_node(fs))
        # One group, admitted against full buckets; the next waits.
        assert report.transcode_groups_run == 1 and report.scheduler.deferred_budget
        self.assert_charged(charged, reference)
        assert max(disk for disk, _net in charged.values()) > rate
        for node_id in fs.datanodes:
            budget = sched.budgets.node(node_id)
            disk, net = charged.get(node_id, (0.0, 0.0))
            assert (budget.disk.tokens, budget.net.tokens) == (rate - disk, rate - net)
        for _ in range(20):
            if "f" not in fs.namenode.utm:
                break
            monitor.tick()
        assert fs.namenode.lookup("f").scheme == self.LRCC
        assert np.array_equal(fs.read_file("f"), data)

    def test_a_scheduler_without_a_filesystem_still_ticks(self):
        sched = MaintenanceScheduler(policy=SchedulerPolicy(disk_bytes_per_tick=100))
        order = []
        sched.submit(io_task(order, "listed", nbytes=30))
        sched.submit(CallbackTask(lambda: order.append("unlisted"), label="unlisted"))
        report = sched.run_tick()
        assert order == ["listed", "unlisted"]
        assert report.disk_bytes == 30 and report.net_bytes == 0
        assert sched.budgets.node("n1").disk.tokens == 70
