"""The maintenance scheduler: one tick = one bounded slice of work.

Each tick the scheduler refills the per-node budgets, ranks the ready
queue by effective priority (bands + deadline boosts + aging), and
admits tasks in order:

* metadata-only tasks always run — a zero-IO hybrid -> EC transition or
  a transcode finalize is never delayed by budget exhaustion;
* an IO task that lists its per-node charges runs when those fit the
  budgets; any other IO task has an unknown cost and runs only when
  every live node's buckets are full (so under a budget, one that moves
  bytes holds the next until the refill); when the most urgent IO task does not fit, lower-priority IO
  work is held back too so the buckets can fill for it (a stream of
  small tasks never starves a large urgent one);
* a task that raises is retried with exponential backoff, and after
  ``max_attempts`` failures lands in the dead-letter list — never
  silently dropped.

Actual bytes and CPU are metered by a window the filesystem's
:class:`~repro.cluster.metrics.IOMetrics` holds open around each
execution — per node, only the nodes the task touched — charged to the
budgets and recorded per task class into the same metrics object, so
benchmarks can read "repair moved X bytes, scrub moved Y" directly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import NOOP_OBS
from repro.sched.budget import BudgetManager
from repro.sched.policies import SchedulerPolicy, backoff_ticks
from repro.sched.queue import PriorityTaskQueue
from repro.sched.tasks import MaintenanceTask, TaskCost, TaskState

#: the cost of a task that lists no charges, on each live node
UNBOUNDED = TaskCost(float("inf"), float("inf"))


@dataclass
class SchedulerTickReport:
    """What one scheduler tick admitted, finished, deferred and buried."""

    tick: int
    executed: List[MaintenanceTask] = field(default_factory=list)
    failed: List[MaintenanceTask] = field(default_factory=list)
    dead_lettered: List[MaintenanceTask] = field(default_factory=list)
    deferred_budget: int = 0
    deferred_backoff: int = 0
    disk_bytes: float = 0.0
    net_bytes: float = 0.0


class MaintenanceScheduler:
    """Owns the queue, the budgets, and the execution loop."""

    def __init__(self, fs=None, policy: Optional[SchedulerPolicy] = None):
        self.fs = fs
        self.policy = policy or SchedulerPolicy()
        self.queue = PriorityTaskQueue()
        self.budgets = BudgetManager(
            disk_bytes_per_tick=self.policy.disk_bytes_per_tick,
            net_bytes_per_tick=self.policy.net_bytes_per_tick,
        )
        self.tick_count = 0

    # -- intake ---------------------------------------------------------------
    def submit(self, task: MaintenanceTask) -> MaintenanceTask:
        task.submitted_tick = self.tick_count
        task.not_before_tick = max(task.not_before_tick, self.tick_count)
        return self.queue.push(task)

    # -- views ----------------------------------------------------------------
    @property
    def dead_letter(self) -> List[MaintenanceTask]:
        return self.queue.dead_letter

    def has_pending(self) -> bool:
        return len(self.queue) > 0

    def clock(self) -> float:
        return getattr(self.fs, "clock", float(self.tick_count))

    def _metrics(self):
        return getattr(self.fs, "metrics", None)

    def _obs(self):
        return getattr(self.fs, "obs", None) or NOOP_OBS

    # -- the tick -------------------------------------------------------------
    def run_tick(self) -> SchedulerTickReport:
        obs = self._obs()
        with obs.span("sched_tick", tick=self.tick_count + 1):
            report = self._run_tick_impl()
        if obs.enabled and obs.registry is not None:
            # Every counter is registered on the first tick, even at 0.
            reg = obs.registry
            reg.counter("sched_ticks_total").inc()
            reg.gauge("sched_queue_depth").set(len(self.queue))
            reg.counter("sched_tasks_executed_total").inc(len(report.executed))
            reg.counter("sched_tasks_failed_total").inc(len(report.failed))
            reg.counter("sched_tasks_dead_lettered_total").inc(
                len(report.dead_lettered)
            )
            reg.counter("sched_tasks_deferred_budget_total").inc(
                report.deferred_budget
            )
        return report

    def _run_tick_impl(self) -> SchedulerTickReport:
        self.tick_count += 1
        self.budgets.refill_all()
        report = SchedulerTickReport(tick=self.tick_count)
        ready = self.queue.ready(self.tick_count, self.clock())
        report.deferred_backoff = len(self.queue) - len(ready)
        head_blocked = False
        for task in ready:
            if not task.metadata_only:
                # Past the first IO task that does not fit, no IO task
                # runs this tick; metadata-only tasks still do.
                if head_blocked or not self._admit(task):
                    report.deferred_budget += 1
                    head_blocked = True
                    continue
            self.queue.remove(task)
            self._execute(task, report)
        return report

    def run_until_drained(self, max_ticks: int = 10_000) -> List[SchedulerTickReport]:
        """Tick until the queue empties (backoff holds included)."""
        reports = []
        for _ in range(max_ticks):
            if not self.has_pending():
                break
            reports.append(self.run_tick())
        return reports

    # -- admission ------------------------------------------------------------
    def _admit(self, task: MaintenanceTask) -> bool:
        """A task's listed charges must fit; a task that lists none may
        touch any live node for any number of bytes, so it waits for
        every live node's buckets to be full (an oversized cost is
        admitted only against a full bucket). ``_settle`` charges it
        what its window metered."""
        if self.budgets.unlimited:
            return True
        charges = task.node_charges(self.fs)
        if charges is None:
            cluster = getattr(self.fs, "cluster", None)
            live = [] if cluster is None else cluster.alive_nodes()
            charges = dict.fromkeys((n.node_id for n in live), UNBOUNDED)
        return self.budgets.admits(charges)

    # -- execution ------------------------------------------------------------
    def _metering(self):
        """A metering window around one task; none without a filesystem
        (the standalone simulation charges each task's listed costs)."""
        metrics = self._metrics()
        return nullcontext() if metrics is None else metrics.metering()

    def _settle(
        self,
        task: MaintenanceTask,
        window,
        report: SchedulerTickReport,
        completed: bool,
    ) -> None:
        """Charge budgets with what the task actually moved — its listed
        charges, else what its window metered on each node it touched —
        and record per-class accounting into the metrics ledger."""
        disk_total = net_total = cpu_total = 0.0
        charges = task.node_charges(self.fs)
        if charges is not None:
            for node_id, cost in charges.items():
                self.budgets.charge(node_id, cost.disk_bytes, cost.net_bytes)
                disk_total += cost.disk_bytes
                net_total += cost.net_bytes
        elif window is not None:
            for node_id, (disk, net, _cpu) in window.nodes.items():
                if disk or net:
                    self.budgets.charge(node_id, disk, net)
            disk_total, net_total, cpu_total = window.totals()
        report.disk_bytes += disk_total
        report.net_bytes += net_total
        metrics = self._metrics()
        if metrics is not None:
            metrics.record_maintenance(
                str(task.klass),
                disk_bytes=disk_total,
                net_bytes=net_total,
                cpu_seconds=cpu_total,
                completed=1 if completed else 0,
                failed=0 if completed else 1,
            )

    def _execute(self, task: MaintenanceTask, report: SchedulerTickReport) -> None:
        error = None
        with self._metering() as window:
            try:
                with self._obs().span("maintenance_task", klass=str(task.klass)):
                    task.result = task.execute(self.fs)
            except Exception as exc:  # noqa: BLE001 — any task failure retries
                error = exc
        self._settle(task, window, report, completed=error is None)
        if error is None:
            task.state = TaskState.DONE
            report.executed.append(task)
            return
        task.attempts += 1
        task.last_error = error
        task.state = TaskState.FAILED
        report.failed.append(task)
        if task.attempts >= self.policy.max_attempts:
            self.queue.bury(task)
            report.dead_lettered.append(task)
            metrics = self._metrics()
            if metrics is not None:
                metrics.record_maintenance(str(task.klass), dead_lettered=1)
        else:
            task.not_before_tick = self.tick_count + backoff_ticks(task.attempts)
            self.queue.push(task)
