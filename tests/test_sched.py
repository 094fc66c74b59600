"""Units of the maintenance control plane: tasks, policies, queue, budgets."""

import pytest

from repro.sched import (
    BudgetManager,
    CallbackTask,
    MaintenanceTask,
    PriorityTaskQueue,
    TaskClass,
    TaskCost,
    TaskState,
    TokenBucket,
    backoff_ticks,
    effective_priority,
)
from repro.sched.policies import (
    AGED_PRIORITY_FLOOR,
    AGING_PER_TICK,
    BOOSTED_TRANSCODE_PRIORITY,
    PRIORITY_BANDS,
)


class TestTaskCost:
    def test_default_is_free(self):
        assert TaskCost().disk_bytes == 0 and TaskCost().net_bytes == 0


class TestTokenBucket:
    def test_starts_full_and_caps_at_one_ticks_rate(self):
        bucket = TokenBucket(100)
        assert bucket.tokens == 100
        bucket.take(80)
        bucket.refill()
        assert bucket.tokens == 100  # capped: an idle tick banks nothing

    def test_can_within_tokens(self):
        bucket = TokenBucket(100)
        assert bucket.can(100)
        bucket.take(40)
        # No longer full, so the overdraft escape doesn't apply.
        assert bucket.can(60) and not bucket.can(61)

    def test_oversized_task_admitted_only_against_full_bucket(self):
        bucket = TokenBucket(100)
        assert bucket.can(350)  # bigger than capacity, bucket full
        bucket.take(350)
        assert bucket.tokens == -250
        assert not bucket.can(1)  # in debt
        for _ in range(3):
            bucket.refill()
        assert bucket.tokens == 50
        assert bucket.can(50) and not bucket.can(350)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0)


class TestBudgetManager:
    def test_unlimited_admits_everything(self):
        budgets = BudgetManager(None)
        assert budgets.unlimited
        assert budgets.admits({"a": TaskCost(1e18, 1e18)})

    def test_admits_checks_every_listed_node(self):
        budgets = BudgetManager(disk_bytes_per_tick=100)
        budgets.charge("a", disk_bytes=80)
        assert budgets.admits({"a": TaskCost(disk_bytes=20)})
        assert not budgets.admits(
            {"a": TaskCost(disk_bytes=30), "b": TaskCost(disk_bytes=10)}
        )
        assert budgets.admits({"b": TaskCost(disk_bytes=100)})

    def test_an_unbounded_cost_fits_only_full_buckets(self):
        """What the scheduler asks for a task that lists no charges."""
        budgets = BudgetManager(disk_bytes_per_tick=100)
        unbounded = dict.fromkeys(["a", "b"], TaskCost(float("inf")))
        assert budgets.admits(unbounded)
        budgets.charge("a", disk_bytes=1)
        assert not budgets.admits(unbounded)
        budgets.refill_all()
        assert budgets.admits(unbounded)

    def test_network_bytes_are_not_budgeted(self):
        budgets = BudgetManager(disk_bytes_per_tick=100)
        assert budgets.admits({"a": TaskCost(disk_bytes=50, net_bytes=1e18)})

    def test_refill_all_only_touches_materialised_nodes(self):
        budgets = BudgetManager(disk_bytes_per_tick=100)
        budgets.charge("a", disk_bytes=150)
        budgets.refill_all()
        assert budgets.node("a").tokens == 50  # 100-150+100


class TestPolicies:
    def make(self, klass, deadline=None):
        task = MaintenanceTask(klass, deadline=deadline)
        task.submitted_tick = 0  # as scheduler.submit() would stamp
        return task

    def test_band_order(self):
        tick, clock = 0, 0.0
        prios = [
            effective_priority(self.make(k), tick, clock)
            for k in (
                TaskClass.CRITICAL_REPAIR,
                TaskClass.REPAIR,
                TaskClass.TRANSCODE,
                TaskClass.SCRUB,
            )
        ]
        assert prios == sorted(prios)
        assert len(set(prios)) == 4

    def test_deadline_boost_moves_transcode_between_bands(self):
        near = self.make(TaskClass.TRANSCODE, deadline=500.0)
        far = self.make(TaskClass.TRANSCODE, deadline=5000.0)
        repair = self.make(TaskClass.REPAIR)
        # clock 0, window 600: the 500s deadline is inside the window.
        p_near = effective_priority(near, 0, 0.0)
        p_far = effective_priority(far, 0, 0.0)
        p_repair = effective_priority(repair, 0, 0.0)
        assert p_near == BOOSTED_TRANSCODE_PRIORITY
        assert p_repair < p_near < p_far

    @pytest.mark.parametrize("klass", list(TaskClass), ids=lambda k: k.value)
    def test_a_fresh_task_competes_at_its_band(self, klass):
        assert effective_priority(self.make(klass), 0, 0.0) == PRIORITY_BANDS[klass]

    def test_aging_is_linear_in_ticks_waited(self):
        scrub = self.make(TaskClass.SCRUB)
        base = PRIORITY_BANDS[TaskClass.SCRUB]
        for tick in (1, 4, 20):
            assert effective_priority(scrub, tick, 0.0) == base - AGING_PER_TICK * tick

    def test_aging_improves_priority_but_floors(self):
        scrub = self.make(TaskClass.SCRUB)
        scrub.submitted_tick = 0
        p0 = effective_priority(scrub, 0, 0.0)
        p10 = effective_priority(scrub, 10, 0.0)
        p1000 = effective_priority(scrub, 1000, 0.0)
        assert p10 < p0
        assert p1000 == AGED_PRIORITY_FLOOR
        # Aged work still never outranks the critical band.
        critical = effective_priority(self.make(TaskClass.CRITICAL_REPAIR), 1000, 0.0)
        assert critical < p1000

    def test_critical_band_does_not_age(self):
        crit = self.make(TaskClass.CRITICAL_REPAIR)
        crit.submitted_tick = 0
        assert effective_priority(crit, 500, 0.0) == 0.0

    def test_backoff_progression_and_cap(self):
        delays = [backoff_ticks(i) for i in range(1, 9)]
        assert delays == [1, 2, 4, 8, 16, 32, 64, 64]


class TestPriorityTaskQueue:
    def test_ready_orders_by_effective_priority_then_fifo(self):
        queue = PriorityTaskQueue()
        scrub = queue.push(MaintenanceTask(TaskClass.SCRUB))
        repair_a = queue.push(MaintenanceTask(TaskClass.REPAIR))
        repair_b = queue.push(MaintenanceTask(TaskClass.REPAIR))
        critical = queue.push(MaintenanceTask(TaskClass.CRITICAL_REPAIR))
        ready = queue.ready(0, 0.0)
        assert ready == [critical, repair_a, repair_b, scrub]

    def test_backoff_holds_excluded_until_due(self):
        queue = PriorityTaskQueue()
        task = queue.push(MaintenanceTask(TaskClass.REPAIR))
        task.not_before_tick = 5
        assert queue.ready(4, 0.0) == []
        assert queue.ready(5, 0.0) == [task]

    def test_bury_moves_to_dead_letter(self):
        queue = PriorityTaskQueue()
        task = queue.push(MaintenanceTask(TaskClass.REPAIR))
        queue.bury(task)
        assert len(queue) == 0
        assert queue.dead_letter == [task]
        assert task.state is TaskState.DEAD


class TestCallbackTask:
    def test_zero_arg_callable(self):
        hits = []
        task = CallbackTask(lambda: hits.append(1))
        task.execute(None)
        assert hits == [1]

    def test_fs_arg_callable(self):
        seen = []
        task = CallbackTask(lambda fs: seen.append(fs))
        task.execute("the-fs")
        assert seen == ["the-fs"]

    def test_exact_charges_returned(self):
        charges = {"n1": TaskCost(disk_bytes=10)}
        task = CallbackTask(lambda: None, charges=charges)
        assert task.node_charges(None) is charges
