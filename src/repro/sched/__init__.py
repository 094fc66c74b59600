"""`repro.sched` — the maintenance control plane.

A unified background-task scheduler that owns all cluster maintenance
work: chunk reconstruction, transcode conversion groups, and integrity
scrubs become typed :class:`~repro.sched.tasks.MaintenanceTask`s with

* **priorities** — repair of a last-surviving copy outranks ordinary
  repair, which outranks deadline-driven transcodes, which outrank
  scrubs (`repro.sched.policies`);
* **budgets** — per-node disk/network byte token buckets refilled each
  scheduler tick bound how much background IO can be admitted, keeping
  maintenance off foreground tail latencies (`repro.sched.budget`);
* **failure handling** — failed tasks retry with exponential backoff
  and land in a dead-letter list instead of vanishing
  (`repro.sched.queue`);
* **starvation avoidance** — waiting tasks age toward higher priority.

Metadata-only work (the zero-IO hybrid -> EC transition, the atomic
transcode finalize) bypasses budgets entirely: it always completes in
the tick it is admitted, however saturated the IO budgets are.
"""

from repro.sched.budget import BudgetManager, NodeBudget, TokenBucket
from repro.sched.policies import (
    SchedulerPolicy,
    backoff_ticks,
    classify_repair,
    effective_priority,
)
from repro.sched.queue import PriorityTaskQueue
from repro.sched.scheduler import MaintenanceScheduler, SchedulerTickReport
from repro.sched.tasks import (
    CallbackTask,
    ConversionGroupTask,
    FreeTransitionTask,
    MaintenanceTask,
    ScrubTask,
    StripeRepairTask,
    TaskClass,
    TaskCost,
    TaskState,
    TranscodeFinalizeTask,
)

__all__ = [
    "BudgetManager",
    "CallbackTask",
    "ConversionGroupTask",
    "FreeTransitionTask",
    "MaintenanceScheduler",
    "MaintenanceTask",
    "NodeBudget",
    "PriorityTaskQueue",
    "SchedulerPolicy",
    "SchedulerTickReport",
    "ScrubTask",
    "StripeRepairTask",
    "TaskClass",
    "TaskCost",
    "TaskState",
    "TokenBucket",
    "TranscodeFinalizeTask",
    "backoff_ticks",
    "classify_repair",
    "effective_priority",
]
