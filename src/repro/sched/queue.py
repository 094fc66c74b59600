"""Priority queue with aging, backoff holds, and a dead-letter list.

Effective priorities change every tick (aging, deadline boosts crossing
their window), so the queue re-ranks its ready set per tick instead of
maintaining a static heap — maintenance backlogs are thousands of tasks
at most, and one sort per heartbeat is cheap next to the IO the tasks
themselves move.
"""

from __future__ import annotations

from typing import List

from repro.sched.policies import effective_priority
from repro.sched.tasks import MaintenanceTask, TaskState


class PriorityTaskQueue:
    """Pending maintenance tasks + the dead-letter list."""

    def __init__(self):
        self._pending: List[MaintenanceTask] = []
        self._seq = 0
        #: tasks that exhausted their retries, oldest first — surfaced,
        #: never silently dropped
        self.dead_letter: List[MaintenanceTask] = []

    # -- intake ---------------------------------------------------------------
    def push(self, task: MaintenanceTask) -> MaintenanceTask:
        if task.task_id < 0:
            task.task_id = self._seq
            self._seq += 1
        self._pending.append(task)
        return task

    # -- views ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def backlog(self) -> List[MaintenanceTask]:
        return list(self._pending)

    def ready(self, tick: int, clock: float) -> List[MaintenanceTask]:
        """Runnable tasks this tick, most urgent first.

        Tasks inside a backoff hold (``not_before_tick`` in the future)
        are excluded. FIFO within equal effective priority.
        """
        runnable = [t for t in self._pending if t.not_before_tick <= tick]
        runnable.sort(key=lambda t: (effective_priority(t, tick, clock), t.task_id))
        return runnable

    # -- transitions ----------------------------------------------------------
    def remove(self, task: MaintenanceTask) -> None:
        self._pending.remove(task)

    def bury(self, task: MaintenanceTask) -> None:
        """Move a task to the dead-letter list (retries exhausted)."""
        task.state = TaskState.DEAD
        if task in self._pending:
            self._pending.remove(task)
        self.dead_letter.append(task)
