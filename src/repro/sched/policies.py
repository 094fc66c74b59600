"""Scheduling policy: priority bands, deadline boosts, aging, retries.

The priority order the paper's regime implies (and "XORing Elephants"
measured the cost of getting wrong):

    critical repair  >  repair  >  deadline-boosted transcode
                     >  transcode  >  scrub

*Critical repair* is reconstruction of a chunk whose hybrid block has no
spare redundancy left — one more node lost is data loss.
Transcodes whose lifetime-policy transition date is inside the boost
window move up a band (still below repair: durability first). Waiting
tasks age toward higher priority so a steady repair stream can never
starve scrubs forever, but aging floors just below the critical band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.partition import NAMENODE
from repro.sched.tasks import MaintenanceTask, TaskClass


#: a transcode is boosted when ``clock >= deadline - window``
DEADLINE_BOOST_WINDOW_S = 600.0
#: backoff after the i-th failure is ``base * factor**(i-1)`` ticks, capped
BACKOFF_BASE_TICKS = 1
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_TICKS = 64


def _default_bands() -> Dict[TaskClass, float]:
    return {
        TaskClass.CRITICAL_REPAIR: 0.0,
        TaskClass.REPAIR: 10.0,
        TaskClass.TRANSCODE: 20.0,
        TaskClass.SCRUB: 30.0,
    }


@dataclass
class SchedulerPolicy:
    """The knobs of the maintenance control plane in one place."""

    #: base priority per task class; smaller runs first
    priority_bands: Dict[TaskClass, float] = field(default_factory=_default_bands)
    #: priority a deadline-boosted transcode is promoted to (between the
    #: repair and transcode bands)
    boosted_transcode_priority: float = 15.0
    #: how much a waiting task's effective priority improves per tick
    aging_per_tick: float = 0.5
    #: aging floor — aged tasks never outrank the critical-repair band
    aged_priority_floor: float = 1.0

    # -- retries -------------------------------------------------------------
    #: attempts before a task is dead-lettered (task-level override wins)
    max_attempts: int = 4

    # -- budgets -------------------------------------------------------------
    #: per-node maintenance byte budgets refilled each tick; None = unlimited
    disk_bytes_per_tick: Optional[float] = None
    net_bytes_per_tick: Optional[float] = None
    #: bucket capacity in ticks of refill — >1 lets idle ticks bank budget
    budget_burst_ticks: float = 1.0
    #: when the highest-priority IO task does not fit the budget, stop
    #: admitting lower-priority IO work this tick so the bucket can fill
    #: for it (prevents small tasks starving a large urgent one);
    #: metadata-only tasks still run
    block_on_head: bool = True

    def attempts_allowed(self, task: MaintenanceTask) -> int:
        return task.max_attempts if task.max_attempts is not None else self.max_attempts


def effective_priority(
    task: MaintenanceTask, policy: SchedulerPolicy, tick: int, clock: float
) -> float:
    """The priority a task competes with *now* (smaller = sooner)."""
    base = policy.priority_bands.get(task.klass, 20.0)
    if (
        task.klass is TaskClass.TRANSCODE
        and task.deadline is not None
        and clock >= task.deadline - DEADLINE_BOOST_WINDOW_S
    ):
        base = min(base, policy.boosted_transcode_priority)
    if base <= policy.aged_priority_floor:
        return base
    waited = max(0, tick - task.submitted_tick)
    return max(policy.aged_priority_floor, base - policy.aging_per_tick * waited)


def backoff_ticks(attempts: int) -> int:
    """Ticks to wait before retrying after the ``attempts``-th failure."""
    raw = BACKOFF_BASE_TICKS * BACKOFF_FACTOR ** max(0, attempts - 1)
    return int(min(MAX_BACKOFF_TICKS, max(1, raw)))


def classify_repair(fs, meta, chunk) -> TaskClass:
    """CRITICAL_REPAIR when the chunk's hybrid block cannot deliver its
    data from the sources the namenode reaches, or could not once one
    more node holding one fails (one question per node); else REPAIR."""
    for group in meta.hybrid_blocks(chunk):
        live = [
            (source.node_id, slots) for source, slots in group.sources()
            if fs.chunk_readable(source, by=NAMENODE)
        ]
        decodable = fs.rank_rule(meta, group)
        # As things stand (None), then with each node holding a source lost.
        for lost in (None, *dict.fromkeys(node for node, _ in live)):
            if not decodable({slot for node, slots in live if node != lost for slot in slots}):
                return TaskClass.CRITICAL_REPAIR
    return TaskClass.REPAIR
