"""Typed maintenance work items.

Every kind of background work the cluster performs — chunk
reconstruction, transcode conversion groups, transcode finalization,
free (metadata-only) redundancy transitions, integrity scrubs — is a
:class:`MaintenanceTask`. Tasks carry a class (which fixes their base
priority band), an optional deadline (which can boost transcodes) and
an ``execute`` hook the scheduler calls.

A task predicts nothing about its IO. What its executor moves is
metered by the DFS while it runs, and that is what the budgets are
charged; only a task that lists exact per-node charges ahead of time
(:class:`CallbackTask`) is admitted and charged by that list instead.

The module never imports ``repro.dfs`` at module level — the scheduler
is also used standalone by the event-driven interference simulation
(`repro.sched.simulate`), where tasks are :class:`CallbackTask`s with
pre-computed per-node charges and there is no filesystem at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.cluster.partition import NAMENODE


class TaskClass(enum.Enum):
    """Priority class of a maintenance task (paper §6.1/§6.2 work types)."""

    #: reconstruction of a stripe/block that has no spare redundancy left
    #: — one more loss means data loss
    CRITICAL_REPAIR = "critical_repair"
    #: ordinary reconstruction of chunks homed on a dead node
    REPAIR = "repair"
    #: transcode work: conversion groups, finalize, free transitions
    TRANSCODE = "transcode"
    #: background integrity scrubbing
    SCRUB = "scrub"

    def __str__(self) -> str:  # metrics ledger keys read nicely
        return self.value


class TaskState(enum.Enum):
    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"  # retrying with backoff
    DEAD = "dead"  # exhausted retries; in the dead-letter list


@dataclass(frozen=True)
class TaskCost:
    """Bytes a task moves on one node, for budget admission and charging."""

    disk_bytes: float = 0.0
    net_bytes: float = 0.0


class MaintenanceTask:
    """Base class: scheduling state + the hooks subclasses implement."""

    def __init__(
        self,
        klass: TaskClass,
        deadline: Optional[float] = None,
        metadata_only: bool = False,
    ):
        self.klass = klass
        #: absolute DFS-clock time by which this task should have run
        #: (used to boost transcodes whose lifetime transition is near)
        self.deadline = deadline
        #: metadata-only tasks move no bytes and bypass budget admission
        self.metadata_only = metadata_only
        # -- scheduler-managed state --
        self.task_id: int = -1
        self.state: TaskState = TaskState.PENDING
        self.attempts: int = 0
        self.submitted_tick: int = -1
        self.not_before_tick: int = 0
        self.last_error: Optional[BaseException] = None
        self.result: Any = None

    # -- hooks ---------------------------------------------------------------
    def node_charges(self, fs) -> Optional[Dict[str, TaskCost]]:
        """Exact per-node cost when known ahead of time, else None.

        When None the cost is unknown, so unbounded on every live node:
        the scheduler admits the task only against full buckets and
        charges what its metering window saw on each node it touched.
        """
        return None

    def execute(self, fs) -> Any:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.klass}#{self.task_id}"

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.describe()} state={self.state.value} "
            f"attempts={self.attempts}>"
        )


class StripeRepairTask(MaintenanceTask):
    """Rebuild everything one damaged stripe — or replica block — lost
    to node failures, in one reconstruction (§4.4, §6.1)."""

    def __init__(self, meta, chunks, klass: TaskClass = TaskClass.REPAIR, **kw):
        super().__init__(klass, **kw)
        self.meta = meta
        #: the lost chunks, all members of one stripe / replica block
        self.chunks = list(chunks)

    def execute(self, fs):
        # Re-check every chunk: the file may have been deleted or replaced
        # since submission, the chunk dropped by a transcode finalize, its
        # node returned, or another task may have repaired it. Readable
        # means from the namenode's side of any partition: an island's
        # chunks count as lost and get re-homed.
        current: set = set()
        if fs.namenode.files.get(self.meta.name) is self.meta:
            current = {id(c) for c in self.meta.all_chunks()}
        self.chunks = [
            c
            for c in self.chunks
            if id(c) in current and not fs.chunk_readable(c, by=NAMENODE)
        ]
        if not self.chunks:
            return "skipped"
        from repro.dfs.recovery import RecoveryManager

        RecoveryManager(fs).recover_chunks([(self.meta, c) for c in self.chunks])
        return "repaired"

    def describe(self) -> str:
        return f"repair {self.meta.name}:" + ",".join(c.chunk_id for c in self.chunks)


class ConversionGroupTask(MaintenanceTask):
    """Execute one pending transcode conversion group (§6.2)."""

    def __init__(self, group, deadline: Optional[float] = None, **kw):
        super().__init__(TaskClass.TRANSCODE, deadline=deadline, **kw)
        self.group = group

    def execute(self, fs):
        fs.transcoder.execute_group(self.group)
        return "converted"

    def describe(self) -> str:
        return f"transcode {self.group.file_name}/g{self.group.group_index}"


class TranscodeFinalizeTask(MaintenanceTask):
    """Attempt the atomic metadata switch for a transcoding file.

    Metadata-only: the switch is one reference assignment plus garbage
    deletion of the old parities, so it must never wait on IO budgets.
    """

    def __init__(self, name: str, **kw):
        kw.setdefault("metadata_only", True)
        super().__init__(TaskClass.TRANSCODE, **kw)
        self.name = name

    def execute(self, fs):
        return "finalized" if fs.transcoder.finalize(self.name) else "pending"

    def describe(self) -> str:
        return f"finalize {self.name}"


class FreeTransitionTask(MaintenanceTask):
    """Hybrid -> EC transition (§4.5): drop replicas, flip metadata.

    Zero IO when every stripe already has its parities — in that case the
    task is metadata-only and completes within one scheduler tick however
    exhausted the budgets are. When some stripes still need sealing
    (``parity_mode="none"`` or an open appended tail) the caller marks it
    budgeted instead.
    """

    def __init__(self, name: str, target, metadata_only: bool = True, **kw):
        super().__init__(
            TaskClass.TRANSCODE, metadata_only=metadata_only, **kw
        )
        self.name = name
        self.target = target

    def execute(self, fs):
        meta = fs.namenode.files.get(self.name)
        if meta is None:
            return "skipped"
        fs._free_transition(meta, self.target)
        return "transitioned"

    def describe(self) -> str:
        return f"free-transition {self.name}"


class ScrubTask(MaintenanceTask):
    """One integrity sweep over every on-disk chunk (§6.1)."""

    def __init__(self, **kw):
        super().__init__(TaskClass.SCRUB, **kw)

    def execute(self, fs):
        from repro.dfs.integrity import Scrubber

        return Scrubber(fs).scan_and_repair()

    def describe(self) -> str:
        return "scrub"


class CallbackTask(MaintenanceTask):
    """A task defined by a plain callable — for simulations and tests.

    ``charges`` (node id -> :class:`TaskCost`) makes admission exact:
    each listed node must have budget for its own share, and exactly that
    share is charged on execution.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        klass: TaskClass = TaskClass.REPAIR,
        charges: Optional[Dict[str, TaskCost]] = None,
        label: str = "",
        **kw,
    ):
        super().__init__(klass, **kw)
        import inspect

        self.fn = fn
        self.charges = charges
        self.label = label or getattr(fn, "__name__", "callback")
        try:
            self._wants_fs = len(inspect.signature(fn).parameters) >= 1
        except (TypeError, ValueError):
            self._wants_fs = False

    def node_charges(self, fs) -> Optional[Dict[str, TaskCost]]:
        return self.charges

    def execute(self, fs):
        return self.fn(fs) if self._wants_fs else self.fn()

    def describe(self) -> str:
        return self.label
