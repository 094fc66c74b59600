"""Heartbeat-driven failure detection and background maintenance (§6.1/§6.2).

The Namenode learns about Datanode health from periodic heartbeats; a
node that misses enough consecutive beats is declared dead. From there
the heartbeat loop no longer executes maintenance itself — it *submits*
typed work into the filesystem's
:class:`~repro.sched.scheduler.MaintenanceScheduler` and drives one
scheduler tick per heartbeat:

* chunks homed on declared-dead nodes become one
  :class:`~repro.sched.tasks.StripeRepairTask` per damaged stripe (or
  replica block), classified critical when that redundancy group has no
  spare redundancy left;
* each pending conversion group of a transcoding file — one with a
  final stripe not yet staged; bounded per heartbeat (§6.2) — becomes a
  deadline-carrying :class:`~repro.sched.tasks.ConversionGroupTask`,
  plus one metadata-only finalize task per file
  (:meth:`~repro.dfs.transcoder.NativeTranscoder.submit_pending`);
* a declared-dead node that beats again has its stale queued repairs
  cancelled and drops what it holds that was re-homed while it was away
  (``drop_unlisted``, HDFS's block-report invalidation).

The scheduler then applies priorities, per-node byte budgets, retries
and dead-lettering uniformly across all of it. With the default
(unlimited) budgets the observable behavior matches the classic loop:
everything submitted in a tick runs in that same tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.partition import NAMENODE
from repro.sched.scheduler import SchedulerTickReport
from repro.sched.tasks import ConversionGroupTask, StripeRepairTask

#: DFS-clock seconds between heartbeat rounds
INTERVAL_S = 3.0
#: re-enumerate lost chunks on declared-dead nodes every this many ticks
#: even without a new death. This is what requeues a repair that
#: dead-lettered: the buried task is out of the pending queue, so the
#: periodic sweep submits a fresh one with a clean retry budget — a lost
#: chunk is never abandoned while its node stays dead. A dead-lettered
#: conversion group is submitted again on the same cadence.
REPAIR_RESUBMIT_EVERY_TICKS = 4


@dataclass
class HeartbeatConfig:
    #: consecutive missed beats before a node is declared dead (HDFS
    #: defaults to ~10 minutes; scaled down for simulation)
    dead_after_missed: int = 3


@dataclass
class TickReport:
    """What one heartbeat round observed and did."""

    tick: int
    newly_dead: List[str] = field(default_factory=list)
    newly_alive: List[str] = field(default_factory=list)
    #: queued chunk repairs cancelled because their node returned intact
    repairs_cancelled: int = 0
    #: chunks rebuilt this tick (a stripe task rebuilds one or more)
    chunks_recovered: int = 0
    transcode_groups_run: int = 0
    #: the underlying scheduler tick (admissions, deferrals, dead letters)
    scheduler: Optional[SchedulerTickReport] = None


class HeartbeatMonitor:
    """Periodic cluster maintenance loop for a DFS instance."""

    def __init__(self, fs, config: HeartbeatConfig = None):
        self.fs = fs
        self.config = config or HeartbeatConfig()
        self.tick_count = 0
        #: consecutive missed beats per node — seeded with the datanodes
        #: known now, but ``tick`` tolerates later registrations (the map
        #: is not a construction-time snapshot)
        self._missed: Dict[str, int] = {n: 0 for n in fs.datanodes}
        self._declared_dead: Set[str] = set()

    # -- health bookkeeping ----------------------------------------------------
    def _collect_beats(self) -> Set[str]:
        """Nodes that respond this round.

        A beat needs a live datanode *and* a network path to the
        namenode — a node on the wrong side of a partition is
        indistinguishable from a dead one, which is exactly how real
        namenodes experience partitions.
        """
        return {
            node_id
            for node_id in self.fs.datanodes
            if self.fs.node_reachable(node_id, NAMENODE)
        }

    def declared_dead(self) -> Set[str]:
        return set(self._declared_dead)

    # -- work intake -----------------------------------------------------------
    def _submit_repairs(self) -> int:
        """Queue one repair task per stripe / replica block that lost
        chunks on a declared-dead node; returns how many were queued."""
        from repro.dfs.recovery import RecoveryManager
        from repro.sched.policies import classify_repair

        scheduler = self.fs.scheduler
        queued = {
            id(chunk)
            for task in scheduler.queue.backlog()
            if isinstance(task, StripeRepairTask)
            for chunk in task.chunks
        }
        recovery = RecoveryManager(self.fs)
        fresh = [
            (meta, chunk)
            for meta, chunk in recovery.lost_chunks(self._declared_dead)
            # transient blips never trigger IO storms
            if chunk.node_id in self._declared_dead and id(chunk) not in queued
        ]
        groups = recovery.damaged_groups(fresh)
        for meta, _home, chunks in groups:
            # Spare redundancy is a property of the hybrid block, so
            # every lost member classifies alike: ask about the first.
            klass = classify_repair(self.fs, meta, chunks[0])
            scheduler.submit(StripeRepairTask(meta, chunks, klass=klass))
        return len(groups)

    def _cancel_stale_repairs(self, returned: List[str]) -> int:
        """Drop queued repairs of chunks a returning node still holds.

        Only chunks physically present on the returned node leave their
        task (a chunk re-homed while the node was away stays pending);
        a task left with nothing to repair is cancelled. Returns the
        number of chunks dropped.
        """
        returned_set = set(returned)
        queue = self.fs.scheduler.queue
        cancelled = 0
        for task in queue.backlog():
            if not isinstance(task, StripeRepairTask):
                continue
            kept = [
                chunk
                for chunk in task.chunks
                if chunk.node_id not in returned_set
                or not self.fs.chunk_readable(chunk, by=NAMENODE)
            ]
            cancelled += len(task.chunks) - len(kept)
            task.chunks = kept
            if not kept:
                queue.remove(task)
                task.result = "cancelled"
        return cancelled

    def _submit_transcode_work(self, resweep: bool) -> None:
        """Every transcoding file's pending groups go to the scheduler,
        by the transcoder's intake rule. A group that dead-lettered is
        pending and queued nowhere: it goes again on a resweep tick."""
        scheduler = self.fs.scheduler
        buried = () if resweep else {
            (task.group.file_name, task.group.group_index)
            for task in scheduler.dead_letter
            if isinstance(task, ConversionGroupTask)
        }
        self.fs.transcoder.submit_pending(scheduler, list(self.fs.namenode.utm), buried)

    # -- the tick ----------------------------------------------------------------
    def tick(self) -> TickReport:
        """One heartbeat round: update health, submit work, run the
        scheduler for one tick."""
        self.tick_count += 1
        self.fs.clock += INTERVAL_S
        report = TickReport(tick=self.tick_count)
        beats = self._collect_beats()
        for node_id in self.fs.datanodes:
            # ``.get`` covers datanodes registered after the monitor was
            # constructed — the miss map is not a construction-time
            # snapshot of the cluster.
            if node_id in beats:
                if node_id in self._declared_dead:
                    self._declared_dead.discard(node_id)
                    report.newly_alive.append(node_id)
                self._missed[node_id] = 0
            else:
                missed = self._missed.get(node_id, 0) + 1
                self._missed[node_id] = missed
                if (
                    missed >= self.config.dead_after_missed
                    and node_id not in self._declared_dead
                ):
                    self._declared_dead.add(node_id)
                    report.newly_dead.append(node_id)
        # A returning node makes queued repairs for its still-present
        # chunks stale; drop them before they waste budget. What it holds
        # that was re-homed while it was away is garbage: it leaves.
        if report.newly_alive:
            report.repairs_cancelled = self._cancel_stale_repairs(
                report.newly_alive
            )
            for node_id in report.newly_alive:
                self.fs.drop_unlisted(node_id)
        # Reconstruction only starts once the Namenode *declares* a node
        # dead — and goes through the scheduler's priority/budget gate.
        # The periodic resweep keeps dead-lettered repairs from orphaning
        # their chunks: still-lost chunks are resubmitted as fresh tasks.
        resweep = self.tick_count % REPAIR_RESUBMIT_EVERY_TICKS == 0
        if report.newly_dead or (resweep and self._declared_dead):
            self._submit_repairs()
        # Transcode intake: bounded per heartbeat (§6.2). Only Morph has
        # a native transcoder; the baseline transcodes client-side.
        if hasattr(self.fs, "transcoder"):
            self._submit_transcode_work(resweep)
        sched_report = self.fs.scheduler.run_tick()
        report.scheduler = sched_report
        for task in sched_report.executed:
            if isinstance(task, StripeRepairTask) and task.result == "repaired":
                report.chunks_recovered += len(task.chunks)
            elif isinstance(task, ConversionGroupTask):
                report.transcode_groups_run += 1
        return report

    def run_ticks(self, count: int) -> List[TickReport]:
        return [self.tick() for _ in range(count)]
