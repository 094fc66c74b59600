"""Transcode execution: native CC/LRCC conversions and baseline RRW.

The native path executes the :class:`ConversionGroup` work items of a
file's UTM job, moving only the chunks the conversion plan names:

* same-r merges read co-located old parities **locally** on each parity
  node and write the merged parity back locally — zero network IO (§5.3);
* split/general-regime data reads are transferred to every parity node
  that combines them;
* a final stripe, its parities stored, is staged with the Namenode; a
  group that runs again stages only the final stripes its job lacks.
  Once every final stripe is staged the Namenode performs the atomic
  metadata switch, and only then are the old parities deleted (crash
  consistency, §6.2).

The RRW path is the baseline: the *client* reads the whole file, re-
encodes it, writes it as a new file and deletes the original.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cluster.partition import NAMENODE
from repro.cluster.placement import home_for
from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.base import Stripe
from repro.codes.convertible import (
    ConversionPath,
    ConversionPlan,
    convert,
    plan_conversion,
)
from repro.codes.lrcc import convert_cc_to_lrcc, convert_lrcc_to_lrcc
from repro.dfs.blocks import ChunkMeta, ECStripeMeta, FileMeta
from repro.dfs.client import ReadError
from repro.dfs.namenode import ConversionGroup, TranscodeJob
from repro.sched.tasks import ConversionGroupTask, TaskClass, TranscodeFinalizeTask

#: pending conversion groups of one file taken per intake — per
#: heartbeat, or per pass of an inline transcode (§6.2)
MAX_TRANSCODE_GROUPS_PER_TICK = 8


class TranscodeError(RuntimeError):
    """A conversion group could not be executed."""


def intake(job: TranscodeJob, held: Collection[Tuple[str, int]] = ()) -> List[ConversionGroup]:
    """The one transcode intake rule, for the heartbeat and the inline
    path alike: ``job``'s pending groups — a final stripe unstaged —
    that no queued task holds (``held``: their ``(file, group_index)``),
    at most :data:`MAX_TRANSCODE_GROUPS_PER_TICK` of them."""
    name = job.file_name
    fresh = [group for group in job.pending_groups() if (name, group.group_index) not in held]
    return fresh[:MAX_TRANSCODE_GROUPS_PER_TICK]


class NativeTranscoder:
    """Executes conversion groups against the datanodes."""

    def __init__(self, fs):
        self.fs = fs

    # -- work loop ------------------------------------------------------------
    def submit_pending(self, scheduler, names: Iterable[str], skip=frozenset()) -> None:
        """The heartbeat's intake: per transcoding file of ``names``,
        submit to ``scheduler`` the groups :func:`intake` picks — past
        those a task in its backlog holds, and ``skip``'s keys — and one
        finalize task unless one is queued."""
        utm = self.fs.namenode.utm
        jobs = [utm[name] for name in names if name in utm]
        if not jobs:
            return
        held = set(skip)
        finalizing = set()
        for task in scheduler.queue.backlog():
            if isinstance(task, ConversionGroupTask):
                held.add((task.group.file_name, task.group.group_index))
            elif isinstance(task, TranscodeFinalizeTask):
                finalizing.add(task.name)
        for job in jobs:
            for group in intake(job, held):
                scheduler.submit(ConversionGroupTask(group, deadline=job.deadline))
            if job.file_name not in finalizing:
                scheduler.submit(TranscodeFinalizeTask(job.file_name))

    def run_pending(self, name: str) -> None:
        """Run a file's transcode to its switch on the calling thread,
        intake by intake: every group :func:`intake` picks, then one
        switch attempt — the heartbeat's rule and order, without a
        queue. Each group and each switch attempt is one ``transcode``
        row of the maintenance ledger, metered by its own window. The
        first exception propagates as raised (counted ``failed``), the
        job left open at its first unstaged final stripe for a heartbeat
        to resume."""
        utm = self.fs.namenode.utm
        while name in utm:
            for group in intake(utm[name]):
                self._metered(self.execute_group, group)
            self._metered(self.finalize, name)

    def _metered(self, step, arg) -> None:
        """``step(arg)`` inside a metering window, recorded in the
        ``transcode`` ledger row as one completed — or failed — task."""
        metrics = self.fs.metrics
        completed = False
        try:
            with metrics.metering() as window:
                step(arg)
            completed = True
        finally:
            disk, net, cpu = window.totals()
            metrics.record_maintenance(
                str(TaskClass.TRANSCODE), disk_bytes=disk, net_bytes=net,
                cpu_seconds=cpu, completed=int(completed), failed=int(not completed),
            )

    def finalize(self, name: str) -> bool:
        """The switch, once every final stripe is staged: the namenode
        publishes the new stripes in one op, then the old parities it
        returns leave (stage → switch → discard). False while a final
        stripe is unstaged."""
        old = self.fs.namenode.try_finalize(name)
        if old is None:
            return False
        self.fs.discard_chunks(old)
        return True

    # -- group execution ----------------------------------------------------------
    def execute_group(self, group: ConversionGroup) -> None:
        """Run ``group`` if its file's job still holds it — a task can
        outlive its job: the switch, a delete, a restart — committing
        only the final stripes the job has not staged."""
        job = self.fs.namenode.utm.get(group.file_name)
        if job is None or group not in job.groups:
            return
        with self.fs.obs.span(
            "transcode", file=group.file_name, group=group.group_index
        ):
            self._execute_group_impl(group)

    def _execute_group_impl(self, group: ConversionGroup) -> None:
        """The one executor: the group's plan, the homes of its final
        parities, the planned reads, the conversion, one commit per
        final stripe."""
        fs = self.fs
        meta = fs.namenode.lookup(group.file_name)
        stripe_metas = [meta.stripes[i] for i in group.initial_stripe_indices]
        target = group.target_scheme.ec_part
        plan = plan_conversion(
            meta.scheme.ec_part.at_width(stripe_metas[0].k), len(stripe_metas), target
        )
        if plan is None:
            raise TranscodeError(f"{meta.name}: no native conversion into {target}")
        homes = self._homes(meta, stripe_metas, plan)
        stripes = self._load_stripes(meta, stripe_metas, plan, homes)
        conversion = {
            ConversionPath.ACCESS_OPTIMAL: convert,
            ConversionPath.BANDWIDTH_OPTIMAL: BandwidthOptimalCC.convert_merge,
            ConversionPath.CC_TO_LRCC: convert_cc_to_lrcc,
            ConversionPath.LRCC_MERGE: convert_lrcc_to_lrcc,
        }[plan.path]
        finals, _io = conversion(
            fs.codec_for(plan.initial), fs.codec_for(plan.final), stripes, plan
        )
        for m, final_stripe in enumerate(finals):
            self._commit_final_stripe(meta, group, m, stripe_metas, final_stripe, homes[m], plan)

    def _load_stripes(
        self,
        meta: FileMeta,
        stripe_metas: List[ECStripeMeta],
        plan: ConversionPlan,
        homes: List[List[str]],
    ) -> List[Stripe]:
        """Fetch exactly the planned chunks into Stripe objects: an old
        parity to the node computing the final parity it feeds
        (``plan.parity_reads``: ``(stripe, j) -> (final stripe, parity)``,
        ``homes[final stripe][parity]``), a data chunk — from the plan's
        first byte, zero-padded in front — to every computing node, so
        every remote read is charged as network."""
        k_i = stripe_metas[0].k
        start = plan.read_from(meta.chunk_size)
        stripes = [
            Stripe(sm.k, sm.n, [None] * sm.n) for sm in stripe_metas
        ]
        everyone = list(dict.fromkeys(node for row in homes for node in row))
        for t in sorted(plan.data_reads):
            stripe_i, local = divmod(t, k_i)
            chunk = self._source(meta, stripe_metas[stripe_i], local, everyone, start)
            if start:
                chunk = np.concatenate([np.zeros(start, dtype=np.uint8), chunk])
            stripes[stripe_i].chunks[local] = chunk
        for (i, j), (m, p) in sorted(plan.parity_reads.items()):
            sm = stripe_metas[i]
            stripes[i].chunks[sm.k + j] = self._source(meta, sm, sm.k + j, [homes[m][p]])
        return stripes

    def _source(
        self, meta: FileMeta, stripe_meta: ECStripeMeta, index: int,
        to: Sequence[str], start: int = 0,
    ) -> np.ndarray:
        """A planned chunk — from byte ``start`` to its end — delivered to
        the parity nodes ``to``: read (or rebuilt) for the first, which
        is where the transfers to the others are charged from.

        A transcode must not fail because a source chunk is temporarily
        unavailable — the paper keeps old stripes fully serviceable
        throughout; a degraded transcode rebuilds the needed chunk at
        ``to[0]`` from the stripe's survivors it can reach (metered like
        any degraded read; whole chunks, whatever range was wanted).
        """
        fs = self.fs
        by = to[0]
        chunk = stripe_meta.all_chunks()[index]
        data, src = fs.fetch_chunk(chunk, by, start), chunk.node_id
        if data is None:
            try:
                rebuilt = fs.rebuild_slots(meta, stripe_meta, [index], by)[1]
            except ReadError as exc:
                raise TranscodeError(
                    f"{meta.name}: source chunk {chunk.chunk_id} on {chunk.node_id} is "
                    f"unreadable from {by} and stripe {stripe_meta.stripe_index} "
                    "cannot decode it"
                ) from exc
            data, src = rebuilt[index][start:], by
        for node in to[1:]:
            fs.metrics.record_transfer(src, node, float(data.nbytes))
        return data

    def _homes(
        self, meta: FileMeta, stripe_metas: List[ECStripeMeta], plan: ConversionPlan
    ) -> List[List[str]]:
        """Where each final parity is computed — ``homes[final stripe][j]``
        — fixed before the reads: where the old parities it merges sit
        (``plan.parity_reads``), else — none merges into it — the slot its
        k*-window reserves (the file's policy, built when first needed),
        unless that node is unreachable or already holds a chunk of the
        final stripe; then a fresh node (:func:`home_for`)."""
        fs = self.fs
        held = [c.node_id for c in meta.all_chunks()]
        k_i = stripe_metas[0].k
        k_f, n_finals = plan.final.k, plan.n_final_stripes
        start = meta.first_data_index(stripe_metas[0])
        placement = None
        sources: Dict[Tuple[int, int], List[str]] = {}
        for (i, j), final in plan.parity_reads.items():
            sources.setdefault(final, []).append(stripe_metas[i].parities[j].node_id)
        homes: List[List[str]] = []
        for m in range(n_finals):
            occupied = {
                stripe_metas[t // k_i].data[t % k_i].node_id
                for t in range(m * k_f, (m + 1) * k_f)
            }
            row: List[str] = []
            for j in range(plan.final.r):
                prefer = sources.get((m, j))
                if prefer is None:
                    placement = placement or fs._placement_for(
                        meta, start, start + n_finals * k_f
                    )
                    prefer = placement.reserved(meta.name, start + m * k_f, j)
                row.append(home_for(fs.datanodes, fs.commandable, occupied, held, prefer))
                occupied.add(row[-1])
            homes.append(row)
        return homes

    def _commit_final_stripe(
        self,
        meta: FileMeta,
        group: ConversionGroup,
        m: int,
        stripe_metas: List[ECStripeMeta],
        final_stripe: Stripe,
        homes: List[str],
        plan: ConversionPlan,
    ) -> None:
        """Final stripe ``m`` of a group is computed: store it, stage it
        — unless the job has staged it already (the group ran before a
        restart). Data chunks keep their homes (and their metadata);
        parity ``j`` is written on ``homes[j]``, which combined the
        plan's ``width`` chunks to compute it."""
        fs = self.fs
        if (group.group_index, m) in fs.namenode.utm[meta.name].new_stripes:
            return
        k_i = stripe_metas[0].k
        data = [
            stripe_metas[t // k_i].data[t % k_i]
            for t in range(m * final_stripe.k, (m + 1) * final_stripe.k)
        ]
        r_f = final_stripe.n - final_stripe.k
        parity_ids = [
            fs.namenode.next_chunk_id(
                f"{meta.name}/t{meta.version+1}/g{group.group_index}s{m}p{j}"
            )
            for j in range(r_f)
        ]
        # Without k*-aware placement, merge partners may share servers;
        # reliability demands moving the colliding chunks (§5.3 — the
        # IO Morph's data-separation policy designs away).
        self._relocate_collisions(meta, data, set(homes))
        # The new parities (local when co-located), CPU charged in
        # proportion to the combination width on each parity node.
        kinds = fs._parity_kinds(plan.final)
        parities = []
        for j, chunk_id in enumerate(parity_ids):
            parities.append(
                fs.store_chunk(
                    homes[j], chunk_id, final_stripe.chunks[final_stripe.k + j], kinds[j]
                )
            )
            fs.charge_encode(homes[j], plan.width, 1, meta.chunk_size)
        fs.namenode.record_new_stripe(
            meta.name,
            group.group_index,
            m,
            # stripe_index 0: renumbered at finalize
            ECStripeMeta(0, final_stripe.k, final_stripe.n, data, parities),
        )

    def _relocate_collisions(
        self, meta: FileMeta, data: List[ChunkMeta], seen: set
    ) -> None:
        """Move data chunks of a final stripe so that none shares a node
        with another or with a parity (``seen``: the parity nodes), each
        to a node holding no chunk of the stripe."""
        fs = self.fs
        for chunk in data:
            if chunk.node_id not in seen:
                seen.add(chunk.node_id)
                continue
            if not fs.chunk_readable(chunk, by=NAMENODE):
                continue  # it cannot be read where it sits: tolerate it
            occupied = seen.union(c.node_id for c in data)
            held = [c.node_id for c in meta.all_chunks()]
            fresh = home_for(fs.datanodes, fs.commandable, occupied, held)
            if fresh in occupied:
                # Cluster too small/degraded/partitioned to fully separate
                # this stripe — no node the namenode can command is free:
                # tolerate the collision (capacity pressure trade-off).
                continue
            source = fs.datanodes[chunk.node_id]
            old_id = chunk.chunk_id
            # ``chunk`` is the file's live object, shared with the stripe
            # being assembled: the namenode rewrites it in place.
            fs.rehome_chunks(
                meta,
                [(chunk, fresh, source.read(old_id))],
                src=chunk.node_id,
                label="moved",
            )
            source.delete(old_id)
            seen.add(fresh)


class RRWTranscoder:
    """Baseline: the application reads, re-encodes and re-writes the file."""

    def __init__(self, fs):
        self.fs = fs

    def transcode(self, name: str, target_scheme) -> FileMeta:
        meta = self.fs.namenode.lookup(name)
        data = self.fs.read_file(name)  # client reads everything
        temp_name = f"{name}.rrw-tmp"
        self.fs.write_file(temp_name, data, target_scheme)
        self.fs.delete_file(name)
        self.fs.namenode.rename(temp_name, name)
        return self.fs.namenode.lookup(name)
