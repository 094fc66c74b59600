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

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cluster.partition import NAMENODE
from repro.cluster.placement import home_for
from repro.codes.base import Stripe
from repro.codes.convertible import plan_conversion, convert
from repro.codes.lrcc import convert_cc_to_lrcc, convert_lrcc_to_lrcc, merge_sources
from repro.core.schemes import CodeKind, ECScheme
from repro.dfs.blocks import ChunkMeta, ECStripeMeta, FileMeta
from repro.dfs.client import ReadError
from repro.dfs.namenode import ConversionGroup

#: pending conversion groups of one file submitted to a scheduler per
#: intake — per heartbeat (§6.2)
MAX_TRANSCODE_GROUPS_PER_TICK = 8


class TranscodeError(RuntimeError):
    """A conversion group could not be executed."""


class NativeTranscoder:
    """Executes conversion groups against the datanodes."""

    def __init__(self, fs):
        self.fs = fs

    # -- work loop ------------------------------------------------------------
    def submit_pending(self, scheduler, names: Iterable[str], skip=frozenset()) -> None:
        """The one transcode intake rule, for the heartbeat and
        :meth:`run_pending` alike: per transcoding file of ``names``,
        submit to ``scheduler`` the job's pending groups that no task in
        its backlog holds — matched by ``(file, group_index)``, as are
        ``skip``'s keys — at most :data:`MAX_TRANSCODE_GROUPS_PER_TICK`
        of them, and one finalize task unless one is queued."""
        from repro.sched.tasks import ConversionGroupTask, TranscodeFinalizeTask

        utm = self.fs.namenode.utm
        jobs = [utm[name] for name in names if name in utm]
        if not jobs:
            return
        queued = set(skip)
        finalizing = set()
        for task in scheduler.queue.backlog():
            if isinstance(task, ConversionGroupTask):
                queued.add((task.group.file_name, task.group.group_index))
            elif isinstance(task, TranscodeFinalizeTask):
                finalizing.add(task.name)
        for job in jobs:
            name = job.file_name
            fresh = [
                group for group in job.pending_groups()
                if (name, group.group_index) not in queued
            ]
            for group in fresh[:MAX_TRANSCODE_GROUPS_PER_TICK]:
                scheduler.submit(ConversionGroupTask(group, deadline=job.deadline))
            if name not in finalizing:
                scheduler.submit(TranscodeFinalizeTask(name))

    def run_pending(self, name: str) -> None:
        """Run a file's transcode to its switch, intake by intake.

        Work flows through a private, unthrottled maintenance scheduler.
        ``max_attempts=1`` keeps the inline path fail-fast — an
        unexecutable group (planner/width errors) surfaces to the caller
        as the original exception, via the scheduler's dead-letter list.
        """
        from repro.sched.policies import SchedulerPolicy
        from repro.sched.scheduler import MaintenanceScheduler

        sched = MaintenanceScheduler(self.fs, SchedulerPolicy(max_attempts=1))
        while name in self.fs.namenode.utm:
            self.submit_pending(sched, [name])
            sched.run_until_drained()
            if sched.dead_letter:
                raise sched.dead_letter[0].last_error

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
        meta = self.fs.namenode.lookup(group.file_name)
        target = group.target_scheme
        ec = target.ec_part
        if not isinstance(ec, ECScheme):
            raise TranscodeError(f"cannot natively transcode into {target}")
        if ec.kind is CodeKind.CC:
            self._execute_cc_group(meta, group, ec)
        elif ec.kind is CodeKind.LRCC:
            self._execute_lrcc_group(meta, group, ec)
        else:
            raise TranscodeError(f"native transcode needs a convertible code, got {ec}")

    def _load_stripes(
        self,
        meta: FileMeta,
        stripe_metas: List[ECStripeMeta],
        data_reads: Iterable[int],
        parity_reads: Dict[Tuple[int, int], Tuple[int, int]],
        homes: List[List[str]],
        start: int = 0,
    ) -> List[Stripe]:
        """Fetch exactly the planned chunks into Stripe objects: an old
        parity to the node computing the final parity it feeds
        (``parity_reads``: ``(stripe, j) -> (final stripe, parity)``,
        ``homes[final stripe][parity]``), a data chunk — from byte
        ``start``, zero-padded in front — to every computing node, so
        every remote read is charged as network."""
        k_i = stripe_metas[0].k
        stripes = [
            Stripe(sm.k, sm.n, [None] * sm.n) for sm in stripe_metas
        ]
        everyone = list(dict.fromkeys(node for row in homes for node in row))
        for t in sorted(data_reads):
            stripe_i, local = divmod(t, k_i)
            chunk = self._source(meta, stripe_metas[stripe_i], local, everyone, start)
            if start:
                chunk = np.concatenate([np.zeros(start, dtype=np.uint8), chunk])
            stripes[stripe_i].chunks[local] = chunk
        for (i, j), (m, p) in sorted(parity_reads.items()):
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
        data, src = fs.fetch_chunk(chunk, by, "transcode", start), chunk.node_id
        if data is None:
            try:
                rebuilt = fs.rebuild_slots(meta, stripe_meta, [index], by, "transcode")[1]
            except ReadError as exc:
                raise TranscodeError(
                    f"{meta.name}: source chunk {chunk.chunk_id} on {chunk.node_id} is "
                    f"unreadable from {by} and stripe {stripe_meta.stripe_index} "
                    "cannot decode it"
                ) from exc
            data, src = rebuilt[index][start:], by
        for node in to[1:]:
            fs.metrics.record_transfer(
                src, node, float(data.nbytes), at=fs.clock, tag="transcode"
            )
        return data

    def _homes(
        self,
        meta: FileMeta,
        stripe_metas: List[ECStripeMeta],
        parity_reads: Dict[Tuple[int, int], Tuple[int, int]],
        n_finals: int,
        r_f: int,
    ) -> List[List[str]]:
        """Where each final parity is computed — ``homes[final stripe][j]``
        — fixed before the reads: where the old parities it merges sit
        (``parity_reads``), else — none merges into it — the slot its
        k*-window reserves (the file's policy, built when first needed),
        unless that node is unreachable or already holds a chunk of the
        final stripe; then a fresh node (:func:`home_for`)."""
        fs = self.fs
        held = [c.node_id for c in meta.all_chunks()]
        k_i = stripe_metas[0].k
        k_f = sum(sm.k for sm in stripe_metas) // n_finals
        start = meta.first_data_index(stripe_metas[0])
        placement = None
        sources: Dict[Tuple[int, int], List[str]] = {}
        for (i, j), final in parity_reads.items():
            sources.setdefault(final, []).append(stripe_metas[i].parities[j].node_id)
        homes: List[List[str]] = []
        for m in range(n_finals):
            occupied = {
                stripe_metas[t // k_i].data[t % k_i].node_id
                for t in range(m * k_f, (m + 1) * k_f)
            }
            row: List[str] = []
            for j in range(r_f):
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

    def _execute_cc_group(self, meta: FileMeta, group: ConversionGroup, ec: ECScheme) -> None:
        stripe_metas = [meta.stripes[i] for i in group.initial_stripe_indices]
        k_i = stripe_metas[0].k
        r_i = stripe_metas[0].n - k_i
        total_data = sum(sm.k for sm in stripe_metas)
        if any(sm.k != k_i for sm in stripe_metas[:-1]):
            raise TranscodeError("conversion group has inconsistent widths")
        if ec.r > r_i:
            # Parity growth: needs the bandwidth-optimal vector-code path
            # (only valid when the stripes were encoded anticipating it).
            self._execute_bwo_group(meta, group, ec, stripe_metas)
            return
        # Short tail groups merge into one stripe of their own total width.
        k_f = ec.k if total_data % ec.k == 0 else total_data
        r_f = ec.r
        initial = self.fs.cc_codec(k_i, k_i + r_i)
        final = self.fs.cc_codec(k_f, k_f + r_f)
        plan = plan_conversion(initial, final, len(stripe_metas))
        homes = self._homes(meta, stripe_metas, plan.parity_reads, plan.n_final_stripes, r_f)
        stripes = self._load_stripes(
            meta, stripe_metas, plan.data_reads, plan.parity_reads, homes
        )
        finals, _io = convert(initial, final, stripes, plan)
        # Each parity node combines one old parity per stripe plus the
        # data chunks the plan reads.
        width = len(stripe_metas) + len(plan.data_reads)
        for m, final_stripe in enumerate(finals):
            self._commit_final_stripe(
                meta, group, m, stripe_metas, final_stripe, homes[m], ec, width
            )

    def _execute_bwo_group(
        self,
        meta: FileMeta,
        group: ConversionGroup,
        ec: ECScheme,
        stripe_metas: List[ECStripeMeta],
    ) -> None:
        """Merge BWO-encoded stripes into a wider stripe with more parities.

        Reads every old parity in full — to the node computing the final
        parity of its index — plus only the **tail fraction** ``(r_F -
        r_I) / r_F`` of each data chunk (hop-and-couple: one contiguous
        range per chunk, metered as a partial read). A parity with no old
        one of its index is computed on the slot the file's k*-window
        reserves for it, where there is one.
        """
        from repro.codes.bandwidth import BandwidthOptimalCC

        source = meta.scheme.ec_part
        if (
            not isinstance(source, ECScheme)
            or source.anticipate_parities != ec.r
        ):
            raise TranscodeError(
                "parity growth requires stripes encoded with "
                f"anticipate_parities={ec.r}"
            )
        k_i = stripe_metas[0].k
        r_i = stripe_metas[0].n - k_i
        r_f = ec.r
        lam = len(stripe_metas)
        if ec.k != lam * k_i:
            raise TranscodeError("BWO conversion supports the merge regime only")
        bwo = BandwidthOptimalCC.for_merge(k_i, r_i, r_f, family_width=ec.k)
        final = self.fs.cc_codec(ec.k, ec.n)
        reads = {(i, j): (0, j) for i in range(lam) for j in range(r_i)}
        homes = self._homes(meta, stripe_metas, reads, 1, r_f)
        # Sources are read where readable and decoded from the stripe's
        # survivors where not (a dead or cut-off home), like every other
        # conversion's.
        tail_start = r_i * (meta.chunk_size // r_f)
        stripes = self._load_stripes(
            meta, stripe_metas, range(lam * k_i), reads, homes, tail_start
        )
        merged, _io = bwo.convert_merge(stripes, final)
        self._commit_final_stripe(
            meta, group, 0, stripe_metas, merged, homes[0], ec, lam * r_i + ec.k
        )

    def _commit_final_stripe(
        self,
        meta: FileMeta,
        group: ConversionGroup,
        m: int,
        stripe_metas: List[ECStripeMeta],
        final_stripe: Stripe,
        homes: List[str],
        ec: ECScheme,
        width: int,
    ) -> None:
        """Final stripe ``m`` of a group is computed: store it, stage it
        — unless the job has staged it already (the group ran before a
        restart). Data chunks keep their homes (and their metadata);
        parity ``j`` is written on ``homes[j]``, which combined ``width``
        chunks to compute it."""
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
        kinds = fs._parity_kinds(ec)
        parities = []
        for j, chunk_id in enumerate(parity_ids):
            parities.append(
                fs.store_chunk(
                    homes[j], chunk_id, final_stripe.chunks[final_stripe.k + j], kinds[j]
                )
            )
            fs.charge_encode(homes[j], width, 1, meta.chunk_size)
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
                [(chunk, fresh, source.read(old_id, at=fs.clock))],
                src=chunk.node_id,
                label="moved",
            )
            source.delete(old_id, at=fs.clock)
            seen.add(fresh)

    def _execute_lrcc_group(self, meta: FileMeta, group: ConversionGroup, ec: ECScheme) -> None:
        """Merge stripes into one LRCC stripe, reading the parities
        :func:`merge_sources` names: the first parity (CC) or the locals
        (LRCC) of every stripe, and the globals that merge."""
        stripe_metas = [meta.stripes[i] for i in group.initial_stripe_indices]
        source_ec = meta.scheme.ec_part
        final = self.fs.codec_for(ec)
        if isinstance(source_ec, ECScheme) and source_ec.kind is CodeKind.LRCC:
            initial = self.fs.codec_for(source_ec)
            conversion = convert_lrcc_to_lrcc
        else:
            initial = self.fs.cc_codec(stripe_metas[0].k, stripe_metas[0].n)
            conversion = convert_cc_to_lrcc
        reads = merge_sources(initial, final, len(stripe_metas))
        homes = self._homes(meta, stripe_metas, reads, 1, final.n - final.k)
        stripes = self._load_stripes(meta, stripe_metas, (), reads, homes)
        final_stripe, _io = conversion(initial, final, stripes)
        self._commit_final_stripe(
            meta, group, 0, stripe_metas, final_stripe, homes[0], ec, len(stripe_metas)
        )


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
