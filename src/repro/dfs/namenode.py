"""Namenode: namespace, chunk directory and the transcode module (§6.2).

The transcode module mirrors the paper's architecture:

* ``transcode(file, scheme)`` enqueues work; the Namenode forms new
  stripes over *sequential* data chunks and pushes conversion groups into
  the **awaiting-transcoding queue (ATQ)**.
* Work is polled from the ATQ (bounded per heartbeat) and tracked in the
  **undergoing-transcoding map (UTM)** — per file, a bitmap of pending
  final parities.
* Completion of every parity of every stripe triggers the **atomic
  metadata switch**: new stripes replace old, old parities become
  garbage, the file version bumps. Old parities are deleted only after
  the switch, so reads/degraded-reads/reconstruction work mid-transcode,
  and a crash before the switch simply leaves the (still valid) old
  metadata in place — restart re-runs the conversion idempotently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from sys import intern as _intern
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.schemes import RedundancyScheme
from repro.dfs.blocks import ChunkMeta, ECStripeMeta, FileMeta, FileState


class FileNotFoundError_(KeyError):
    """Requested file is not in the namespace."""


class TranscodeStateError(RuntimeError):
    """Invalid transcode lifecycle transition."""


@dataclass
class ConversionGroup:
    """One unit of transcode work: a run of initial stripes -> final stripes."""

    file_name: str
    group_index: int
    initial_stripe_indices: List[int]
    n_final_stripes: int
    target_scheme: RedundancyScheme


@dataclass
class TranscodeJob:
    """All pending work for one file's transcode."""

    file_name: str
    target_scheme: RedundancyScheme
    groups: List[ConversionGroup] = field(default_factory=list)
    #: bitmap over (group, final_stripe, parity) completion — int bitmask
    pending_bits: int = 0
    total_bits: int = 0
    #: final stripes accumulated by the transcoder, keyed by (group, idx)
    new_stripes: Dict[Tuple[int, int], ECStripeMeta] = field(default_factory=dict)
    #: absolute DFS-clock time the lifetime policy wants this transcode
    #: done by; the maintenance scheduler boosts the job as it nears
    deadline: Optional[float] = None

    def is_complete(self) -> bool:
        return self.total_bits > 0 and self.pending_bits == 0


class Namenode:
    """Namespace + block map + ATQ/UTM transcode bookkeeping."""

    def __init__(self):
        self.files: Dict[str, FileMeta] = {}
        #: awaiting-transcoding queue: conversion groups not yet assigned
        self.atq: Deque[ConversionGroup] = deque()
        #: undergoing-transcoding map: file -> job state
        self.utm: Dict[str, TranscodeJob] = {}
        self._chunk_seq = 0
        #: per-node chunk index: node_id -> {file_name: None} for every
        #: file with at least one chunk homed on the node.  A dict (not a
        #: set) so iteration order is insertion order, independent of str
        #: hash randomization — node-major scans stay run-deterministic.
        #: Maintained incrementally on register/note/finalize; removals
        #: are lazy (see chunks_on_node), so a stale name is harmless but
        #: a *missing* one would be a bug: every code path that homes a
        #: chunk on a node must call note_chunk/note_file.
        self._node_files: Dict[str, Dict[str, None]] = {}
        #: registration order of live files, so node-major queries can
        #: present results in the same file order as a full namespace
        #: scan would (keeps repair ordering identical to the O(files)
        #: implementation this index replaced).
        self._file_order: Dict[str, int] = {}
        self._file_seq = 0

    # -- namespace --------------------------------------------------------
    def register_file(self, meta: FileMeta) -> None:
        if meta.name in self.files:
            raise ValueError(f"file exists: {meta.name}")
        meta.name = _intern(meta.name)
        self.files[meta.name] = meta
        self._file_seq += 1
        self._file_order[meta.name] = self._file_seq
        self.note_file(meta)

    def register_files(self, metas: Iterable[FileMeta]) -> None:
        """Batched ingest registration: one call for a whole batch of
        files, resolving the per-call attribute/method overhead once."""
        files = self.files
        order = self._file_order
        node_files = self._node_files
        seq = self._file_seq
        for meta in metas:
            name = _intern(meta.name)
            if name in files:
                raise ValueError(f"file exists: {name}")
            meta.name = name
            files[name] = meta
            seq += 1
            order[name] = seq
            # Inlined chunk walk (not meta.all_chunks()): at a million
            # files the per-file list concatenations dominate this loop.
            for stripe in meta.stripes:
                for chunk in stripe.data:
                    index = node_files.get(chunk.node_id)
                    if index is None:
                        node_files[_intern(chunk.node_id)] = {name: None}
                    else:
                        index[name] = None
                for chunk in stripe.parities:
                    index = node_files.get(chunk.node_id)
                    if index is None:
                        node_files[_intern(chunk.node_id)] = {name: None}
                    else:
                        index[name] = None
            for block in meta.replica_blocks:
                for chunk in block.copies:
                    index = node_files.get(chunk.node_id)
                    if index is None:
                        node_files[_intern(chunk.node_id)] = {name: None}
                    else:
                        index[name] = None
        self._file_seq = seq

    def lookup(self, name: str) -> FileMeta:
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundError_(name) from None

    def unregister_file(self, name: str) -> FileMeta:
        meta = self.files.pop(name)
        self._file_order.pop(name, None)
        # Per-node index entries are left behind and purged lazily by
        # chunks_on_node — deletion stays O(1) regardless of file size.
        if name in self.utm:
            # Deleting (or renaming) a file mid-transcode drops its job:
            # a UTM entry and queued ATQ groups keyed by a name that no
            # longer resolves would otherwise leak forever and crash any
            # worker that later polls them.
            del self.utm[name]
            self.atq = deque(g for g in self.atq if g.file_name != name)
            meta.state = FileState.HEALTHY
        return meta

    def next_chunk_id(self, prefix: str) -> str:
        self._chunk_seq += 1
        return f"{prefix}#{self._chunk_seq:08d}"

    def next_chunk_ids(self, prefix: str, count: int) -> List[str]:
        """Batched id mint: one namenode round-trip for a whole stripe
        or replica pipeline instead of one per chunk."""
        start = self._chunk_seq + 1
        self._chunk_seq += count
        return [f"{prefix}#{i:08d}" for i in range(start, start + count)]

    def rename(self, old: str, new: str) -> None:
        # Validate before mutating: failing in register_file after the
        # unregister would drop the file from the namespace (and, on a
        # journaled namenode, with no record of either step).
        if old not in self.files:
            raise FileNotFoundError_(old)
        if new != old and new in self.files:
            raise ValueError(f"file exists: {new}")
        meta = self.unregister_file(old)
        meta.name = new
        self.register_file(meta)

    # -- per-node chunk index ----------------------------------------------
    def note_chunk(self, node_id: str, file_name: str) -> None:
        """Record that ``file_name`` now has a chunk homed on ``node_id``.

        Every path that places or moves a chunk must call this (or
        :meth:`note_file`); the index has no other way to learn about
        placements, and node-major queries trust it exhaustively.
        """
        index = self._node_files.get(node_id)
        if index is None:
            self._node_files[_intern(node_id)] = {file_name: None}
        else:
            index[file_name] = None

    def note_file(self, meta: FileMeta) -> None:
        """Index every current chunk placement of ``meta``."""
        node_files = self._node_files
        name = meta.name
        for chunk in meta.all_chunks():
            index = node_files.get(chunk.node_id)
            if index is None:
                node_files[_intern(chunk.node_id)] = {name: None}
            else:
                index[name] = None

    # -- transcode lifecycle -------------------------------------------------
    def enqueue_transcode(
        self,
        name: str,
        target_scheme: RedundancyScheme,
        groups: List[ConversionGroup],
        parities_per_final_stripe: int,
        deadline: Optional[float] = None,
    ) -> TranscodeJob:
        """Queue a file's conversion groups into the ATQ (transcode())."""
        meta = self.lookup(name)
        if name in self.utm:
            raise TranscodeStateError(f"{name} is already transcoding")
        job = TranscodeJob(
            file_name=name,
            target_scheme=target_scheme,
            groups=groups,
            deadline=deadline,
        )
        bit = 0
        for group in groups:
            for _final in range(group.n_final_stripes):
                for _p in range(parities_per_final_stripe):
                    job.pending_bits |= 1 << bit
                    bit += 1
        job.total_bits = bit
        self.utm[name] = job
        self.atq.extend(groups)
        meta.state = FileState.TRANSCODING
        return job

    def poll_work(self, max_items: int = 8) -> List[ConversionGroup]:
        """Pop up to ``max_items`` groups from the ATQ (per heartbeat)."""
        out = []
        while self.atq and len(out) < max_items:
            out.append(self.atq.popleft())
        return out

    def poll_work_for(self, name: str, max_items: int = 8) -> List[ConversionGroup]:
        """Pop up to ``max_items`` of one file's groups from the ATQ,
        leaving other files' groups queued in order."""
        out: List[ConversionGroup] = []
        rest: List[ConversionGroup] = []
        while self.atq:
            group = self.atq.popleft()
            if group.file_name == name and len(out) < max_items:
                out.append(group)
            else:
                rest.append(group)
        self.atq.extendleft(reversed(rest))
        return out

    def _bit_index(
        self, job: TranscodeJob, group_index: int, final_idx: int, parity_j: int, parities: int
    ) -> int:
        offset = 0
        for g in job.groups:
            if g.group_index == group_index:
                return offset + (final_idx * parities + parity_j)
            offset += g.n_final_stripes * parities
        raise TranscodeStateError(f"unknown group {group_index}")

    def complete_parity(
        self,
        name: str,
        group_index: int,
        final_idx: int,
        parity_j: int,
        parities_per_final_stripe: int,
    ) -> None:
        """Mark one new parity persisted (UTM bitmap update)."""
        job = self.utm.get(name)
        if job is None:
            raise TranscodeStateError(f"{name} is not transcoding")
        bit = self._bit_index(
            job, group_index, final_idx, parity_j, parities_per_final_stripe
        )
        job.pending_bits &= ~(1 << bit)

    def record_new_stripe(
        self, name: str, group_index: int, final_idx: int, stripe: ECStripeMeta
    ) -> None:
        job = self.utm.get(name)
        if job is None:
            raise TranscodeStateError(f"{name} is not transcoding")
        job.new_stripes[(group_index, final_idx)] = stripe

    def try_finalize(self, name: str) -> Optional[List[ChunkMeta]]:
        """Atomic metadata switch once every parity bit has cleared.

        Returns the now-garbage old parity chunks (for deletion by the
        caller) or None if the job is still pending. The switch itself is
        a single in-memory reassignment: a crash before it leaves the old,
        fully consistent metadata in effect.
        """
        job = self.utm.get(name)
        if job is None or not job.is_complete():
            return None
        meta = self.lookup(name)
        old_parities: List[ChunkMeta] = [
            p for stripe in meta.stripes for p in stripe.parities
        ]
        ordered = [job.new_stripes[key] for key in sorted(job.new_stripes)]
        for i, stripe in enumerate(ordered):
            stripe.stripe_index = i
        # THE atomic switch: one reference assignment.
        meta.stripes = ordered
        meta.scheme = job.target_scheme
        meta.replica_blocks = []
        meta.state = FileState.HEALTHY
        meta.version += 1
        del self.utm[name]
        # The new stripes' parities may live on nodes the file never
        # touched before the switch.
        self.note_file(meta)
        return old_parities

    def abort_transcode(self, name: str) -> None:
        """Simulate a crash: forget in-flight transcode state (UTM is
        in-memory only; the paper avoids persisting it). Old metadata
        stays in effect; the ATQ entries for the file are dropped."""
        self.utm.pop(name, None)
        self.atq = deque(g for g in self.atq if g.file_name != name)
        meta = self.files.get(name)
        if meta is not None:
            meta.state = FileState.HEALTHY

    # -- persistence --------------------------------------------------------
    def snapshot(self, include_transcode: bool = False) -> dict:
        """Durable Namenode state.

        By default the ATQ and UTM are absent (§6.2): the transcode
        completion signal is the reference point for filesystem state, so
        in-flight transcode bookkeeping never needs to be persisted — a
        restart simply re-runs any unfinished conversion.

        ``include_transcode=True`` captures them anyway; the op-log
        journal (:mod:`repro.dfs.journal`) uses this so queued and
        half-finished conversions survive a restart instead of being
        redone from scratch.
        """
        snap = {
            "files": dict(self.files),
            "chunk_seq": self._chunk_seq,
        }
        if include_transcode:
            snap["atq"] = list(self.atq)
            snap["utm"] = dict(self.utm)
        return snap

    @classmethod
    def restore(cls, snapshot: dict) -> "Namenode":
        """Bring up a fresh Namenode from a snapshot (post-crash)."""
        node = cls()
        node.files = dict(snapshot["files"])
        node._chunk_seq = snapshot["chunk_seq"]
        with_transcode = "utm" in snapshot
        if with_transcode:
            node.utm = dict(snapshot["utm"])
            node.atq = deque(snapshot.get("atq", ()))
        for meta in node.files.values():
            if not with_transcode:
                # In-flight transcodes died with the old process; their
                # files revert to HEALTHY under the old (still valid)
                # metadata.  With transcode state captured, file states
                # were consistent at snapshot time and stay as they are.
                meta.state = FileState.HEALTHY
            node._file_seq += 1
            node._file_order[meta.name] = node._file_seq
            node.note_file(meta)
        return node

    # -- capacity / health --------------------------------------------------
    def metadata_stats(self) -> dict:
        """Namespace size summary (report/observability; O(chunks))."""
        n_chunks = 0
        for meta in self.files.values():
            for stripe in meta.stripes:
                n_chunks += len(stripe.data) + len(stripe.parities)
            for block in meta.replica_blocks:
                n_chunks += len(block.copies)
        return {
            "files": len(self.files),
            "chunks": n_chunks,
            "atq": len(self.atq),
            "utm": len(self.utm),
        }

    def chunks_on_node(self, node_id: str) -> List[Tuple[FileMeta, ChunkMeta]]:
        """All (file, chunk) pairs currently homed on ``node_id``.

        O(index entries for the node), not O(all files): only files the
        per-node index knows to have touched the node are scanned.  Index
        entries whose file no longer has a chunk here (deleted, moved by
        repair or transcode) are purged as they are encountered, so the
        index self-heals without any unindex hooks on the removal paths.
        Results come out in file-registration order — the same order a
        full namespace scan would produce.
        """
        index = self._node_files.get(node_id)
        if index is None:
            return []
        out: List[Tuple[FileMeta, ChunkMeta]] = []
        stale: List[str] = []
        files = self.files
        order = self._file_order
        names = sorted(index, key=lambda n: order.get(n, 0)) if len(index) > 1 else index
        for name in names:
            meta = files.get(name)
            found = False
            if meta is not None:
                # Inlined chunk walk — same results as meta.all_chunks()
                # without building a throwaway list per file.
                for stripe in meta.stripes:
                    for chunk in stripe.data:
                        if chunk.node_id == node_id:
                            out.append((meta, chunk))
                            found = True
                    for chunk in stripe.parities:
                        if chunk.node_id == node_id:
                            out.append((meta, chunk))
                            found = True
                for block in meta.replica_blocks:
                    for chunk in block.copies:
                        if chunk.node_id == node_id:
                            out.append((meta, chunk))
                            found = True
            if not found:
                stale.append(name)
        for name in stale:
            del index[name]
        if not index:
            del self._node_files[node_id]
        return out
