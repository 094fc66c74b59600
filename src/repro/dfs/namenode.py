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

One write path: state (namespace, chunk sequence, ATQ, UTM and the
derived caches) changes only inside :meth:`Namenode.apply`, which
dispatches one of the fifteen op types below to its handler.  The public
mutators only build an op and hand it to ``self.apply``, so the journal
(:mod:`repro.dfs.journal`) and the shard router (:mod:`repro.dfs.shards`)
override ``apply`` and nothing else.  A handler validates before it
mutates — a rejected op changes nothing — and does nested work through
other handlers, never ``apply``: one public call is one op, and one op
is at most one journal record.

The per-node chunk index (``_node_files``) is one of those derived
caches and is *exact*: the handlers that add, move or drop a chunk apply
the matching index delta, so :meth:`Namenode.chunks_on_node` is a pure
read.  That holds because every change to a registered file arrives as
an op too — ``Place`` rewrites the live :class:`ChunkMeta`, ``Relayout``
swaps a file's tail (append, close, seal) and ``DropReplicas`` performs
the hybrid -> EC switch, all inside the namenode.  Nothing outside it
writes a registered :class:`FileMeta`; an op that stops listing chunks
returns them, and the caller deletes them only then (§6.2: the switch
first, then the copies it no longer lists).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from sys import intern as _intern
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.schemes import RedundancyScheme
from repro.dfs.blocks import (
    ChunkMeta,
    ECStripeMeta,
    FileMeta,
    FileState,
    ReplicaBlockMeta,
)


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

    def staged_chunks(self) -> List[ChunkMeta]:
        """The chunks of the final stripes stored so far: no file lists
        them until the switch, yet the namenode answers for them."""
        return [chunk for stripe in self.new_stripes.values() for chunk in stripe.all_chunks()]


#: one (node, file) entry of the per-node chunk index
_Entry = Union[ChunkMeta, List[ChunkMeta]]


def _chunk_lists(
    stripes: Sequence[ECStripeMeta], blocks: Sequence[ReplicaBlockMeta]
) -> List[List[ChunkMeta]]:
    """The chunk lists of a layout in order — each stripe's data then
    parities, then each replica block's copies: the order of a namespace
    scan.  (The lists themselves, not ``meta.all_chunks()``: at a
    million files the per-file concatenations dominate a batch.)"""
    lists = []
    for stripe in stripes:
        lists.append(stripe.data)
        lists.append(stripe.parities)
    for block in blocks:
        lists.append(block.copies)
    return lists


# -- ops: the closed set of namenode mutations --------------------------------
#
# One immutable type per journal opcode (a SNAPSHOT is a state load, not
# an op).  Field 0 is the name the op routes by on a sharded namenode —
# a file name; for Mint, the id prefix — except for the two that carry
# whole files.

class Register(NamedTuple):
    meta: FileMeta


class RegisterBatch(NamedTuple):
    metas: List[FileMeta]


class Unregister(NamedTuple):
    name: str


class Rename(NamedTuple):
    old: str
    new: str


class Note(NamedTuple):
    name: str


class Place(NamedTuple):
    name: str
    #: ``(old chunk id, new chunk id, node id)`` per moved chunk: the
    #: chunk of ``name`` known as ``old`` is now ``new`` on ``node``
    moves: Sequence[Tuple[str, str, str]]


class Relayout(NamedTuple):
    name: str
    #: the file keeps its first ``keep`` stripes and the replica blocks
    #: under them, and continues with ``stripes`` / ``blocks`` at ``size``
    keep: int
    stripes: Sequence[ECStripeMeta]
    blocks: Sequence[ReplicaBlockMeta]
    size: int


class DropReplicas(NamedTuple):
    name: str
    scheme: RedundancyScheme


class Mint(NamedTuple):
    prefix: Optional[str]  # only routes; not journaled (replay: None)
    count: int


class Enqueue(NamedTuple):
    name: str
    target_scheme: RedundancyScheme
    groups: List[ConversionGroup]
    parities: int
    deadline: Optional[float]


class Poll(NamedTuple):
    name: Optional[str]  # one file's groups, or (None) any file's
    max_items: int


class Complete(NamedTuple):
    name: str
    group_index: int
    final_idx: int
    parity_j: int
    parities: int


class NewStripe(NamedTuple):
    name: str
    group_index: int
    final_idx: int
    stripe: ECStripeMeta


class Finalize(NamedTuple):
    name: str


class Abort(NamedTuple):
    name: str


class Namenode:
    """Namespace + block map + ATQ/UTM transcode bookkeeping."""

    def __init__(self):
        self.files: Dict[str, FileMeta] = {}
        #: awaiting-transcoding queue: conversion groups not yet assigned
        self.atq: Deque[ConversionGroup] = deque()
        #: undergoing-transcoding map: file -> job state
        self.utm: Dict[str, TranscodeJob] = {}
        self._chunk_seq = 0
        #: per-node chunk index: node_id -> {file_name: the file's chunks
        #: homed on the node}, exactly — an entry exists iff the
        #: registered file lists a chunk there.  An entry is the
        #: ChunkMeta itself when the file has one chunk on the node (the
        #: placement rule makes that the common case, and it costs no
        #: allocation) and a list of them, in layout order, otherwise.
        #: Written by the op handlers and ``load`` only.
        self._node_files: Dict[str, Dict[str, _Entry]] = {}
        #: registration order of live files, so node-major queries can
        #: present results in the same file order as a full namespace
        #: scan would (keeps repair ordering identical to the O(files)
        #: implementation this index replaced).
        self._file_order: Dict[str, int] = {}
        self._file_seq = 0

    def apply(self, op):
        """Apply one op: the only way namenode state changes.  Returns
        what the op's handler returns; raises, having changed nothing,
        when the handler rejects it."""
        return self._HANDLERS[type(op)](self, *op)

    # -- public mutators: each builds one op ----------------------------------
    def register_file(self, meta: FileMeta) -> None:
        self.apply(Register(meta))

    def register_files(self, metas: Iterable[FileMeta]) -> None:
        """Batched ingest registration: the whole batch or none of it."""
        self.apply(RegisterBatch(list(metas)))

    def unregister_file(self, name: str) -> FileMeta:
        return self.apply(Unregister(name))

    def rename(self, old: str, new: str) -> None:
        self.apply(Rename(old, new))

    def next_chunk_id(self, prefix: str) -> str:
        return f"{prefix}#{self.apply(Mint(prefix, 1)):08d}"

    def next_chunk_ids(self, prefix: str, count: int) -> List[str]:
        """Batched id mint: one namenode round-trip for a whole stripe
        or replica pipeline instead of one per chunk."""
        start = self.apply(Mint(prefix, count))
        return [f"{prefix}#{i:08d}" for i in range(start, start + count)]

    def note_chunk(self, node_id: str, file_name: str) -> None:
        """Benchmark-harness shim (nothing under ``src/`` calls it):
        re-derive ``file_name``'s index entries from its metadata — and,
        journaled, record its full document.  ``node_id`` is not
        consulted, and a name that is not registered does nothing."""
        self.apply(Note(file_name))

    def place_chunks(self, name: str, moves: Sequence[Tuple[str, str, str]]) -> None:
        """Chunks of ``name`` moved: each ``(old id, new id, node id)``
        re-homes the chunk listed as ``old`` (repair, relocation)."""
        self.apply(Place(name, moves))

    def relayout_file(
        self, name: str, keep: int, stripes: Sequence[ECStripeMeta],
        blocks: Sequence[ReplicaBlockMeta], size: int,
    ) -> List[ChunkMeta]:
        """``name``'s tail changes (an append, a sealed stripe): it keeps
        its first ``keep`` stripes and the replica blocks under them, and
        continues with ``stripes`` / ``blocks``, ``size`` bytes long.
        Returns the chunks it no longer lists, for the caller to delete.
        """
        return self.apply(Relayout(name, keep, stripes, blocks, size))

    def drop_replicas(self, name: str, scheme: RedundancyScheme) -> List[ChunkMeta]:
        """The hybrid -> EC switch: ``name`` keeps its stripes under
        ``scheme``.  Returns the replica copies it no longer lists, for
        the caller to delete."""
        return self.apply(DropReplicas(name, scheme))

    def enqueue_transcode(self, name: str, target_scheme: RedundancyScheme,
                          groups: List[ConversionGroup], parities_per_final_stripe: int,
                          deadline: Optional[float] = None) -> TranscodeJob:
        """Queue a file's conversion groups into the ATQ (transcode())."""
        return self.apply(
            Enqueue(name, target_scheme, groups, parities_per_final_stripe, deadline)
        )

    def poll_work(self, max_items: int = 8) -> List[ConversionGroup]:
        """Pop up to ``max_items`` groups from the ATQ (per heartbeat)."""
        return self.apply(Poll(None, max_items))

    def poll_work_for(self, name: str, max_items: int = 8) -> List[ConversionGroup]:
        """Pop up to ``max_items`` of one file's groups from the ATQ,
        leaving other files' groups queued in order."""
        return self.apply(Poll(name, max_items))

    def complete_parity(self, name: str, group_index: int, final_idx: int,
                        parity_j: int, parities_per_final_stripe: int) -> None:
        """Mark one new parity persisted (UTM bitmap update)."""
        self.apply(
            Complete(name, group_index, final_idx, parity_j, parities_per_final_stripe)
        )

    def record_new_stripe(self, name: str, group_index: int, final_idx: int,
                          stripe: ECStripeMeta) -> None:
        self.apply(NewStripe(name, group_index, final_idx, stripe))

    def try_finalize(self, name: str) -> Optional[List[ChunkMeta]]:
        """Atomic metadata switch once every parity bit has cleared.

        Returns the now-garbage old parity chunks (for deletion by the
        caller) or None if the job is still pending. The switch itself is
        a single in-memory reassignment: a crash before it leaves the old,
        fully consistent metadata in effect.
        """
        return self.apply(Finalize(name))

    def abort_transcode(self, name: str) -> None:
        """Simulate a crash: forget in-flight transcode state (UTM is
        in-memory only; the paper avoids persisting it). Old metadata
        stays in effect; the ATQ entries for the file are dropped."""
        self.apply(Abort(name))

    # -- handlers: the only code that changes state ---------------------------
    # Called as ``handler(self, *op)``: a handler's parameters are the
    # fields of its op type, which is where their types are declared.

    def _register(self, meta):
        if meta.name in self.files:
            raise ValueError(f"file exists: {meta.name}")
        name = meta.name = _intern(meta.name)
        self.files[name] = meta
        self._file_seq += 1
        self._file_order[name] = self._file_seq
        self._index(meta)

    def _register_batch(self, metas):
        self._check_new(metas)
        files = self.files
        order = self._file_order
        index = self._index
        seq = self._file_seq
        for meta in metas:
            name = meta.name = _intern(meta.name)
            files[name] = meta
            seq += 1
            order[name] = seq
            index(meta)
        self._file_seq = seq

    def _check_new(self, metas: List[FileMeta]) -> None:
        """Reject a batch — before any of it registers — if a name is
        taken in the namespace or appears twice in the batch."""
        names = {meta.name for meta in metas}
        if len(names) < len(metas) or not self.files.keys().isdisjoint(names):
            seen = set()
            for meta in metas:  # name the first offender
                if meta.name in self.files or meta.name in seen:
                    raise ValueError(f"file exists: {meta.name}")
                seen.add(meta.name)

    def _unregister(self, name):
        meta = self.files.pop(name)
        self._file_order.pop(name, None)
        # By ``name``, not ``meta.name``: a cross-shard rename has already
        # re-labelled the object it is taking away.
        self._unindex(name, meta)
        if name in self.utm:
            # Deleting (or renaming) a file mid-transcode drops its job:
            # a UTM entry and queued ATQ groups keyed by a name that no
            # longer resolves would otherwise leak forever and crash any
            # worker that later polls them.
            self._abort(name)
            meta.state = FileState.HEALTHY
        return meta

    def _rename(self, old, new):
        if old not in self.files:
            raise FileNotFoundError_(old)
        if new != old and new in self.files:
            raise ValueError(f"file exists: {new}")
        meta = self._unregister(old)
        meta.name = new
        self._register(meta)

    def _note(self, name):
        meta = self.files.get(name)
        if meta is None:
            return
        # The metadata need not say where the old entries are (a harness
        # may have edited it): every node is asked.
        for index in self._node_files.values():
            index.pop(name, None)
        self._index(meta)

    def _place(self, name, moves):
        meta = self.lookup(name)
        # Every slot resolved before any is rewritten — to the live
        # object: mid-transcode it is shared with the UTM job's new
        # stripes, which must see the move.
        chunks = [meta.chunk_by_id(old) for old, _new, _node in moves]
        if None in chunks:
            raise KeyError(f"{name} lists no chunk {moves[chunks.index(None)][0]}")
        for chunk, (_old, new, node_id) in zip(chunks, moves):
            self._unindex_chunk(name, chunk)
            chunk.chunk_id = new
            chunk.node_id = node_id = _intern(node_id)
            index = self._node_files.setdefault(node_id, {})
            if index.setdefault(name, chunk) is not chunk:
                # The file already has chunks on the node (a cluster too
                # small to avoid it): the entry keeps layout order.
                index[name] = [c for c in meta.all_chunks() if c.node_id == node_id]

    def _relayout(self, name, keep, stripes, blocks, size):
        meta = self.lookup(name)
        if name in self.utm:
            raise TranscodeStateError(f"{name} is transcoding")
        if not 0 <= keep <= len(meta.stripes):
            raise ValueError(f"{name} has no {keep} stripes to keep")
        under = meta.blocks_under(keep)
        relisted = {
            chunk.chunk_id for chunks in _chunk_lists(stripes, blocks) for chunk in chunks
        }
        dropped = [
            chunk
            for chunks in _chunk_lists(meta.stripes[keep:], meta.replica_blocks[under:])
            for chunk in chunks
            if chunk.chunk_id not in relisted
        ]
        self._unindex(name, meta)
        # The switch: the lists the file owns change, nothing they hold.
        meta.stripes[keep:] = stripes
        meta.replica_blocks[under:] = blocks
        meta.size = size
        self._index(meta)
        return dropped

    def _drop_replicas(self, name, scheme):
        meta = self.lookup(name)
        copies = [copy for block in meta.replica_blocks for copy in block.copies]
        for copy in copies:
            self._unindex_chunk(name, copy)
        meta.replica_blocks = []
        meta.scheme = scheme
        meta.version += 1
        return copies

    # -- the per-node chunk index: written here and in ``load`` only ----------
    def _index(self, meta: FileMeta) -> None:
        """List every chunk of ``meta`` under its name."""
        name = meta.name
        node_files = self._node_files
        for chunks in _chunk_lists(meta.stripes, meta.replica_blocks):
            for chunk in chunks:
                index = node_files.get(chunk.node_id)
                if index is None:
                    node_files[_intern(chunk.node_id)] = {name: chunk}
                    continue
                have = index.setdefault(name, chunk)
                if have is not chunk:
                    if type(have) is list:
                        have.append(chunk)
                    else:
                        index[name] = [have, chunk]

    def _unindex(self, name: str, meta: FileMeta) -> None:
        """Drop every entry of ``meta``, listed under ``name``."""
        node_files = self._node_files
        for chunks in _chunk_lists(meta.stripes, meta.replica_blocks):
            for chunk in chunks:
                node_files[chunk.node_id].pop(name, None)

    def _unindex_chunk(self, name: str, chunk: ChunkMeta) -> None:
        """Drop one chunk of ``name``, keeping the file's others."""
        index = self._node_files[chunk.node_id]
        entry = index[name]
        if entry is chunk:
            del index[name]
        else:
            rest = [c for c in entry if c is not chunk]
            index[name] = rest[0] if len(rest) == 1 else rest

    def _mint(self, _prefix, count):
        """Returns the first sequence number of the minted run."""
        start = self._chunk_seq + 1
        self._chunk_seq += count
        return start

    def _enqueue(self, name, target_scheme, groups, parities, deadline):
        meta = self.lookup(name)
        if name in self.utm:
            raise TranscodeStateError(f"{name} is already transcoding")
        bits = sum(group.n_final_stripes for group in groups) * parities
        job = TranscodeJob(
            file_name=name, target_scheme=target_scheme, groups=groups,
            pending_bits=(1 << bits) - 1, total_bits=bits, deadline=deadline,
        )
        self.utm[name] = job
        self.atq.extend(groups)
        meta.state = FileState.TRANSCODING
        return job

    def _poll(self, name, max_items):
        out, rest, atq = [], [], self.atq
        while atq and len(out) < max_items:
            group = atq.popleft()
            if name is None or group.file_name == name:
                out.append(group)
            else:
                rest.append(group)
        atq.extendleft(reversed(rest))
        return out

    def _complete(self, name, group_index, final_idx, parity_j, parities):
        job = self.utm.get(name)
        if job is None:
            raise TranscodeStateError(f"{name} is not transcoding")
        if sum(g.n_final_stripes for g in job.groups) * parities != job.total_bits:
            raise TranscodeStateError(f"{name}: not {parities} parities per final stripe")
        offset = 0
        for group in job.groups:
            if group.group_index == group_index:
                if not (0 <= final_idx < group.n_final_stripes and 0 <= parity_j < parities):
                    raise TranscodeStateError(f"{name}: no parity ({final_idx}, {parity_j})")
                job.pending_bits &= ~(1 << (offset + final_idx * parities + parity_j))
                return
            offset += group.n_final_stripes * parities
        raise TranscodeStateError(f"unknown group {group_index}")

    def _new_stripe(self, name, group_index, final_idx, stripe):
        job = self.utm.get(name)
        if job is None:
            raise TranscodeStateError(f"{name} is not transcoding")
        job.new_stripes[(group_index, final_idx)] = stripe

    def _finalize(self, name):
        job = self.utm.get(name)
        if job is None or not job.is_complete():
            return None
        meta = self.lookup(name)
        old_parities = [p for stripe in meta.stripes for p in stripe.parities]
        ordered = [job.new_stripes[key] for key in sorted(job.new_stripes)]
        for i, stripe in enumerate(ordered):
            stripe.stripe_index = i
        self._unindex(name, meta)
        # THE atomic switch: one reference assignment.
        meta.stripes = ordered
        meta.scheme = job.target_scheme
        meta.replica_blocks = []
        meta.state = FileState.HEALTHY
        meta.version += 1
        del self.utm[name]
        # The data chunks are the ones just dropped, regrouped: the new
        # layout interleaves them with new parities on other nodes.
        self._index(meta)
        return old_parities

    def _abort(self, name):
        """Returns whether there was a job to forget."""
        had_job = self.utm.pop(name, None) is not None
        self.atq = deque(g for g in self.atq if g.file_name != name)
        meta = self.files.get(name)
        if meta is not None:
            meta.state = FileState.HEALTHY
        return had_job

    #: op type -> handler.  Closed and static: a subclass changes what
    #: happens around an op by overriding ``apply``, not a handler.
    _HANDLERS = {
        Register: _register,
        RegisterBatch: _register_batch,
        Unregister: _unregister,
        Rename: _rename,
        Note: _note,
        Place: _place,
        Relayout: _relayout,
        DropReplicas: _drop_replicas,
        Mint: _mint,
        Enqueue: _enqueue,
        Poll: _poll,
        Complete: _complete,
        NewStripe: _new_stripe,
        Finalize: _finalize,
        Abort: _abort,
    }

    def lookup(self, name: str) -> FileMeta:
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundError_(name) from None

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

    def load(self, snapshot: dict) -> None:
        """Replace all state with a :meth:`snapshot`'s and rebuild the
        derived caches.  A state load is the one change that is not an
        op: it is where a restart begins (:meth:`restore`, and the
        journal's SNAPSHOT record)."""
        with_transcode = "utm" in snapshot
        self.files = dict(snapshot["files"])
        self._chunk_seq = snapshot["chunk_seq"]
        self.atq = deque(snapshot["atq"] if with_transcode else ())
        self.utm = dict(snapshot["utm"] if with_transcode else ())
        self._node_files, self._file_order, self._file_seq = {}, {}, 0
        for meta in self.files.values():
            if not with_transcode:
                # In-flight transcodes died with the old process; their
                # files revert to HEALTHY under the old (still valid)
                # metadata.  With transcode state captured, file states
                # were consistent at snapshot time and stay as they are.
                meta.state = FileState.HEALTHY
            self._file_seq += 1
            self._file_order[meta.name] = self._file_seq
            self._index(meta)

    @classmethod
    def restore(cls, snapshot: dict) -> "Namenode":
        """Bring up a fresh Namenode from a snapshot (post-crash)."""
        node = cls()
        node.load(snapshot)
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

        A pure read of the node's index entries — O(chunks on the node),
        no file is walked — in the order a full namespace scan would
        produce: files in registration order, a file's chunks in layout
        order.
        """
        index = self._node_files.get(node_id)
        if not index:
            return []
        files = self.files
        out: List[Tuple[FileMeta, ChunkMeta]] = []
        # A node's entries sit in registration order until a move or a
        # note appends an older file; sorting an ordered run is one pass.
        for name in sorted(index, key=self._file_order.__getitem__):
            meta = files[name]
            entry = index[name]
            if type(entry) is list:
                out.extend([(meta, chunk) for chunk in entry])
            else:
                out.append((meta, entry))
        return out

    def listed_chunks(self, node_id: Optional[str] = None) -> Dict[str, ChunkMeta]:
        """id -> chunk for every chunk the namenode answers for, on
        ``node_id`` or anywhere: those its registered files list, plus
        the staged stripes of any transcode in flight, which no file
        lists until the switch.  What a returning node keeps, and what
        :mod:`repro.dfs.audit` holds the datanodes to."""
        if node_id is None:
            pairs = [(m, c) for m in self.files.values() for c in m.all_chunks()]
        else:
            pairs = self.chunks_on_node(node_id)
        listed = {chunk.chunk_id: chunk for _meta, chunk in pairs}
        for job in self.utm.values():
            listed.update(
                (chunk.chunk_id, chunk) for chunk in job.staged_chunks()
                if node_id is None or chunk.node_id == node_id
            )
        return listed


def index_entries(namenode: Namenode) -> Iterator[Tuple[str, List[Tuple[str, _Entry]]]]:
    """Every node key of the per-node chunk index, an emptied one too,
    with its ``(file, entry)`` pairs, all in dict order — for
    :mod:`repro.dfs.audit`, which reads it against a full namespace scan
    and writes nothing."""
    for node_id, index in namenode._node_files.items():
        yield node_id, list(index.items())
