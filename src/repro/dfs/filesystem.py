"""MorphFS and BaselineDFS: the two DFS personalities (§3, §6).

Both share Namenode/Datanode/placement machinery; they differ only in
policy:

=================  ==========================  ============================
                   BaselineDFS                 MorphFS
=================  ==========================  ============================
ingest             3-way replication or RS     hybrid Hy(c, EC) (§4.2)
codes              RS / LRC                    CC / LRCC
placement          per-stripe random           k*-window + parity co-location
transcode          client RRW                  native (UTM jobs, CC merges)
=================  ==========================  ============================
"""

from __future__ import annotations

import math
import sys
import zlib
from dataclasses import replace
from itertools import groupby
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.metrics import IOMetrics
from repro.cluster.partition import CLIENT, NAMENODE, NetworkPartition
from repro.obs import NOOP_OBS, Observability
from repro.cluster.placement import (
    DefaultPlacement,
    PlacementPolicy,
    TranscodeAwarePlacement,
    home_for,
)
from repro.cluster.topology import Cluster
from repro.codes.base import DecodeError, LocalGroupCode
from repro.codes.convertible import plan_conversion
from repro.core.planner import TranscodeKind, TranscodePlanner
from repro.core.schemes import (
    CodeKind,
    ECScheme,
    HybridScheme,
    RedundancyScheme,
    Replication,
)
from repro.dfs.blocks import (
    ChunkKind,
    ChunkMeta,
    ECStripeMeta,
    FileMeta,
    HybridBlockMeta,
    ReplicaBlockMeta,
)
from repro.dfs.appends import AppendSupport
from repro.dfs.client import ClientReader, ReadError
from repro.dfs.namenode import ConversionGroup, Namenode
from repro.dfs.recovery import RecoveryError
from repro.dfs.transcoder import NativeTranscoder, RRWTranscoder
from repro.sched.scheduler import MaintenanceScheduler

MB = 1024 * 1024
#: GF(256) coding rate of one core per unit of generator width: a w-wide
#: encode of one s-byte parity costs w * s / (ENCODE_MB_S * MB) seconds,
#: so compute scales with matrix width (Fig 15a)
ENCODE_MB_S = 2800.0
#: chunks per replica block of a replicated file (``Replication`` ingest)
REPLICATION_BLOCK_CHUNKS = 8


def _listed(chunk: ChunkMeta) -> int:
    """The default source preference: none — copies as listed, survivors
    in slot order."""
    return 0


class _BaseDFS:
    """Shared substrate: datanodes, namespace, reads, deletes, codecs."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        chunk_size: int = 64 * 1024,
        seed: int = 0,
        obs: Optional[Observability] = None,
        namenode: Optional[Namenode] = None,
    ):
        from repro.dfs.datanode import Datanode

        self.cluster = cluster or Cluster()
        self.chunk_size = chunk_size
        self.metrics = IOMetrics()
        self.datanodes: Dict[str, Datanode] = {
            node.node_id: Datanode(node, self.metrics) for node in self.cluster.nodes
        }
        from repro.dfs.integrity import ChecksumRegistry

        #: pluggable control plane: a plain in-memory Namenode by
        #: default; callers can inject a JournaledNamenode (durable) or
        #: a ShardedNamenode (hash-partitioned namespace) — the facade
        #: speaks the same API.
        self.namenode = namenode if namenode is not None else Namenode()
        self.checksums = ChecksumRegistry()
        self.planner = TranscodePlanner()
        #: hedged degraded reads: when a chunk's home node carries a disk
        #: multiplier at or above this threshold (a known straggler), the
        #: reader skips it and serves the chunk from a replica or a
        #: degraded decode instead of waiting out the slow disk.
        #: ``None`` disables hedging.
        self.hedge_slow_disk_multiplier: Optional[float] = None
        #: node class (tier) preferred for new placements — e.g. "ssd"
        #: on a heterogeneous cluster; None = no preference. Flows into
        #: every placement policy this filesystem constructs.
        self.placement_prefer_class: Optional[str] = None
        self.reader = ClientReader(self)
        #: unified background-maintenance control plane: repairs,
        #: transcode work and scrubs all flow through here
        self.scheduler = MaintenanceScheduler(self)
        self.clock = 0.0
        self.seed = seed
        #: observability sink — the default no-op sink never records, so
        #: instrumented hot paths cost nothing when tracing is off
        self.obs = obs or NOOP_OBS
        if self.obs.enabled:
            self.obs.attach_filesystem(self)

    # -- codecs ---------------------------------------------------------------
    def codec_for(self, ec: ECScheme):
        """The process's one codec object per scheme
        (:meth:`ECScheme.make_code`): encode plans and decode-pattern
        LRUs are per object, so every path and every filesystem shares
        them."""
        return ec.make_code()

    def codec_for_stripe(self, meta: FileMeta, stripe: ECStripeMeta):
        """Codec matching a stripe's actual (possibly tail-short) width."""
        ec = meta.scheme.ec_part
        if ec is None:
            raise ValueError(f"{meta.name} has no EC component")
        return self.codec_for(ec.at_width(stripe.k))

    def rank_rule(self, meta: FileMeta, group: HybridBlockMeta) -> Callable[[Set[int]], bool]:
        """Do the rows of a set of slots span the data of ``meta``'s
        ``group``? Its stripe's code answers (``ErasureCode.decodable``);
        with no parity, counting does."""
        if group.stripe is None or not group.stripe.parities:
            return lambda slots: len(slots) >= group.k
        return self.codec_for_stripe(meta, group.stripe).decodable

    # -- CPU accounting -----------------------------------------------------------
    def charge_encode(self, by: str, width: int, out_parities: int, nbytes: float) -> None:
        """Bill ``by`` — a node, or the client — for combining ``width``
        chunks of ``nbytes`` into each of ``out_parities`` outputs: the
        one CPU-charge formula, encodes and decodes alike."""
        self.metrics.record_cpu(by, width * out_parities * nbytes / (ENCODE_MB_S * MB))

    # -- availability ----------------------------------------------------------
    @property
    def partition(self) -> NetworkPartition:
        """The cluster's reachability mask (inactive until split)."""
        return self.cluster.partition

    def node_reachable(self, node_id: str, by: str = CLIENT) -> bool:
        """Is the node up and on the same side of the partition mask as
        ``by`` (a node id, ``client`` or ``namenode``)? Every path that
        asks whether a server can be used asks here."""
        datanode = self.datanodes.get(node_id)
        return (
            datanode is not None
            and datanode.node.is_alive
            and self.cluster.partition.reachable(node_id, by)
        )

    def commandable(self, node_id: str) -> bool:
        """Can the namenode command the node: may a chunk be put there?"""
        return self.node_reachable(node_id, NAMENODE)

    def chunk_readable(self, chunk: ChunkMeta, by: str = CLIENT) -> bool:
        """Can ``by`` read the chunk where the namenode lists it: its
        node reachable and holding it?"""
        if not self.node_reachable(chunk.node_id, by):
            return False
        return self.datanodes[chunk.node_id].has_chunk(chunk.chunk_id)

    # -- common operations -------------------------------------------------------
    def read_file(
        self,
        name: str,
        offset: int = 0,
        length: Optional[int] = None,
        prefer_striped: bool = False,
    ) -> np.ndarray:
        meta = self.namenode.lookup(name)
        with self.obs.span("read", file=name):
            return self.reader.read(meta, offset, length, prefer_striped=prefer_striped)

    def delete_file(self, name: str) -> None:
        """The file's chunks leave, and so do the parities of the final
        stripes its open transcode staged."""
        job = self.namenode.utm.get(name)
        staged = [] if job is None else [
            parity for stripe in job.new_stripes.values() for parity in stripe.parities
        ]
        self.discard_chunks(self.namenode.unregister_file(name).all_chunks())
        self.discard_chunks(staged)

    def _placement_for(
        self, meta: FileMeta, first_chunk: int = 0, end_chunk: Optional[int] = None
    ) -> PlacementPolicy:
        """The policy an operation placing chunks of ``meta`` follows:
        per-stripe random, with no parity slot reserved."""
        return self._default_placement(meta.name)

    # -- the three doors: how a chunk enters, moves and leaves -----------------
    def _put(self, node_id: str, chunk_id: str, data: np.ndarray, src: Optional[str]) -> None:
        """Write a chunk to ``node_id``'s disk: sent by ``src``, or
        computed on the node itself (``None``: no network)."""
        datanode = self.datanodes[node_id]
        if src is None:
            datanode.store_local(chunk_id, data)
        else:
            datanode.receive_to_disk(chunk_id, data, src=src)

    def store_chunk(
        self,
        node_id: str,
        chunk_id: str,
        data: np.ndarray,
        kind: ChunkKind,
        src: Optional[str] = None,
    ) -> ChunkMeta:
        """A new chunk enters: ``data`` is handed over for good (the
        store keeps it read-only, uncopied) and its sum recorded.
        Returns the metadata for the caller to list."""
        self._put(node_id, chunk_id, data, src)
        self.checksums.record(chunk_id, data)
        return ChunkMeta(chunk_id, node_id, kind, data.nbytes)

    def discard_chunks(self, chunks: Iterable[ChunkMeta]) -> None:
        """Chunks no metadata lists any more leave: bytes and sums."""
        for chunk in chunks:
            self.datanodes[chunk.node_id].delete(chunk.chunk_id)
            self.checksums.forget(chunk.chunk_id)

    def drop_unlisted(self, node_id: str) -> int:
        """A node is back: what it holds that the namenode no longer lists
        there — a copy re-homed while it was away — leaves through
        :meth:`discard_chunks`, as HDFS invalidates the blocks a returning
        datanode reports and the namenode does not map to it
        (:meth:`~repro.dfs.namenode.Namenode.listed_chunks`). Returns how
        many chunks left."""
        listed = self.namenode.listed_chunks(node_id)
        # The datanode keeps bytes, not roles: the kind is a placeholder.
        stale = [
            ChunkMeta(chunk_id, node_id, ChunkKind.DATA, data.nbytes)
            for chunk_id, data in self.datanodes[node_id].held()
            if chunk_id not in listed
        ]
        self.discard_chunks(stale)
        return len(stale)

    def restart(self, namenode: Namenode) -> None:
        """The namenode process came back as ``namenode`` — recovered
        from its journal, a crash being a prefix of it. The filesystem
        serves from it, with a work queue of its own (queued tasks hold
        the old process's files; the heartbeat derives repairs and
        pending transcode groups anew), and every datanode it can command
        sends a block report: what it holds that the new namenode does
        not list there — a chunk stored for a record the crash lost —
        leaves through :meth:`drop_unlisted`. A node that is down
        reports when the heartbeat sees it return."""
        self.namenode = namenode
        self.scheduler = MaintenanceScheduler(self, self.scheduler.policy)
        for node_id in self.datanodes:
            if self.commandable(node_id):
                self.drop_unlisted(node_id)

    def rehome_chunks(
        self,
        meta: FileMeta,
        moves: Sequence[Tuple[ChunkMeta, str, np.ndarray]],
        src: str,
        label: str,
    ) -> None:
        """Listed chunks move: each ``(chunk, node, bytes)`` is stored on
        ``node`` — sent by ``src``, written locally where ``src`` is that
        node — under a fresh ``label`` id, and the namenode re-homes the
        metadata: one MINT, one PLACE, however many chunks. The bytes
        are handed over like ``store_chunk``'s (a moved chunk is the
        source datanode's own array); the sum travels with the id, it is
        never recomputed over the new copy."""
        new_ids = self.namenode.next_chunk_ids(f"{meta.name}/{label}", len(moves))
        placed = []
        for (chunk, node_id, data), new_id in zip(moves, new_ids):
            self._put(node_id, new_id, data, None if node_id == src else src)
            self.checksums.rekey(chunk.chunk_id, new_id)
            placed.append((chunk.chunk_id, new_id, node_id))
        self.namenode.place_chunks(meta.name, placed)

    # -- how a slot is read: home copy, replica range, the stripe's survivors --
    def fetch_chunk(
        self, chunk: ChunkMeta, by: str, start: int = 0, length: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """Bytes ``[start, start + length)`` of a listed copy (default: to
        its end), delivered to ``by`` and metered; ``None``
        when ``by`` cannot read it — nothing crosses a partition cut."""
        if not self.chunk_readable(chunk, by=by):
            return None
        datanode = self.datanodes[chunk.node_id]
        if start or length is not None:
            span = chunk.size - start if length is None else length
            data = datanode.read_range(chunk.chunk_id, start, span)
        else:
            data = datanode.read(chunk.chunk_id)
        self.metrics.record_transfer(chunk.node_id, by, float(data.nbytes))
        return data

    def fetch_block_range(
        self, block: ReplicaBlockMeta, start: int, length: int, by: str, prefer=_listed
    ) -> Optional[Tuple[ChunkMeta, np.ndarray]]:
        """``(copy read, bytes [start, start + length) of the block,
        zero-padded)`` from the first copy ``by`` can read, in ``prefer``
        order (a sort key over copies; by default, as listed)."""
        for copy in sorted(block.copies, key=prefer):
            data = self.fetch_chunk(copy, by, start, length)
            if data is not None:
                if len(data) < length:
                    data = np.concatenate([data, np.zeros(length - len(data), np.uint8)])
                return copy, data
        return None

    def fetch_replica_range(
        self, meta: FileMeta, stripe: ECStripeMeta, slot: int, by: str, prefer=_listed
    ) -> Optional[Tuple[ChunkMeta, np.ndarray]]:
        """A data slot from its range of the replica block repeating it
        (§4.3), if one does: see :meth:`fetch_block_range`."""
        index = meta.first_data_index(stripe) + slot
        block = meta.block_covering(index) if slot < stripe.k else None
        if block is None:
            return None
        start = (index - block.first_chunk) * meta.chunk_size
        return self.fetch_block_range(block, start, meta.chunk_size, by, prefer)

    def fetch_slot(
        self, meta: FileMeta, stripe: ECStripeMeta, slot: int, by: str, prefer=_listed
    ) -> Optional[Tuple[ChunkMeta, np.ndarray]]:
        """``(copy read, bytes)`` of one stripe slot where it survives:
        its home copy, else its replica range."""
        chunk = stripe.data[slot] if slot < stripe.k else stripe.parities[slot - stripe.k]
        data = self.fetch_chunk(chunk, by)
        if data is not None:
            return chunk, data
        return self.fetch_replica_range(meta, stripe, slot, by, prefer)

    def rebuild_slots(
        self, meta: FileMeta, stripe: ECStripeMeta, erased: Sequence[int], by: str,
        prefer=_listed, held: Optional[Dict[int, np.ndarray]] = None,
    ) -> Tuple[List[Tuple[ChunkMeta, str, np.ndarray]], Dict[int, np.ndarray]]:
        """Bytes of the ``erased`` slots of one stripe — slots whose home
        copy is gone — rebuilt at ``by`` from whichever source survives.

        A hybrid file's data chunk is one sequential read of its replica
        range (§4.4); whatever is left comes out of one ``decode`` over
        those and survivors fetched lazily with :meth:`fetch_slot`: the
        k/l group peers when an LRC-family code lost one in-group chunk,
        then k (any MDS pattern), then every survivor (an LRC-family
        pattern may have to reach past the first k) — in slot order,
        ``prefer`` (a sort key over chunks) ranking them first. A slot
        in ``held`` (slot -> bytes ``by`` already has and has verified)
        is taken in its turn like any survivor, but never fetched. The
        decode's CPU is charged to ``by``.

        Returns ``(read, rebuilt)``: ``(copy read, id its sum is recorded
        under, its bytes)`` per source fetched — unverified; the caller
        that finds rebuilt bytes failing their sums hands these to
        ``quarantine_rotten`` — and slot -> bytes for each erased slot.
        Held slots are not in ``read``: their bytes already passed their
        sums. Raises :class:`ReadError` when what ``by`` can reach cannot
        decode the pattern.
        """
        chunks = stripe.all_chunks()
        read: List[Tuple[ChunkMeta, str, np.ndarray]] = []
        available: Dict[int, np.ndarray] = {}

        def take(slot: int, found: Optional[Tuple[ChunkMeta, np.ndarray]]) -> None:
            if found is not None:
                read.append((found[0], chunks[slot].chunk_id, found[1]))
                available[slot] = found[1]

        for slot in erased:
            take(slot, self.fetch_replica_range(meta, stripe, slot, by, prefer))
        todo = [slot for slot in erased if slot not in available]
        if not todo:
            return read, available
        code = self.codec_for_stripe(meta, stripe)
        order = sorted(
            (s for s in range(stripe.n) if s not in erased), key=lambda s: prefer(chunks[s])
        )
        needs = [stripe.k, stripe.n]
        if len(todo) == 1 and isinstance(code, LocalGroupCode) and todo[0] < stripe.k + code.l:
            peers = [m for m in code.group_members(code.group_of(todo[0])) if m in order]
            order = peers + [s for s in order if s not in peers]
            needs.insert(0, len(available) + len(peers))
        survivors = iter(order)
        held = held or {}
        error: Optional[DecodeError] = None
        for need in needs:
            while len(available) < need and (slot := next(survivors, None)) is not None:
                if slot in held:
                    available[slot] = held[slot]
                else:
                    take(slot, self.fetch_slot(meta, stripe, slot, by, prefer))
            try:
                rebuilt = code.decode(available, todo)
            except DecodeError as exc:
                error = exc
                continue
            self.charge_encode(by, len(available), len(todo), meta.chunk_size)
            rebuilt.update((slot, available[slot]) for slot in erased if slot in available)
            return read, rebuilt
        raise ReadError(
            f"{meta.name}: stripe {stripe.stripe_index} cannot be rebuilt from "
            f"what {by} can reach"
        ) from error

    def capacity_check(self) -> Tuple[float, Optional[str]]:
        """``(bytes at rest across all datanode disks, how the metrics
        ledger disagrees with them — None when it does not)``. Every disk
        write and delete is metered, so ``IOMetrics.capacity_used()``
        (written − deleted) must agree with the physical chunk maps."""
        physical = sum(dn.bytes_at_rest() for dn in self.datanodes.values())
        ledger = self.metrics.capacity_used()
        if math.isclose(physical, ledger, rel_tol=1e-9, abs_tol=1.0):
            return physical, None
        return physical, (
            f"capacity ledger drift: datanode disks hold {physical} bytes "
            f"but metrics say {ledger} (written - deleted)"
        )

    def capacity_used(self) -> float:
        """Bytes at rest across all datanode disks, asserting that the
        metrics ledger agrees (:meth:`capacity_check`)."""
        physical, drift = self.capacity_check()
        assert drift is None, drift
        return physical

    def memory_used(self) -> float:
        return sum(dn.memory_bytes() for dn in self.datanodes.values())

    # -- write helpers ----------------------------------------------------------
    @staticmethod
    def _snapshot(data) -> np.ndarray:
        """The door's one copy: a private, read-only snapshot of the
        caller's buffer. Everything stored from it is a view of it (or a
        codec's own output) and is never copied again; the caller's
        buffer is the caller's to reuse the moment the write returns."""
        data = np.array(data, dtype=np.uint8).reshape(-1)
        data.setflags(write=False)
        return data

    def _data_chunks(self, data: np.ndarray, k: int) -> List[np.ndarray]:
        """Split into chunk_size pieces, zero-padding the last stripe."""
        chunks = []
        for start in range(0, len(data), self.chunk_size):
            piece = data[start : start + self.chunk_size]
            if len(piece) < self.chunk_size:
                padded = np.zeros(self.chunk_size, dtype=np.uint8)
                padded[: len(piece)] = piece
                piece = padded
            chunks.append(np.asarray(piece, dtype=np.uint8))
        while len(chunks) % k:
            chunks.append(np.zeros(self.chunk_size, dtype=np.uint8))
        return chunks

    def _write_replica_pipeline(
        self,
        meta: FileMeta,
        block_index: int,
        first_chunk: int,
        n_chunks: int,
        block_bytes: np.ndarray,
        nodes: Sequence[str],
        persist_count: int,
        to_memory: bool,
    ) -> Tuple[ReplicaBlockMeta, List[Tuple[str, str]]]:
        """Mirror a block down a chain of nodes (HDFS-style pipeline).

        ``meta`` is a file being built — not yet registered, or an
        append's staging area: the namenode learns the placements from
        the ``register_file`` / ``relayout_file`` that publishes them.

        Returns the block and the ``(node, chunk id)`` of every copy
        past ``persist_count``: buffered, unlisted, the caller's to drop.
        The persisted copies' sum is the caller's to record — computed
        over ``block_bytes`` or derived from the chunks it repeats.
        """
        copies: List[ChunkMeta] = []
        temporary: List[Tuple[str, str]] = []
        prev = CLIENT
        chunk_ids = self.namenode.next_chunk_ids(
            f"{meta.name}/r{block_index}c", len(nodes)
        )
        block_meta = ReplicaBlockMeta(
            block_index=block_index,
            first_chunk=first_chunk,
            n_chunks=n_chunks,
            copies=copies,
        )
        meta.replica_blocks.append(block_meta)
        for i, node_id in enumerate(nodes):
            chunk_id = chunk_ids[i]
            datanode = self.datanodes[node_id]
            if to_memory:
                datanode.receive_to_memory(chunk_id, block_bytes, src=prev)
            else:
                datanode.receive_to_disk(chunk_id, block_bytes, src=prev)
            if i < persist_count:
                copies.append(
                    ChunkMeta(chunk_id, node_id, ChunkKind.REPLICA, block_bytes.nbytes)
                )
            else:
                temporary.append((node_id, chunk_id))
            prev = node_id
        if to_memory:
            for copy in copies:
                self.datanodes[copy.node_id].persist(copy.chunk_id)
        return block_meta, temporary

    def _default_placement(self, name: str) -> DefaultPlacement:
        placement = DefaultPlacement(self.cluster, seed=self.seed + zlib.crc32(name.encode()) % 997)
        placement.prefer_class = self.placement_prefer_class
        return placement

    def _write_replicated(self, meta: FileMeta, data: np.ndarray, copies: int) -> None:
        placement = self._default_placement(meta.name)
        span = REPLICATION_BLOCK_CHUNKS * self.chunk_size
        block_index = 0
        for start in range(0, max(len(data), 1), span):
            block = np.asarray(data[start : start + span], dtype=np.uint8)
            nodes = placement.place_replicas(meta.name, block_index, copies, exclude=())
            stored, _ = self._write_replica_pipeline(
                meta,
                block_index,
                first_chunk=start // self.chunk_size,
                n_chunks=(len(block) + self.chunk_size - 1) // self.chunk_size,
                block_bytes=block,
                nodes=nodes,
                persist_count=copies,
                to_memory=False,
            )
            # One pass over the block, however many copies hold it.
            self.checksums.record(stored.copies[0].chunk_id, block)
            for copy in stored.copies[1:]:
                self.checksums.record_concat(copy.chunk_id, stored.copies[:1])
            block_index += 1

    def _write_ec(
        self,
        meta: FileMeta,
        data: np.ndarray,
        ec: ECScheme,
        place_stripe: Callable[[int], Dict[str, List[str]]],
    ) -> None:
        """Client-driven EC write: encode locally, fan chunks out to the
        nodes ``place_stripe(stripe index)`` answers with."""
        code = self.codec_for(ec)
        chunks = self._data_chunks(data, ec.k)
        stripe_lists = [chunks[s : s + ec.k] for s in range(0, len(chunks), ec.k)]
        # One batched kernel invocation computes every stripe's parities
        # (bit-identical to per-stripe encode; placement and metering
        # stay per stripe).
        parities_batch = code.encode_batch(stripe_lists)
        for stripe_index, stripe_chunks in enumerate(stripe_lists):
            self.charge_encode(CLIENT, ec.k, ec.n - ec.k, self.chunk_size)
            spots = place_stripe(stripe_index)
            self._store_stripe(
                meta, stripe_index, stripe_chunks, parities_batch[stripe_index],
                spots["data"], spots["parity"], ec,
            )

    def _store_stripe(
        self,
        meta: FileMeta,
        stripe_index: int,
        data_chunks: Sequence[np.ndarray],
        parities: Sequence[np.ndarray],
        data_nodes: Sequence[str],
        parity_nodes: Sequence[str],
        ec: ECScheme,
        src: str = CLIENT,
        parity_src: Optional[str] = None,
    ) -> ECStripeMeta:
        """Store one stripe's chunks and list them in ``meta`` — a file
        being built, see :meth:`_write_replica_pipeline`."""
        prefix = f"{meta.name}/s{stripe_index}"
        data_ids = self.namenode.next_chunk_ids(f"{prefix}d", len(data_chunks))
        data = [
            self.store_chunk(data_nodes[t], data_ids[t], chunk, ChunkKind.DATA, src)
            for t, chunk in enumerate(data_chunks)
        ]
        parity_ids = self.namenode.next_chunk_ids(f"{prefix}p", len(parities))
        kinds = self._parity_kinds(ec)
        stored = [
            self.store_chunk(parity_nodes[j], parity_ids[j], parity, kinds[j], parity_src or src)
            for j, parity in enumerate(parities)
        ]
        stripe_meta = ECStripeMeta(
            stripe_index, len(data), len(data) + len(stored), data, stored
        )
        meta.stripes.append(stripe_meta)
        return stripe_meta

    @staticmethod
    def _parity_kinds(ec: ECScheme) -> List[ChunkKind]:
        if ec.kind in (CodeKind.LRC, CodeKind.LRCC):
            return [ChunkKind.LOCAL_PARITY] * ec.local_groups + [
                ChunkKind.GLOBAL_PARITY
            ] * ec.r_global
        return [ChunkKind.PARITY] * (ec.n - ec.k)

    def write_file(self, name: str, data, scheme: RedundancyScheme) -> FileMeta:
        raise NotImplementedError

    def transcode(self, name: str, target: RedundancyScheme) -> FileMeta:
        raise NotImplementedError


class BaselineDFS(_BaseDFS):
    """HDFS-like baseline: 3-r / RS ingest, client RRW transcode."""

    def write_file(self, name: str, data, scheme: RedundancyScheme) -> FileMeta:
        data = self._snapshot(data)
        meta = FileMeta(
            name=name, size=len(data), chunk_size=self.chunk_size, scheme=scheme
        )
        with self.obs.span("ingest", file=name, nbytes=len(data)):
            if isinstance(scheme, Replication):
                self._write_replicated(meta, data, scheme.copies)
            elif isinstance(scheme, ECScheme):
                placement = self._default_placement(name)
                self._write_ec(
                    meta, data, scheme,
                    lambda index: placement.place_stripe(
                        name, index, scheme.k, scheme.n - scheme.k
                    ),
                )
            else:
                raise ValueError(f"BaselineDFS does not support {scheme}")
        self.namenode.register_file(meta)
        return meta

    def transcode(self, name: str, target: RedundancyScheme) -> FileMeta:
        """RRW: read the file, rewrite it under the target scheme."""
        with self.obs.span("transcode_request", file=name):
            return RRWTranscoder(self).transcode(name, target)


class MorphFS(AppendSupport, _BaseDFS):
    """Morph: hybrid ingest, k*-aware placement, native transcode."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        chunk_size: int = 64 * 1024,
        seed: int = 0,
        future_widths: Optional[Sequence[int]] = None,
        max_parities: int = 4,
        transcode_aware: bool = True,
        parity_mode: str = "async",
        spanning_protocol: bool = False,
        obs: Optional[Observability] = None,
        namenode: Optional[Namenode] = None,
    ):
        super().__init__(cluster, chunk_size, seed, obs=obs, namenode=namenode)
        self.future_widths = list(future_widths or [])
        self.max_parities = max_parities
        #: ablation switch: False disables k*-window planning and parity
        #: co-location (placement falls back to per-stripe random).
        self.transcode_aware = transcode_aware
        #: hybrid parity computation option (§6.1): "async" (Datanode
        #: striper, the default), "sync" (client computes on its critical
        #: path), or "none" (durability from c+1 persisted replicas only).
        if parity_mode not in ("async", "sync", "none"):
            raise ValueError(f"unknown parity_mode {parity_mode!r}")
        self.parity_mode = parity_mode
        #: spanning-write protocol (§4.2 / Fig 6): mirror to THREE replica
        #: holders before ack, then stripe asynchronously — one extra
        #: network copy versus the small-write variant.
        self.spanning_protocol = spanning_protocol
        self.transcoder = NativeTranscoder(self)

    # -- placement ------------------------------------------------------------
    def _placement_for(
        self, meta: FileMeta, first_chunk: int = 0, end_chunk: Optional[int] = None
    ) -> PlacementPolicy:
        """The placement policy of the file ``meta`` (registered, or being
        written) for one placing operation — a write, an append, a seal
        pass, a merge group, a repair — held by its caller only. The
        windows holding data chunks ``first_chunk`` up to ``end_chunk``
        (default: the end) are where ``meta`` lists chunks (``adopt``);
        the rest is drawn from the name's seed moved on by the stripes
        listed, so an append does not redraw its write's first window."""
        ec = meta.scheme.ec_part
        seed = self.seed + zlib.crc32(meta.name.encode()) % 997 + len(meta.stripes)
        if not self.transcode_aware:
            policy: PlacementPolicy = DefaultPlacement(self.cluster, seed=seed)
        else:
            k_star, r_star = self._window(ec)
            policy = TranscodeAwarePlacement(self.cluster, k_star, r_star, seed=seed)
            # Only those windows: adopting all of a 1 000-stripe file
            # makes a small append to it 2.5x as slow.
            lo = first_chunk - first_chunk % k_star
            hi = sys.maxsize if end_chunk is None else -(-end_chunk // k_star) * k_star
            policy.adopt(meta.name, (
                (first, [c.node_id for c in s.data], [c.node_id for c in s.parities])
                for first, s in meta.stripe_spans()
                if first + s.k > lo and first < hi
            ))
        policy.prefer_class = self.placement_prefer_class
        return policy

    def _window(self, ec: ECScheme) -> Tuple[int, int]:
        """``(k*, r*)`` of a file of scheme ``ec``: the LCM of its width and
        every future width, and the parity slots its windows reserve."""
        k_star = math.lcm(ec.k, *self.future_widths)
        r_star = max(self.max_parities, ec.n - ec.k)
        alive = len(self.cluster.alive_nodes())
        if k_star + r_star > alive:
            # Fall back to the largest feasible window that still tiles
            # the file's stripes (documented trade-off: merges beyond the
            # window may need data moves), else the file's own width: a
            # repair or seal there draws nothing new.
            tiles = [math.lcm(ec.k, w) for w in self.future_widths]
            k_star = max((w for w in tiles if w + r_star <= alive), default=ec.k)
        return k_star, r_star

    # -- writes -----------------------------------------------------------------
    def write_file(self, name: str, data, scheme: RedundancyScheme) -> FileMeta:
        data = self._snapshot(data)
        meta = FileMeta(
            name=name, size=len(data), chunk_size=self.chunk_size, scheme=scheme
        )
        with self.obs.span("ingest", file=name, nbytes=len(data)):
            if isinstance(scheme, HybridScheme):
                self._write_hybrid(meta, data, scheme, self._placement_for(meta))
            elif isinstance(scheme, ECScheme):
                placement = self._placement_for(meta)
                self._write_ec(
                    meta, data, scheme,
                    lambda index: placement.place_stripe(
                        name, index, scheme.k, scheme.n - scheme.k
                    ),
                )
            elif isinstance(scheme, Replication):
                self._write_replicated(meta, data, scheme.copies)
            else:
                raise ValueError(f"unsupported scheme {scheme}")
        self.namenode.register_file(meta)
        return meta

    def _write_hybrid(
        self,
        meta: FileMeta,
        data: np.ndarray,
        hy: HybridScheme,
        placement: TranscodeAwarePlacement,
        first_stripe: int = 0,
        open_tail: bool = False,
    ) -> None:
        """Hybrid ingest (§4.2) of ``data`` as stripes ``first_stripe``
        onward of ``meta`` — a file being built, or an append's staging
        area — where ``placement`` (the file's policy) says.

        Small-write variant (default): the block is mirrored to two
        replica nodes in-memory; the second mirror acts as striper,
        distributing data chunks (the third durable copy) and the
        parities. Spanning variant (``spanning_protocol=True``): three
        full replicas are mirrored before the ack and the last one
        stripes asynchronously (Fig 6), costing one extra network copy.

        Parity handling follows ``parity_mode``: "async" encodes on the
        striper; "sync" encodes on the client (client CPU + client
        network for the parity sends); "none" skips parities and persists
        ``copies + 1`` replicas instead (§6.1).

        A short last stripe is zero-padded to full width and encoded, or
        — ``open_tail``, an append — stays *open* at its own width: data
        chunks plus ``copies + 1`` persisted replicas, no parities until
        it completes or the file is closed.
        """
        ec = hy.ec
        chunks = self._data_chunks(data, 1 if open_tail else ec.k)
        stripe_lists = [chunks[s : s + ec.k] for s in range(0, len(chunks), ec.k)]
        # Parities for every full stripe in one batched kernel invocation;
        # the CPU charge (striper vs client, per parity_mode) stays per
        # stripe below, so accounting totals are unchanged.
        n_encoded = 0 if self.parity_mode == "none" else len(chunks) // ec.k
        parities_batch = self.codec_for(ec).encode_batch(stripe_lists[:n_encoded])
        for offset, stripe_chunks in enumerate(stripe_lists):
            stripe_index = first_stripe + offset
            s = offset * ec.k
            parities = parities_batch[offset] if offset < n_encoded else []
            # The replica block is the stripe's span of the file: a view
            # of ``data`` unless the stripe ends in padding.
            span_end = (s + len(stripe_chunks)) * self.chunk_size
            block_bytes = (
                data[s * self.chunk_size : span_end]
                if span_end <= len(data)
                else np.concatenate(stripe_chunks)
            )
            spots = placement.place_stripe(meta.name, stripe_index, ec.k, ec.n - ec.k)
            ec_nodes = spots["data"] + spots["parity"]
            # Replicas are a parity-less stripe's only redundancy: it
            # persists one more.
            persist_replicas = hy.copies + (0 if parities else 1)
            n_replica_targets = 3 if self.spanning_protocol else max(persist_replicas, 2)
            n_replica_targets = max(n_replica_targets, persist_replicas)
            replica_nodes = placement.place_replicas(
                meta.name, stripe_index, n_replica_targets, exclude=ec_nodes
            )
            block, temporary = self._write_replica_pipeline(
                meta,
                stripe_index,
                first_chunk=first_stripe * ec.k + s,
                n_chunks=len(stripe_chunks),
                block_bytes=block_bytes,
                nodes=replica_nodes,
                persist_count=persist_replicas,
                to_memory=True,
            )
            # Striping (§4.2 / Fig 6): the last replica holder distributes
            # the data chunks (they are the extra durable copy).
            striper = replica_nodes[-1]
            encoder = CLIENT if self.parity_mode == "sync" else striper
            if parities:
                self.charge_encode(encoder, ec.k, ec.n - ec.k, self.chunk_size)
            stripe_meta = self._store_stripe(
                meta,
                stripe_index,
                stripe_chunks,
                parities,
                spots["data"],
                spots["parity"],
                ec,
                src=striper,
                parity_src=encoder,
            )
            self._settle_hybrid_block(block, temporary, stripe_meta)

    def _settle_hybrid_block(
        self,
        block: ReplicaBlockMeta,
        temporary: Sequence[Tuple[str, str]],
        stripe: ECStripeMeta,
    ) -> None:
        """The stripe of a hybrid block is stored: the block's persisted
        copies take their sum from its data chunks' — a replica block is,
        byte for byte, those chunks end to end, padded tail included — and
        its temporary copies leave memory for free."""
        for copy in block.copies:
            self.checksums.record_concat(copy.chunk_id, stripe.data)
        for node_id, chunk_id in temporary:
            self.datanodes[node_id].drop_from_memory(chunk_id)

    # -- native transcode ----------------------------------------------------------
    def transcode(self, name: str, target: RedundancyScheme) -> FileMeta:
        """Native transcode (§6.2): plan, enqueue, execute, atomic switch."""
        with self.obs.span("transcode_request", file=name):
            meta = self.namenode.lookup(name)
            kind = self._open_transcode(meta, target)
            if kind is TranscodeKind.FREE:
                return self._free_transition(meta, target)
            if kind is TranscodeKind.CONVERTIBLE:
                self.transcoder.run_pending(name)
                return self.namenode.lookup(name)
            # RRW: no native plan for this file, or a replicated / hybrid target.
            return RRWTranscoder(self).transcode(name, target)

    def schedule_transcode(
        self,
        name: str,
        target: RedundancyScheme,
        deadline: Optional[float] = None,
    ) -> FileMeta:
        """Deferred transcode: queue the work for the maintenance
        scheduler instead of executing inline.

        Free (hybrid -> EC) transitions become a single metadata-only
        task when every stripe already has its parities — the scheduler
        runs those regardless of budget pressure. Convertible
        conversions open a UTM job; the heartbeat loop feeds its pending
        groups into the scheduler tick by tick, where ``deadline``
        boosts them as the lifetime policy's transition date nears.
        """
        from repro.sched.tasks import FreeTransitionTask

        meta = self.namenode.lookup(name)
        kind = self._open_transcode(meta, target, deadline)
        if kind is TranscodeKind.FREE:
            ec = target.ec_part
            sealed = ec is None or all(len(s.parities) >= ec.r for s in meta.stripes)
            self.scheduler.submit(
                FreeTransitionTask(
                    name, target, metadata_only=sealed, deadline=deadline
                )
            )
        elif kind is TranscodeKind.RRW:
            # RRW has no incremental work units; run it inline.
            return RRWTranscoder(self).transcode(name, target)
        return meta

    def _open_transcode(
        self, meta: FileMeta, target: RedundancyScheme, deadline: Optional[float] = None
    ) -> TranscodeKind:
        """The kind ``meta`` -> ``target`` goes by, inline or scheduled
        alike: the planner's, except that a convertible one whose file has
        a group no native plan covers (:meth:`_build_groups`) is an RRW.
        A convertible transcode is opened here: a hybrid source's
        replicas dropped (free), then its UTM job enqueued."""
        kind = self.planner.plan(meta.scheme, target).kind
        if kind is TranscodeKind.CONVERTIBLE:
            groups = self._build_groups(meta, target)
            if groups is None:
                return TranscodeKind.RRW
            if isinstance(meta.scheme, HybridScheme):
                self._free_transition(meta, meta.scheme.ec)
            self.namenode.enqueue_transcode(meta.name, target, groups, deadline=deadline)
        return kind

    def _free_transition(self, meta: FileMeta, target: RedundancyScheme) -> FileMeta:
        """Hybrid -> EC: delete replicas, flip metadata. Zero IO (§4.5).

        Stripes whose parities were deferred (``parity_mode="none"`` or a
        still-open appended tail) must be sealed first — replicas are the
        only redundancy such stripes have, so deleting them without
        parities in place would silently lose protection.
        """
        ec = target.ec_part
        r = 0 if ec is None else ec.r
        keep = next((i for i, s in enumerate(meta.stripes) if len(s.parities) < r), None)
        if keep is not None:
            # Every missing parity is stored, then one op publishes them
            # with the tail's replica blocks trimmed to ``copies`` — those
            # off the tail's reserved parity slots first, and no parity
            # lands beside one kept — so a crash before the switch leaves
            # a whole hybrid file; the switch drops every copy.
            first = meta.first_data_index(meta.stripes[keep])
            placement = self._placement_for(meta, first)
            slots = {
                node for start, _s in meta.stripe_spans() if start >= first
                for j in range(r) for node in placement.reserved(meta.name, start, j)
            }
            copies = meta.scheme.copies
            blocks = [
                replace(b, copies=sorted(b.copies, key=lambda c: c.node_id in slots)[:copies])
                for b in meta.replica_blocks[meta.blocks_under(keep):]
            ]
            kept = [copy for block in blocks for copy in block.copies]
            tail = [
                self._seal_stripe(meta, s, placement, kept) if len(s.parities) < r else s
                for s in meta.stripes[keep:]
            ]
            self.discard_chunks(
                self.namenode.relayout_file(meta.name, keep, tail, blocks, meta.size)
            )
        # The metadata switch first, then the copies it no longer lists.
        self.discard_chunks(self.namenode.drop_replicas(meta.name, target))
        return meta

    def _seal_stripe(
        self, meta: FileMeta, stripe: ECStripeMeta, placement: PlacementPolicy,
        kept: Sequence[ChunkMeta] = (),
    ) -> ECStripeMeta:
        """Materialise the parities a hybrid file's stripe is missing —
        deferred (``parity_mode="none"``) or never due (an open tail, at
        its own width) — and return the stripe sealed, for the caller to
        publish (``relayout_file``); ``stripe`` itself is not touched.

        Data reaches the striper from the stripe's chunks, else — sealing
        must work during failures, and the replicas are exactly what
        survives when a parity-less stripe's data home dies — their
        replica ranges (one striper-local encode); parities land on the
        slots the file's ``placement`` reserves — co-located — or a fresh
        node where a slot is unreachable or holds a chunk of the stripe
        or a replica copy ``kept`` beside it. The code is the one the
        stripe, once sealed, is read and repaired with.
        """
        ec = meta.scheme.ec
        code = self.codec_for_stripe(meta, stripe)
        # The first data home the namenode can command, else any node.
        striper = home_for(
            self.datanodes, self.commandable, (), prefer=[c.node_id for c in stripe.data]
        )
        sources = [
            self.fetch_slot(meta, stripe, slot, striper) for slot in range(stripe.k)
        ]
        if None in sources:
            raise RecoveryError(
                f"{meta.name}: stripe {stripe.stripe_index} data chunk "
                f"{sources.index(None)} unavailable and no replica covers it"
            )
        parities = code.encode([data for _copy, data in sources])
        first_chunk = meta.first_data_index(stripe)
        self.charge_encode(striper, stripe.k, len(parities), self.chunk_size)
        kinds = self._parity_kinds(ec)
        occupied = {c.node_id for c in (*stripe.all_chunks(), *kept)}
        held = [c.node_id for c in meta.all_chunks()]
        sealed: List[ChunkMeta] = []
        for j in range(len(stripe.parities), len(parities)):
            node = home_for(
                self.datanodes, self.commandable, occupied, held,
                placement.reserved(meta.name, first_chunk, j),
            )
            occupied.add(node)
            chunk_id = self.namenode.next_chunk_id(
                f"{meta.name}/s{stripe.stripe_index}p{j}"
            )
            sealed.append(self.store_chunk(node, chunk_id, parities[j], kinds[j], striper))
        parity_chunks = stripe.parities + sealed
        return replace(stripe, parities=parity_chunks, n=stripe.k + len(parity_chunks))

    def _build_groups(
        self, meta: FileMeta, target: RedundancyScheme
    ) -> Optional[List[ConversionGroup]]:
        """One conversion group per lcm span of each run of equal-width
        stripes — appended or short tail stripes form their own runs and
        convert at their own width — each with a native plan
        (:func:`plan_conversion`), or ``None`` if one has none."""
        ec, source = target.ec_part, meta.scheme.ec_part
        groups: List[ConversionGroup] = []
        for k_run, run in groupby(range(len(meta.stripes)), lambda i: meta.stripes[i].k):
            run = list(run)
            size = ec.k // math.gcd(k_run, ec.k)  # stripes in an lcm span
            for start in range(0, len(run), size):
                members = run[start : start + size]
                plan = plan_conversion(source.at_width(k_run), len(members), ec)
                if plan is None:
                    return None
                groups.append(
                    ConversionGroup(
                        file_name=meta.name,
                        group_index=len(groups),
                        initial_stripe_indices=members,
                        n_final_stripes=plan.n_final_stripes,
                        target_scheme=target,
                    )
                )
        return groups
