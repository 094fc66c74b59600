"""Client read paths (§4.3, §6.1).

Strategy selection mirrors Morph:

* **Replica-first** for latency-sensitive reads: hybrid and replicated
  files read from a live replica; dead/missing replicas fall through to
  the next copy, then to the stripe.
* **Striped** for throughput-bound scans: a stripe-spanning read pulls
  all k data chunks in parallel (the caller opts in, or the read spans a
  whole stripe).
* **Degraded** only as a last resort: a data chunk with no live replica
  and no live home decodes from k surviving stripe chunks (metered reads
  plus decode CPU).

All byte movement is metered: disk reads at the owning Datanode, one
network transfer per chunk delivered to the reading client.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codes.base import DecodeError
from repro.dfs.blocks import ECStripeMeta, FileMeta, ReplicaBlockMeta


class ReadError(Exception):
    """The requested range cannot be served from any copy."""


class ClientReader:
    """Reads file ranges through a DFS's datanodes with Morph's strategy."""

    CLIENT = "client"

    def __init__(self, fs):
        self.fs = fs
        #: reads served from an alternative source because the primary
        #: copy sat on a known-slow (straggler) node
        self.hedged_reads = 0

    # -- hedging -----------------------------------------------------------
    def _is_straggler(self, node_id: str) -> bool:
        """A node whose disk multiplier crosses the hedge threshold."""
        hedge = self.fs.hedge_slow_disk_multiplier
        if hedge is None:
            return False
        return self.fs.cluster.node(node_id).disk_multiplier >= hedge

    def _count_hedge(self) -> None:
        self.hedged_reads += 1
        obs = self.fs.obs
        if obs.enabled and obs.registry is not None:
            obs.registry.counter("dfs_hedged_reads_total").inc()

    def _has_fast_alternative(
        self, meta: FileMeta, stripe: ECStripeMeta, stripe_first: int, local: int
    ) -> bool:
        """Can this data chunk be served without touching its slow home?

        True when a replica copy sits on a fast reachable node, or the
        stripe has k fast reachable survivors to decode from. Hedging
        never makes a read *fail*: with no fast source, the slow home
        copy serves as usual.
        """
        if meta.replica_blocks:
            block = self._block_covering(meta, (stripe_first + local) * meta.chunk_size)
            if block is not None:
                for copy in block.copies:
                    if self.fs.chunk_readable(copy) and not self._is_straggler(
                        copy.node_id
                    ):
                        return True
        fast = 0
        for idx, chunk in enumerate(stripe.all_chunks()):
            if idx == local:
                continue
            if self.fs.chunk_readable(chunk) and not self._is_straggler(chunk.node_id):
                fast += 1
                if fast >= stripe.k:
                    return True
        return False

    # -- public ------------------------------------------------------------
    def read(
        self,
        meta: FileMeta,
        offset: int = 0,
        length: Optional[int] = None,
        prefer_striped: bool = False,
    ) -> np.ndarray:
        """Read ``length`` bytes at ``offset``; returns the exact bytes."""
        if length is None:
            length = meta.size - offset
        if offset < 0 or offset + length > meta.size:
            raise ValueError(f"range [{offset}, {offset + length}) outside file")
        if meta.stripes:
            span = meta.stripes[0].k * meta.chunk_size
            spans_whole_stripe = length >= span
            use_striped = (prefer_striped or spans_whole_stripe or not meta.replica_blocks)
            if meta.is_hybrid and not use_striped:
                data = self._read_from_replicas(meta, offset, length)
                if data is not None:
                    return data
            return self._read_striped(meta, offset, length)
        data = self._read_from_replicas(meta, offset, length)
        if data is None:
            raise ReadError(f"{meta.name}: no live replica for [{offset}, {offset+length})")
        return data

    # -- replica path ----------------------------------------------------------
    def _read_from_replicas(
        self, meta: FileMeta, offset: int, length: int
    ) -> Optional[np.ndarray]:
        out = np.zeros(length, dtype=np.uint8)
        pos = offset
        end = offset + length
        while pos < end:
            block = self._block_covering(meta, pos)
            if block is None:
                return None
            block_start = block.first_chunk * meta.chunk_size
            block_len = block.n_chunks * meta.chunk_size
            take = min(end, block_start + block_len) - pos
            piece = self._read_replica_block(block, pos - block_start, take)
            if piece is None:
                return None
            out[pos - offset : pos - offset + take] = piece
            pos += take
        return out

    def _block_covering(self, meta: FileMeta, pos: int) -> Optional[ReplicaBlockMeta]:
        chunk_index = pos // meta.chunk_size
        for block in meta.replica_blocks:
            if block.first_chunk <= chunk_index < block.first_chunk + block.n_chunks:
                return block
        return None

    def _read_replica_block(
        self, block: ReplicaBlockMeta, start: int, length: int
    ) -> Optional[np.ndarray]:
        # Hedged ordering: prefer copies on fast nodes; a copy on a
        # straggler disk serves only when no fast copy is available.
        ranked = sorted(
            enumerate(block.copies),
            key=lambda pair: (self._is_straggler(pair[1].node_id), pair[0]),
        )
        for index, copy in ranked:
            if not self.fs.chunk_readable(copy):
                continue
            if index != 0 and self.fs.chunk_readable(block.copies[0]) and self._is_straggler(
                block.copies[0].node_id
            ):
                # The primary copy was readable but slow — this read hedged.
                self._count_hedge()
            piece = self.fs.datanodes[copy.node_id].read_range(
                copy.chunk_id, start, length, at=self.fs.clock
            )
            self.fs.metrics.record_transfer(
                copy.node_id, self.CLIENT, float(length), at=self.fs.clock, tag="read"
            )
            return piece
        return None

    # -- striped path ------------------------------------------------------------
    def _read_striped(self, meta: FileMeta, offset: int, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.uint8)
        chunk_size = meta.chunk_size
        pos = offset
        end = offset + length
        while pos < end:
            # Gather every data chunk of the current stripe the range
            # touches, so multiple missing chunks decode in ONE fused
            # pass (one set of k survivor fetches) instead of one
            # k-fetch degraded read per chunk.
            chunk_index = pos // chunk_size
            stripe, first_local = self._stripe_of(meta, chunk_index)
            stripe_first = chunk_index - first_local
            last_needed = (end - 1) // chunk_size
            last_local = min(first_local + (last_needed - chunk_index), stripe.k - 1)
            locals_needed = list(range(first_local, last_local + 1))
            fetched = self._read_data_chunks(meta, stripe, stripe_first, locals_needed)
            for local in locals_needed:
                c_start = (stripe_first + local) * chunk_size
                a = max(pos, c_start)
                b = min(end, c_start + chunk_size)
                out[a - offset : b - offset] = fetched[local][a - c_start : b - c_start]
            pos = min(end, (stripe_first + last_local + 1) * chunk_size)
        return out

    def _stripe_of(self, meta: FileMeta, chunk_index: int):
        passed = 0
        for stripe in meta.stripes:
            if chunk_index < passed + stripe.k:
                return stripe, chunk_index - passed
            passed += stripe.k
        raise ReadError(f"{meta.name}: data chunk {chunk_index} beyond file")

    def _read_data_chunks(
        self,
        meta: FileMeta,
        stripe: ECStripeMeta,
        stripe_first: int,
        locals_needed: List[int],
    ) -> Dict[int, np.ndarray]:
        """Fetch several data chunks of one stripe (local index -> bytes).

        Live chunks read from their home node (verify-on-read, §6.1),
        dead/corrupt ones fall back to a hybrid replica (§4.3), and
        whatever is still missing decodes from one shared set of k
        survivors in a single degraded read.
        """
        fetched: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for local in locals_needed:
            chunk = stripe.data[local]
            datanode = self.fs.datanodes[chunk.node_id]
            readable = self.fs.chunk_readable(chunk)
            hedge_away = readable and self._is_straggler(
                chunk.node_id
            ) and self._has_fast_alternative(meta, stripe, stripe_first, local)
            if hedge_away:
                # The home copy works but sits on a straggler disk and a
                # fast source exists: skip it (replica or decode below).
                self._count_hedge()
            elif readable:
                data = datanode.read(chunk.chunk_id, at=self.fs.clock)
                self.fs.metrics.record_transfer(
                    chunk.node_id, self.CLIENT, float(data.nbytes), at=self.fs.clock, tag="read"
                )
                if self.fs.checksums.verify(chunk.chunk_id, data):
                    fetched[local] = data
                    continue
                # Verify-on-read (§6.1): a corrupt chunk is treated as missing.
                datanode.delete(chunk.chunk_id, at=self.fs.clock)
            # Hybrid fast path for degraded reads: serve from a replica (§4.3).
            if meta.replica_blocks:
                block = self._block_covering(meta, (stripe_first + local) * meta.chunk_size)
                if block is not None:
                    start = (stripe_first + local - block.first_chunk) * meta.chunk_size
                    piece = self._read_replica_block(block, start, meta.chunk_size)
                    if piece is not None:
                        fetched[local] = piece
                        continue
            missing.append(local)
        if len(missing) == 1:
            # Single erasure keeps the existing path (LRC local repair
            # reads only the k/l group peers).
            fetched[missing[0]] = self._degraded_read(meta, stripe, missing[0])
        elif missing:
            fetched.update(self._degraded_read_many(meta, stripe, missing))
        return fetched

    def _degraded_read_many(
        self, meta: FileMeta, stripe: ECStripeMeta, missing: List[int]
    ) -> Dict[int, np.ndarray]:
        """Decode several missing data chunks of one stripe at once."""
        with self.fs.obs.span(
            "degraded_read", file=meta.name, stripe=stripe.stripe_index
        ):
            code = self.fs.codec_for_stripe(meta, stripe)
            chunks = stripe.all_chunks()
            missing_set = set(missing)
            available: Dict[int, np.ndarray] = {}
            # Survivors on fast disks are preferred; stragglers only fill
            # in when fewer than k fast survivors exist.
            order = sorted(
                range(len(chunks)),
                key=lambda i: (self._is_straggler(chunks[i].node_id), i),
            )
            for idx in order:
                if idx in missing_set:
                    continue
                chunk = chunks[idx]
                datanode = self.fs.datanodes[chunk.node_id]
                if self.fs.chunk_readable(chunk):
                    data = datanode.read(chunk.chunk_id, at=self.fs.clock)
                    self.fs.metrics.record_transfer(
                        chunk.node_id,
                        self.CLIENT,
                        float(data.nbytes),
                        at=self.fs.clock,
                        tag="degraded_read",
                    )
                    available[idx] = data
                    if len(available) >= stripe.k:
                        break
            try:
                recovered = code.decode(available, missing)
            except DecodeError as exc:
                raise ReadError(
                    f"{meta.name}: stripe {stripe.stripe_index} unrecoverable"
                ) from exc
            self.fs.charge_client_decode(
                code, meta.chunk_size * len(missing), width=stripe.k
            )
            return recovered

    def _degraded_read(self, meta: FileMeta, stripe: ECStripeMeta, local: int) -> np.ndarray:
        """Decode a missing data chunk from k surviving stripe chunks."""
        with self.fs.obs.span(
            "degraded_read", file=meta.name, stripe=stripe.stripe_index
        ):
            return self._degraded_read_impl(meta, stripe, local)

    def _degraded_read_impl(
        self, meta: FileMeta, stripe: ECStripeMeta, local: int
    ) -> np.ndarray:
        code = self.fs.codec_for_stripe(meta, stripe)
        chunks = stripe.all_chunks()

        def try_fetch(idx: int, available: Dict[int, np.ndarray]) -> bool:
            chunk = chunks[idx]
            datanode = self.fs.datanodes[chunk.node_id]
            if self.fs.chunk_readable(chunk):
                data = datanode.read(chunk.chunk_id, at=self.fs.clock)
                self.fs.metrics.record_transfer(
                    chunk.node_id,
                    self.CLIENT,
                    float(data.nbytes),
                    at=self.fs.clock,
                    tag="degraded_read",
                )
                available[idx] = data
                return True
            return False

        available: Dict[int, np.ndarray] = {}
        # LRC-family codes: try the cheap local-repair set first (k/l reads).
        if hasattr(code, "group_members"):
            peers = [m for m in code.group_members(code.group_of(local)) if m != local]
            if all(try_fetch(m, available) for m in peers):
                recovered = code.decode(available, [local])
                self.fs.charge_client_decode(code, meta.chunk_size, width=len(peers))
                return recovered[local]
        scan = sorted(
            range(len(chunks)),
            key=lambda i: (self._is_straggler(chunks[i].node_id), i),
        )
        for idx in scan:
            if idx == local or idx in available:
                continue
            if try_fetch(idx, available):
                if len(available) >= stripe.k:
                    break
        try:
            recovered = code.decode(available, [local])
        except DecodeError as exc:
            raise ReadError(
                f"{meta.name}: stripe {stripe.stripe_index} unrecoverable"
            ) from exc
        self.fs.charge_client_decode(code, meta.chunk_size, width=stripe.k)
        return recovered[local]
