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

Every chunk a striped read delivers is checked against the CRC recorded
for its data slot, whichever of the three sources produced it (§6.1);
the check rides the copy into the result (``verify(..., into=)``).
Replica-first reads of a sub-stripe range are not verified: the sums are
per chunk, and such a read need not cover one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.codes.base import DecodeError
from repro.dfs.blocks import ChunkMeta, ECStripeMeta, FileMeta, ReplicaBlockMeta
from repro.dfs.integrity import quarantine


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
        out = np.empty(length, dtype=np.uint8)
        pos = offset
        end = offset + length
        while pos < end:
            block = self._block_covering(meta, pos)
            if block is None:
                return None
            block_start = block.first_chunk * meta.chunk_size
            block_len = block.n_chunks * meta.chunk_size
            take = min(end, block_start + block_len) - pos
            served = next(self._replica_pieces(block, pos - block_start, take), None)
            if served is None:
                return None
            out[pos - offset : pos - offset + take] = served[1]
            pos += take
        return out

    def _block_covering(self, meta: FileMeta, pos: int) -> Optional[ReplicaBlockMeta]:
        chunk_index = pos // meta.chunk_size
        for block in meta.replica_blocks:
            if block.first_chunk <= chunk_index < block.first_chunk + block.n_chunks:
                return block
        return None

    def _replica_pieces(
        self, block: ReplicaBlockMeta, start: int, length: int
    ) -> Iterator[Tuple[ChunkMeta, np.ndarray]]:
        """``(copy, its bytes of the range)`` from each readable copy in
        turn; a caller that trusts the first one stops there."""
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
            yield copy, piece

    # -- striped path ------------------------------------------------------------
    def _read_striped(self, meta: FileMeta, offset: int, length: int) -> np.ndarray:
        out = np.empty(length, dtype=np.uint8)
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
            last_local = min((end - 1) // chunk_size - stripe_first, stripe.k - 1)
            # A chunk the range covers whole is delivered straight into
            # its slice of the result. The range's first and last chunk
            # may only be wanted in part (a zero-padded final chunk always
            # is): those land in a scratch chunk and their part is copied.
            dests: Dict[int, np.ndarray] = {}
            partial: List[Tuple[int, int]] = []
            for local in range(first_local, last_local + 1):
                c_start = (stripe_first + local) * chunk_size
                if offset <= c_start and c_start + chunk_size <= end:
                    dests[local] = out[c_start - offset : c_start - offset + chunk_size]
                else:
                    dests[local] = np.empty(chunk_size, dtype=np.uint8)
                    partial.append((local, c_start))
            self._read_data_chunks(meta, stripe, stripe_first, dests)
            for local, c_start in partial:
                a = max(offset, c_start)
                b = min(end, c_start + chunk_size)
                out[a - offset : b - offset] = dests[local][a - c_start : b - c_start]
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
        dests: Dict[int, np.ndarray],
    ) -> None:
        """Deliver data chunks of one stripe into ``dests`` (local index ->
        chunk-sized destination).

        Whichever source produces a chunk, it is copied into its
        destination once and checked there against the *data slot's*
        recorded sum (verify-on-read, §6.1): the home node's copy, else
        the chunk's range of a hybrid replica (§4.3), else — for
        everything still missing — one degraded read from a shared set of
        survivors. A source that fails the check is quarantined and the
        next one tried.
        """
        fs = self.fs
        missing: List[int] = []
        for local, dst in dests.items():
            chunk = stripe.data[local]
            readable = fs.chunk_readable(chunk)
            if readable and self._is_straggler(
                chunk.node_id
            ) and self._has_fast_alternative(meta, stripe, stripe_first, local):
                # The home copy works but sits on a straggler disk and a
                # fast source exists: skip it (replica or decode below).
                self._count_hedge()
            elif readable:
                data = fs.datanodes[chunk.node_id].read(chunk.chunk_id, at=fs.clock)
                fs.metrics.record_transfer(
                    chunk.node_id, self.CLIENT, float(data.nbytes), at=fs.clock, tag="read"
                )
                if fs.checksums.verify(chunk.chunk_id, data, into=dst):
                    continue
                quarantine(fs, chunk)  # a corrupt chunk is treated as missing
            if not self._replica_range_into(meta, chunk, stripe_first + local, dst):
                missing.append(local)
        if missing:
            self._decode_into(meta, stripe, missing, dests)

    def _replica_range_into(
        self, meta: FileMeta, chunk: ChunkMeta, chunk_index: int, dst: np.ndarray
    ) -> bool:
        """Serve data chunk ``chunk_index`` from its range of a replica."""
        if not meta.replica_blocks:
            return False
        block = self._block_covering(meta, chunk_index * meta.chunk_size)
        if block is None:
            return False
        start = (chunk_index - block.first_chunk) * meta.chunk_size
        for copy, piece in self._replica_pieces(block, start, meta.chunk_size):
            if self.fs.checksums.verify(chunk.chunk_id, piece, into=dst):
                return True
            quarantine(self.fs, copy)
        return False

    def _decode_into(
        self,
        meta: FileMeta,
        stripe: ECStripeMeta,
        missing: List[int],
        dests: Dict[int, np.ndarray],
    ) -> None:
        """Degraded read: decode the ``missing`` data chunks and deliver
        them like any other source, checked against their slots' sums.

        Survivors are fetched unverified — k cold CRCs would be a tax on
        every degraded read. A decoded chunk that fails its check means
        one of them is rotten: only then are the survivors verified, the
        rotten ones quarantined, and the decode retried once without them.
        """
        with self.fs.obs.span(
            "degraded_read", file=meta.name, stripe=stripe.stripe_index
        ):
            verify = self.fs.checksums.verify
            chunks = stripe.all_chunks()

            def deliver(recovered: Dict[int, np.ndarray]) -> bool:
                return all(
                    verify(chunks[local].chunk_id, recovered[local], into=dests[local])
                    for local in missing
                )

            available, recovered = self._decode(meta, stripe, missing)
            if deliver(recovered):
                return
            rotten = [
                idx
                for idx, data in available.items()
                if not verify(chunks[idx].chunk_id, data)
            ]
            for idx in rotten:
                quarantine(self.fs, chunks[idx])  # unreadable from here on
            if rotten and deliver(self._decode(meta, stripe, missing)[1]):
                return
            raise ReadError(
                f"{meta.name}: stripe {stripe.stripe_index} decodes to bytes "
                "that fail their checksums"
            )

    def _decode(
        self, meta: FileMeta, stripe: ECStripeMeta, missing: List[int]
    ) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
        """``(survivors used, decoded chunks)`` for the ``missing`` data
        chunks of one stripe, from k surviving stripe chunks."""
        code = self.fs.codec_for_stripe(meta, stripe)
        chunks = stripe.all_chunks()
        available: Dict[int, np.ndarray] = {}

        def try_fetch(idx: int) -> bool:
            chunk = chunks[idx]
            if not self.fs.chunk_readable(chunk):
                return False
            data = self.fs.datanodes[chunk.node_id].read(chunk.chunk_id, at=self.fs.clock)
            self.fs.metrics.record_transfer(
                chunk.node_id,
                self.CLIENT,
                float(data.nbytes),
                at=self.fs.clock,
                tag="degraded_read",
            )
            available[idx] = data
            return True

        # LRC-family codes: a single erasure tries the cheap local-repair
        # set first (k/l reads).
        if len(missing) == 1 and hasattr(code, "group_members"):
            local = missing[0]
            peers = [m for m in code.group_members(code.group_of(local)) if m != local]
            if all(try_fetch(m) for m in peers):
                recovered = code.decode(available, missing)
                self.fs.charge_client_decode(code, meta.chunk_size, width=len(peers))
                return available, recovered
        # Survivors on fast disks are preferred; stragglers only fill in
        # when fewer than k fast survivors exist.
        pending = sorted(
            (i for i in range(len(chunks)) if i not in missing and i not in available),
            key=lambda i: (self._is_straggler(chunks[i].node_id), i),
        )
        error: Optional[DecodeError] = None
        # k survivors decode any pattern of an MDS code; an LRC-family
        # pattern may have to reach past the first k.
        for need in (stripe.k, stripe.n):
            while pending and len(available) < need:
                try_fetch(pending.pop(0))
            try:
                recovered = code.decode(available, missing)
            except DecodeError as exc:
                error = exc
                continue
            self.fs.charge_client_decode(
                code, meta.chunk_size * len(missing), width=stripe.k
            )
            return available, recovered
        raise ReadError(
            f"{meta.name}: stripe {stripe.stripe_index} unrecoverable"
        ) from error
