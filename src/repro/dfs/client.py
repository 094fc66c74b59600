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
the check rides the copy into the result (``verify_many``'s
destinations). A stripe's home copies are checked in one call, and so
are the chunks one decode delivers: over 1 MiB chunks that call runs
on every core, a chunk a part. Replica-first reads of a sub-stripe
range are not verified — the sums are per chunk, and such a read need
not cover one — and are counted instead (``unverified_bytes``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dfs.blocks import ChunkMeta, ECStripeMeta, FileMeta, ReplicaBlockMeta
from repro.dfs.integrity import quarantine, quarantine_rotten


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
        #: bytes the replica path served unchecked: it checks nothing,
        #: since a range need not cover a recorded sum
        self.unverified_bytes = 0

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

    def _hedges_past(self, meta: FileMeta, stripe: ECStripeMeta, home: ChunkMeta) -> bool:
        """Skip a slow but readable ``home`` copy? Only when the fast readable
        sources left in its hybrid block decode: a hedge never fails a read."""
        fs = self.fs
        (group,) = meta.hybrid_blocks(stripe)
        fast = group.slots(
            lambda c: c is not home and not self._is_straggler(c.node_id) and fs.chunk_readable(c)
        )
        return fs.rank_rule(meta, group)(fast)

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
            block = meta.block_covering(pos // meta.chunk_size)
            if block is None:
                return None
            block_start = block.first_chunk * meta.chunk_size
            block_len = block.n_chunks * meta.chunk_size
            take = min(end, block_start + block_len) - pos
            served = self.fs.fetch_block_range(
                block, pos - block_start, take, self.CLIENT, self._prefer
            )
            if served is None:
                return None
            self._note_hedge(block, served[0])
            out[pos - offset : pos - offset + take] = served[1]
            pos += take
        self.unverified_bytes += length
        obs = self.fs.obs
        if obs.enabled and obs.registry is not None:
            obs.registry.counter("dfs_unverified_read_bytes_total").inc(length)
        return out

    def _prefer(self, chunk: ChunkMeta) -> bool:
        """Source preference (a sort key): copies and survivors on fast
        nodes first; a straggler disk serves only when they run out."""
        return self._is_straggler(chunk.node_id)

    def _note_hedge(self, block: ReplicaBlockMeta, copy: ChunkMeta) -> None:
        """A replica read hedged if it passed over a primary copy that
        was readable but slow."""
        primary = block.copies[0]
        if (
            copy is not primary
            and self._is_straggler(primary.node_id)
            and self.fs.chunk_readable(primary)
        ):
            self._count_hedge()

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
            stripe, first_local = meta.stripe_of(chunk_index)
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
        survivors. The home copies are checked together, in one
        ``verify_many`` call; then, chunk by chunk in order, a copy that
        failed is quarantined and the next source tried.
        """
        fs = self.fs
        missing: List[int] = []
        checks: List[Tuple[str, np.ndarray, np.ndarray]] = []  # the copies fetched
        skipped: List[int] = []  # local indices whose home copy was not fetched
        for local, dst in dests.items():
            chunk = stripe.data[local]
            if self._is_straggler(chunk.node_id) and fs.chunk_readable(chunk):
                # Whether a fast source is left turns on the copies
                # fetched so far: settle them before deciding.
                self._settle(meta, stripe, stripe_first, dests, checks, skipped, missing)
                if self._hedges_past(meta, stripe, chunk):
                    # The home copy works but sits on a straggler disk and
                    # a fast source exists: skip it (replica or decode).
                    self._count_hedge()
                    skipped.append(local)
                    continue
            data = fs.fetch_chunk(chunk, self.CLIENT)
            if data is None:
                skipped.append(local)
            else:
                checks.append((chunk.chunk_id, data, dst))
        self._settle(meta, stripe, stripe_first, dests, checks, skipped, missing)
        if missing:
            self._decode_into(meta, stripe, missing, dests)

    def _settle(
        self,
        meta: FileMeta,
        stripe: ECStripeMeta,
        stripe_first: int,
        dests: Dict[int, np.ndarray],
        checks: List[Tuple[str, np.ndarray, np.ndarray]],
        skipped: List[int],
        missing: List[int],
    ) -> None:
        """Check the home copies ``checks`` holds into their destinations
        in one call. Then, in stripe order, serve each chunk whose copy
        failed (quarantined: a corrupt chunk is treated as missing) or
        was ``skipped`` from its replica range, else note it ``missing``.
        Empties both lists."""
        fs = self.fs
        verdicts = fs.checksums.verify_many(checks)
        fall_back = skipped
        if not all(verdicts):
            failed = {chunk_id for (chunk_id, _data, _dst), good in zip(checks, verdicts) if not good}
            fall_back = [
                local for local in dests
                if local in skipped or stripe.data[local].chunk_id in failed
            ]
        for local in fall_back:
            if local not in skipped:  # its copy failed its sum
                quarantine(fs, stripe.data[local])
            if not self._replica_range_into(meta, stripe, stripe_first, local, dests[local]):
                missing.append(local)
        checks.clear()
        skipped.clear()

    def _replica_range_into(
        self, meta: FileMeta, stripe: ECStripeMeta, stripe_first: int, local: int,
        dst: np.ndarray,
    ) -> bool:
        """Serve a data chunk from its range of a replica: the first copy
        that passes the slot's sum; one that fails it is quarantined,
        which leaves the next one first in line."""
        fs = self.fs
        while True:
            found = fs.fetch_replica_range(meta, stripe, local, self.CLIENT, self._prefer)
            if found is None:
                return False
            self._note_hedge(meta.block_covering(stripe_first + local), found[0])
            if fs.checksums.verify(stripe.data[local].chunk_id, found[1], into=dst):
                return True
            quarantine(fs, found[0])

    def _decode_into(
        self,
        meta: FileMeta,
        stripe: ECStripeMeta,
        missing: List[int],
        dests: Dict[int, np.ndarray],
    ) -> None:
        """Degraded read: decode the ``missing`` data chunks and deliver
        them like any other source, checked against their slots' sums.

        The chunks of ``dests`` already delivered — verified — are handed
        to the decode as held survivors, so none is fetched twice: one
        lost data chunk of a whole-stripe read costs k reads, not
        2k − 1. The other survivors are fetched unverified — k cold CRCs
        would be a tax on every degraded read. A decoded chunk that fails
        its check means one of them is rotten: only then are the fetched
        survivors verified, the rotten ones quarantined, and the decode
        retried once without them.
        """
        fs = self.fs
        with fs.obs.span("degraded_read", file=meta.name, stripe=stripe.stripe_index):
            held = {local: dst for local, dst in dests.items() if local not in missing}

            def decode():
                """``(sources read, did every decoded chunk pass)``."""
                read, rebuilt = fs.rebuild_slots(
                    meta, stripe, missing, self.CLIENT, prefer=self._prefer, held=held
                )
                return read, all(fs.checksums.verify_many([
                    (stripe.data[local].chunk_id, rebuilt[local], dests[local])
                    for local in missing
                ]))

            read, delivered = decode()
            if delivered or (quarantine_rotten(fs, read) and decode()[1]):
                return
            raise ReadError(
                f"{meta.name}: stripe {stripe.stripe_index} decodes to bytes "
                "that fail their checksums"
            )
