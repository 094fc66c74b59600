"""Append support for MorphFS (paper §4.2, appendability).

Replicated files can append freely; EC files cannot without parity
read-modify-write. Morph's hybrid scheme restores appendability by
deferring parity computation until a stripe is *complete*.
"""

from __future__ import annotations

import numpy as np

from repro.core.schemes import HybridScheme
from repro.dfs.blocks import ChunkKind, ChunkMeta, FileMeta

class AppendSupport:
    """Mixin providing append_file / close_file on MorphFS.

    An open (tail) stripe is durable purely through replicas — ``c + 1`` copies
    stay persisted until its parities land, matching the paper's "if a
    file is closed before parities get persisted, both replicas are
    persisted even for Hy(1, ...)".
    """

    def append_file(self, name: str, data) -> FileMeta:
        """Append bytes to a hybrid file; parities only for full stripes."""
        meta = self.namenode.lookup(name)
        if not isinstance(meta.scheme, HybridScheme):
            raise ValueError(f"append requires a hybrid file, {name} is {meta.scheme}")
        data = np.asarray(data, dtype=np.uint8).reshape(-1)
        ec = meta.scheme.ec
        span = ec.k * self.chunk_size
        open_start = (meta.size // span) * span
        tail_len = meta.size - open_start
        existing = (
            self.read_file(name, offset=open_start, length=tail_len)
            if tail_len
            else np.zeros(0, dtype=np.uint8)
        )
        region = np.concatenate([existing, data])
        self._drop_open_region(meta, open_start, ec)
        # The drop rewrote the file's layout; note it before the rewrite
        # below mints fresh chunk ids, so a journaled namenode stays
        # consistent at every record boundary.
        self.namenode.note_file(meta)
        # The region is written into a staging area (minting ids as it
        # goes) and published in one step: the registered file changes,
        # and is noted, between two journal records.
        staged = FileMeta(meta.name, 0, meta.chunk_size, meta.scheme)
        self._write_hybrid_region(staged, open_start // span, region, meta.scheme)
        meta.stripes.extend(staged.stripes)
        meta.replica_blocks.extend(staged.replica_blocks)
        meta.size = open_start + len(region)
        self.namenode.note_file(meta)
        return meta

    def close_file(self, name: str) -> FileMeta:
        """Seal an open tail stripe: encode its parities, drop the extra
        replica. Short tails get a narrower stripe of the same family."""
        meta = self.namenode.lookup(name)
        if not isinstance(meta.scheme, HybridScheme):
            return meta
        if not meta.stripes or meta.stripes[-1].parities:
            return meta  # nothing open
        ec = meta.scheme.ec
        stripe = meta.stripes[-1]
        striper = self._usable_node(
            [c.node_id for c in reversed(meta.replica_blocks[-1].copies)]
        )
        chunks = self._read_stripe_data_degraded(meta, stripe, striper)
        code = self.cc_codec(stripe.k, stripe.k + ec.r)
        parities = code.encode(chunks)
        self.charge_node_encode(striper, stripe.k, ec.r, self.chunk_size)
        placement = self._placement_for(meta.name, ec)
        first_chunk = sum(s.k for s in meta.stripes[:-1])
        occupied = [c.node_id for c in stripe.all_chunks()]
        parity_nodes = []
        for j in range(ec.r):
            node = self._usable_node(
                [placement.parity_node(meta.name, first_chunk, j)], occupied
            )
            occupied.append(node)
            parity_nodes.append(node)
        sealed = []
        for j, parity in enumerate(parities):
            chunk_id = self.namenode.next_chunk_id(
                f"{meta.name}/s{stripe.stripe_index}p{j}"
            )
            self.datanodes[parity_nodes[j]].receive_to_disk(
                chunk_id, parity, src=striper, at=self.clock
            )
            self.checksums.record(chunk_id, parity)
            sealed.append(
                ChunkMeta(chunk_id, parity_nodes[j], ChunkKind.PARITY, parity.nbytes)
            )
        # Published in one step once every id is minted (see append_file).
        stripe.parities.extend(sealed)
        stripe.n = stripe.k + ec.r
        self._trim_extra_replica(meta, meta.replica_blocks[-1], meta.scheme.copies)
        self.namenode.note_file(meta)
        return meta

    # -- internals -------------------------------------------------------------
    def _drop_open_region(self, meta: FileMeta, open_start: int, ec) -> None:
        """Remove the open stripe (and its replica block) before rewrite."""
        span_chunks = ec.k
        open_stripe_idx = open_start // (span_chunks * self.chunk_size)
        for stripe in meta.stripes[open_stripe_idx:]:
            for chunk in stripe.all_chunks():
                self.datanodes[chunk.node_id].delete(chunk.chunk_id)
                self.checksums.forget(chunk.chunk_id)
        meta.stripes = meta.stripes[:open_stripe_idx]
        first_open_chunk = open_stripe_idx * span_chunks
        keep, drop = [], []
        for block in meta.replica_blocks:
            (drop if block.first_chunk >= first_open_chunk else keep).append(block)
        for block in drop:
            for copy in block.copies:
                self.datanodes[copy.node_id].delete(copy.chunk_id)
                self.checksums.forget(copy.chunk_id)
        meta.replica_blocks = keep

    def _write_hybrid_region(
        self, meta: FileMeta, first_stripe: int, region: np.ndarray, hy: HybridScheme
    ) -> None:
        """Write a byte region as hybrid stripes; a partial tail stripe
        stays *open*: data chunks + c+1 persisted replicas, no parities."""
        ec = hy.ec
        placement = self._placement_for(meta.name, ec)
        code = self.codec_for(ec)
        n_chunks = -(-len(region) // self.chunk_size) if len(region) else 0
        chunks = []
        for i in range(n_chunks):
            piece = region[i * self.chunk_size : (i + 1) * self.chunk_size]
            if len(piece) < self.chunk_size:
                padded = np.zeros(self.chunk_size, dtype=np.uint8)
                padded[: len(piece)] = piece
                piece = padded
            chunks.append(np.asarray(piece, dtype=np.uint8))
        for s in range(0, len(chunks), ec.k):
            stripe_index = first_stripe + s // ec.k
            stripe_chunks = chunks[s : s + ec.k]
            is_open = len(stripe_chunks) < ec.k
            block_bytes = np.concatenate(stripe_chunks)
            spots = placement.place_stripe(meta.name, stripe_index, ec.k, ec.n - ec.k)
            ec_nodes = spots["data"] + spots["parity"]
            # Open stripes persist one extra replica for durability (§4.2).
            persist = hy.copies + (1 if is_open else 0)
            n_targets = max(persist, 2)
            replica_nodes = placement.place_replicas(
                meta.name, stripe_index, n_targets, exclude=ec_nodes
            )
            block, temporary = self._write_replica_pipeline(
                meta,
                stripe_index,
                first_chunk=first_stripe * ec.k + s,
                n_chunks=len(stripe_chunks),
                block_bytes=block_bytes,
                nodes=replica_nodes,
                persist_count=persist,
                to_memory=True,
            )
            striper = replica_nodes[-1]
            if is_open:
                stripe_meta = self._store_stripe(
                    meta, stripe_index, stripe_chunks, [],
                    spots["data"][: len(stripe_chunks)], [], ec, src=striper,
                )
                stripe_meta.n = stripe_meta.k  # no parities yet
            else:
                parities = code.encode(stripe_chunks)
                self.charge_node_encode(striper, ec.k, ec.n - ec.k, self.chunk_size)
                stripe_meta = self._store_stripe(
                    meta, stripe_index, stripe_chunks, parities,
                    spots["data"], spots["parity"], ec, src=striper,
                )
            self._settle_hybrid_block(block, temporary, stripe_meta)

    def _trim_extra_replica(self, meta: FileMeta, block, copies: int) -> None:
        """Drop the extra open-stripe replica once parities are durable."""
        while len(block.copies) > copies:
            extra = block.copies.pop()
            self.datanodes[extra.node_id].delete(extra.chunk_id)
            self.checksums.forget(extra.chunk_id)
