"""Append support for MorphFS (paper §4.2, appendability).

Replicated files can append freely; EC files cannot without parity
read-modify-write. Morph's hybrid scheme restores appendability by
deferring parity computation until a stripe is *complete*.
"""

from __future__ import annotations

import numpy as np

from repro.core.schemes import HybridScheme
from repro.dfs.blocks import FileMeta


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
        # The concatenation is the door's one copy of the appended bytes.
        region = np.concatenate([existing, data])
        region.setflags(write=False)
        self._drop_open_region(meta, open_start // span, ec.k)
        # The drop rewrote the file's layout; note it before the rewrite
        # below mints fresh chunk ids, so a journaled namenode stays
        # consistent at every record boundary.
        self.namenode.note_file(meta)
        # The region is written into a staging area (minting ids as it
        # goes) and published in one step: the registered file changes,
        # and is noted, between two journal records.
        staged = FileMeta(meta.name, 0, meta.chunk_size, meta.scheme)
        self._write_hybrid(
            staged, region, meta.scheme, first_stripe=open_start // span, open_tail=True
        )
        meta.stripes.extend(staged.stripes)
        meta.replica_blocks.extend(staged.replica_blocks)
        meta.size = open_start + len(region)
        self.namenode.note_file(meta)
        return meta

    def close_file(self, name: str) -> FileMeta:
        """Seal an open tail stripe: encode its parities, drop the extra
        replica. A short tail becomes a narrower stripe, encoded with the
        code ``codec_for_stripe`` reads and repairs it with."""
        meta = self.namenode.lookup(name)
        if not isinstance(meta.scheme, HybridScheme):
            return meta
        if not meta.stripes or meta.stripes[-1].parities:
            return meta  # nothing open
        self._seal_stripe(meta, meta.stripes[-1])
        # Parities are durable: the open stripe's extra replica goes.
        copies = meta.replica_blocks[-1].copies
        extra = copies[meta.scheme.copies :]
        del copies[meta.scheme.copies :]
        self.discard_chunks(extra)
        # Published in one step once every id is minted (see append_file).
        self.namenode.note_file(meta)
        return meta

    # -- internals -------------------------------------------------------------
    def _drop_open_region(self, meta: FileMeta, open_stripe: int, k: int) -> None:
        """Remove the open stripe (and its replica block) before rewrite."""
        first_open = open_stripe * k
        dropped = [c for stripe in meta.stripes[open_stripe:] for c in stripe.all_chunks()]
        for block in meta.replica_blocks:
            if block.first_chunk >= first_open:
                dropped.extend(block.copies)
        self.discard_chunks(dropped)
        meta.stripes = meta.stripes[:open_stripe]
        meta.replica_blocks = [b for b in meta.replica_blocks if b.first_chunk < first_open]
