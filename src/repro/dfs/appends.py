"""Append support for MorphFS (paper §4.2, appendability).

Replicated files can append freely; EC files cannot without parity
read-modify-write. Morph's hybrid scheme restores appendability by
deferring parity computation until a stripe is *complete*.
"""

from __future__ import annotations

from dataclasses import replace

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
        # Stage, switch, discard (§6.2): the region is written beside the
        # tail it replaces, one op publishes it, and only then do the
        # chunks the file no longer lists go — whichever record a crash
        # precedes, every listed chunk is still stored.
        keep = open_start // span
        staged = FileMeta(meta.name, 0, meta.chunk_size, meta.scheme)
        self._write_hybrid(
            staged, region, meta.scheme,
            self._placement_for(meta, open_start // self.chunk_size),
            first_stripe=keep, open_tail=True,
        )
        self.discard_chunks(
            self.namenode.relayout_file(
                name, keep, staged.stripes, staged.replica_blocks, open_start + len(region)
            )
        )
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
        tail = meta.stripes[-1]
        # Parities are durable: the open stripe's extra replica goes —
        # once the file has stopped listing it (see append_file).
        block = meta.replica_blocks[-1]
        trimmed = replace(block, copies=block.copies[: meta.scheme.copies])
        sealed = self._seal_stripe(
            meta, tail, self._placement_for(meta, meta.n_data_chunks - tail.k),
            kept=trimmed.copies,
        )
        self.discard_chunks(
            self.namenode.relayout_file(
                name, len(meta.stripes) - 1, [sealed], [trimmed], meta.size
            )
        )
        return meta
