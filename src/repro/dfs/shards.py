"""ShardedNamenode: hash-partitioned namespace behind the Namenode API.

One in-memory :class:`~repro.dfs.namenode.Namenode` is the scaling wall
for a million-file namespace.  This facade partitions the namespace
across N shards by ``crc32(file_name) % N`` — deterministic across
processes (never builtin ``hash``, which is salted per process), which
matters because each shard owns its own journal and a recovered system
must route every name to the shard whose journal holds its records.
Chunk-id mints route by ``crc32(prefix)``: the prefix is embedded in the
minted id, so per-shard sequences can overlap without ever colliding.

The facade exposes the existing Namenode surface, so ``filesystem.py``,
``recovery.py``, ``transcoder.py``, ``heartbeat.py`` and ``appends.py``
work unchanged:

* name-routed ops (register/lookup/rename/transcode lifecycle) go to
  one shard; a cross-shard rename registers under the new name first,
  then unregisters the old one, so a crash between the two journals
  leaves a duplicate, never a loss;
* fan-out ops merge deterministically: ``chunks_on_node`` and
  ``poll_work`` concatenate per-shard results in shard order (shard
  order is itself deterministic because routing is);
* ``files`` and ``utm`` are read-only mapping views (lookups route,
  iteration chains shards in order), and ``_file_order`` yields
  globally comparable ``(shard_local_seq, shard_index)`` keys so
  recovery's order-preserving re-sort keeps working.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple
from zlib import crc32

from repro.dfs.blocks import ChunkMeta, FileMeta, FileState
from repro.dfs.journal import Journal, JournaledNamenode
from repro.dfs.namenode import ConversionGroup, Namenode, TranscodeJob


class _NameRoutedView(Mapping):
    """Read-only mapping over a dict attribute of every shard.

    ``view[name]`` routes to the owning shard; iteration chains shards
    in shard order (deterministic).  Mapping supplies ``get``, ``in``,
    ``keys/values/items`` on top.
    """

    __slots__ = ("_owner", "_attr")

    def __init__(self, owner: "ShardedNamenode", attr: str):
        self._owner = owner
        self._attr = attr

    def __getitem__(self, name: str):
        owner = self._owner
        shard = owner.shards[crc32(name.encode()) % owner.n_shards]
        return getattr(shard, self._attr)[name]

    def __iter__(self) -> Iterator[str]:
        for shard in self._owner.shards:
            yield from getattr(shard, self._attr)

    def __len__(self) -> int:
        return sum(len(getattr(s, self._attr)) for s in self._owner.shards)


class _ShardedOrderView:
    """Registration-order keys that compare across shards.

    Each entry is ``(shard_local_seq, shard_index)`` — unique, and
    consistent with every shard's own registration order.  Consumers
    (``recovery.lost_chunks``) only use it as a sort key.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "ShardedNamenode"):
        self._owner = owner

    def __getitem__(self, name: str) -> Tuple[int, int]:
        owner = self._owner
        idx = crc32(name.encode()) % owner.n_shards
        return (owner.shards[idx]._file_order[name], idx)

    def get(self, name: str, default=None):
        owner = self._owner
        idx = crc32(name.encode()) % owner.n_shards
        seq = owner.shards[idx]._file_order.get(name)
        return default if seq is None else (seq, idx)

    def __contains__(self, name: str) -> bool:
        owner = self._owner
        return name in owner.shards[crc32(name.encode()) % owner.n_shards]._file_order

    def __len__(self) -> int:
        return sum(len(s._file_order) for s in self._owner.shards)


class ShardedNamenode:
    """Hash-partitioned namespace over N Namenode shards."""

    def __init__(self, n_shards: int = 4, shards: Optional[Iterable[Namenode]] = None,
                 shard_factory=None):
        if shards is not None:
            self.shards: List[Namenode] = list(shards)
        else:
            factory = shard_factory or (lambda i: Namenode())
            self.shards = [factory(i) for i in range(n_shards)]
        if not self.shards:
            raise ValueError("need at least one shard")
        self.n_shards = len(self.shards)
        self.files = _NameRoutedView(self, "files")
        self.utm = _NameRoutedView(self, "utm")
        self._file_order = _ShardedOrderView(self)

    @classmethod
    def journaled(cls, n_shards: int = 4, journals: Optional[List[Journal]] = None,
                  compact_every: int = 0) -> "ShardedNamenode":
        """N shards, each a JournaledNamenode with its own journal."""
        if journals is None:
            journals = [Journal() for _ in range(n_shards)]
        return cls(shards=[
            JournaledNamenode(journal=j, compact_every=compact_every)
            for j in journals
        ])

    @classmethod
    def recover(cls, journals: List[Journal],
                compact_every: int = 0) -> "ShardedNamenode":
        """Rebuild every shard from its journal (post-crash)."""
        return cls(shards=[
            JournaledNamenode.recover(j, compact_every=compact_every)
            for j in journals
        ])

    # -- routing --------------------------------------------------------------
    def shard_index(self, name: str) -> int:
        return crc32(name.encode()) % self.n_shards

    def shard_for(self, name: str) -> Namenode:
        return self.shards[crc32(name.encode()) % self.n_shards]

    # -- namespace ------------------------------------------------------------
    def register_file(self, meta: FileMeta) -> None:
        self.shards[crc32(meta.name.encode()) % self.n_shards].register_file(meta)

    def register_files(self, metas: Iterable[FileMeta]) -> None:
        buckets: List[List[FileMeta]] = [[] for _ in range(self.n_shards)]
        n = self.n_shards
        for meta in metas:
            buckets[crc32(meta.name.encode()) % n].append(meta)
        for shard, bucket in zip(self.shards, buckets):
            if bucket:
                shard.register_files(bucket)

    def lookup(self, name: str) -> FileMeta:
        return self.shards[crc32(name.encode()) % self.n_shards].lookup(name)

    def unregister_file(self, name: str) -> FileMeta:
        return self.shards[crc32(name.encode()) % self.n_shards].unregister_file(name)

    def rename(self, old: str, new: str) -> None:
        src_i = crc32(old.encode()) % self.n_shards
        dst_i = crc32(new.encode()) % self.n_shards
        if src_i == dst_i:
            self.shards[src_i].rename(old, new)
            return
        src, dst = self.shards[src_i], self.shards[dst_i]
        meta = src.files[old]
        # Register under the new name before dropping the old one: a
        # crash between the two shard journals leaves a (self-healing)
        # duplicate entry rather than losing the file.  The rename drops
        # an in-flight transcode (unregister_file below), so the
        # destination registers — and journals — the file HEALTHY.
        state = meta.state
        meta.name, meta.state = new, FileState.HEALTHY
        try:
            dst.register_file(meta)
        except Exception:
            meta.name, meta.state = old, state
            raise
        src.unregister_file(old)

    def next_chunk_id(self, prefix: str) -> str:
        return self.shards[crc32(prefix.encode()) % self.n_shards].next_chunk_id(prefix)

    def next_chunk_ids(self, prefix: str, count: int) -> List[str]:
        return self.shards[crc32(prefix.encode()) % self.n_shards].next_chunk_ids(
            prefix, count
        )

    # -- per-node chunk index --------------------------------------------------
    def note_chunk(self, node_id: str, file_name: str) -> None:
        self.shards[crc32(file_name.encode()) % self.n_shards].note_chunk(
            node_id, file_name
        )

    def note_file(self, meta: FileMeta) -> None:
        self.shards[crc32(meta.name.encode()) % self.n_shards].note_file(meta)

    def chunks_on_node(self, node_id: str) -> List[Tuple[FileMeta, ChunkMeta]]:
        """Fan out to every shard; concatenate in shard order (the
        deterministic merge rule — consumers that need a global file
        order re-sort via ``_file_order`` keys, as recovery does)."""
        out: List[Tuple[FileMeta, ChunkMeta]] = []
        for shard in self.shards:
            found = shard.chunks_on_node(node_id)
            if found:
                out.extend(found)
        return out

    # -- transcode lifecycle ---------------------------------------------------
    @property
    def atq(self) -> List[ConversionGroup]:
        """Combined awaiting-transcoding queue (read-only snapshot)."""
        out: List[ConversionGroup] = []
        for shard in self.shards:
            out.extend(shard.atq)
        return out

    def enqueue_transcode(self, name: str, target_scheme, groups,
                          parities_per_final_stripe,
                          deadline: Optional[float] = None) -> TranscodeJob:
        return self.shard_for(name).enqueue_transcode(
            name, target_scheme, groups, parities_per_final_stripe, deadline
        )

    def poll_work(self, max_items: int = 8) -> List[ConversionGroup]:
        out: List[ConversionGroup] = []
        for shard in self.shards:
            if len(out) >= max_items:
                break
            out.extend(shard.poll_work(max_items - len(out)))
        return out

    def poll_work_for(self, name: str, max_items: int = 8) -> List[ConversionGroup]:
        return self.shard_for(name).poll_work_for(name, max_items)

    def complete_parity(self, name, group_index, final_idx, parity_j,
                        parities_per_final_stripe) -> None:
        self.shard_for(name).complete_parity(
            name, group_index, final_idx, parity_j, parities_per_final_stripe
        )

    def record_new_stripe(self, name, group_index, final_idx, stripe) -> None:
        self.shard_for(name).record_new_stripe(name, group_index, final_idx, stripe)

    def try_finalize(self, name: str) -> Optional[List[ChunkMeta]]:
        return self.shard_for(name).try_finalize(name)

    def abort_transcode(self, name: str) -> None:
        self.shard_for(name).abort_transcode(name)

    # -- persistence ------------------------------------------------------------
    def snapshot(self, include_transcode: bool = False) -> dict:
        return {
            "n_shards": self.n_shards,
            "shards": [s.snapshot(include_transcode) for s in self.shards],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "ShardedNamenode":
        return cls(shards=[Namenode.restore(sub) for sub in snapshot["shards"]])

    def compact(self) -> None:
        for shard in self.shards:
            compact = getattr(shard, "compact", None)
            if compact is not None:
                compact()

    # -- stats ------------------------------------------------------------------
    def metadata_stats(self) -> Dict[str, Any]:
        shards = [s.metadata_stats() for s in self.shards]
        # Every per-shard stat is an additive count (namespace sizes,
        # and for journaled shards the journal/compaction ledger).
        total: Dict[str, Any] = {"files": 0, "chunks": 0, "atq": 0, "utm": 0}
        for s in shards:
            for key, value in s.items():
                total[key] = total.get(key, 0) + value
        total["shards"] = shards
        return total
