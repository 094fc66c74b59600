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
work unchanged.  Its public mutators *are* ``Namenode``'s — each builds
an op — and :meth:`ShardedNamenode.apply` is the router:

* an op goes, whole, to the shard its key hashes to, except two: a
  batch registration is bucketed per shard (every bucket validated
  before any is applied), and a cross-shard rename registers under the
  new name first (with its transcode job and staged stripes, if any)
  and then unregisters the old one, so a crash between the two journals
  leaves a duplicate, never a loss;
* fan-outs merge deterministically: ``chunks_on_node`` concatenates
  per-shard results in shard order (shard order is itself deterministic
  because routing is);
* ``files`` and ``utm`` are read-only mapping views (lookups route,
  iteration chains shards in order), and ``_file_order`` yields
  globally comparable ``(shard_local_seq, shard_index)`` keys so
  recovery's order-preserving re-sort keeps working.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple
from zlib import crc32

from repro.dfs.blocks import ChunkMeta, FileMeta, FileState
from repro.dfs.journal import Journal, JournaledNamenode
from repro.dfs.namenode import (
    Enqueue,
    FileNotFoundError_,
    Namenode,
    NewStripe,
    Register,
    RegisterBatch,
    Rename,
    Unregister,
)


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

    def __init__(self, n_shards: int = 4, shards: Optional[Iterable[Namenode]] = None):
        if shards is not None:
            self.shards: List[Namenode] = list(shards)
        else:
            self.shards = [Namenode() for _ in range(n_shards)]
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

    def apply(self, op):
        """Route one op to the shard that owns its key."""
        kind = type(op)
        if kind is RegisterBatch:
            return self._register_batch(op.metas)
        n = self.n_shards
        if kind is Rename and crc32(op.old.encode()) % n != crc32(op.new.encode()) % n:
            return self._rename_across(op.old, op.new)
        key = op.meta.name if kind is Register else op[0]
        return self.shards[crc32(key.encode()) % n].apply(op)

    def _register_batch(self, metas: List[FileMeta]) -> None:
        n = self.n_shards
        buckets: List[List[FileMeta]] = [[] for _ in range(n)]
        for meta in metas:
            buckets[crc32(meta.name.encode()) % n].append(meta)
        # All or nothing across shards: a bucket one shard would reject
        # must not leave the earlier shards' buckets registered.
        for shard, bucket in zip(self.shards, buckets):
            shard._check_new(bucket)
        for shard, bucket in zip(self.shards, buckets):
            if bucket:
                shard.apply(RegisterBatch(bucket))

    def _rename_across(self, old: str, new: str) -> None:
        src, dst = self.shard_for(old), self.shard_for(new)
        meta = src.files.get(old)
        if meta is None:
            raise FileNotFoundError_(old)
        if new in dst.files:
            raise ValueError(f"file exists: {new}")
        # Register under the new name before dropping the old one: a
        # crash between the two shard journals leaves a (self-healing)
        # duplicate entry rather than losing the file.  An in-flight
        # transcode follows its file, staged stripes and all, as on a
        # same-shard rename: the destination journals the file HEALTHY,
        # then its job, then each staged stripe.
        job = src.utm.get(old)
        meta.name, meta.state = new, FileState.HEALTHY
        dst.apply(Register(meta))
        if job is not None:
            groups = [replace(group, file_name=new) for group in job.groups]
            dst.apply(Enqueue(new, job.target_scheme, groups, job.deadline))
            for (group_index, final_idx), stripe in job.new_stripes.items():
                dst.apply(NewStripe(new, group_index, final_idx, stripe))
        src.apply(Unregister(old))

    # The public mutators are Namenode's own definitions (not copies, not
    # forwarders): they only build an op and call ``self.apply``.
    register_file = Namenode.register_file
    register_files = Namenode.register_files
    unregister_file = Namenode.unregister_file
    rename = Namenode.rename
    next_chunk_id = Namenode.next_chunk_id
    next_chunk_ids = Namenode.next_chunk_ids
    note_chunk = Namenode.note_chunk
    place_chunks = Namenode.place_chunks
    relayout_file = Namenode.relayout_file
    drop_replicas = Namenode.drop_replicas
    enqueue_transcode = Namenode.enqueue_transcode
    record_new_stripe = Namenode.record_new_stripe
    try_finalize = Namenode.try_finalize

    # -- reads ----------------------------------------------------------------
    def lookup(self, name: str) -> FileMeta:
        return self.shards[crc32(name.encode()) % self.n_shards].lookup(name)

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

    listed_chunks = Namenode.listed_chunks

    # -- persistence ------------------------------------------------------------
    def compact(self) -> None:
        for shard in self.shards:
            if isinstance(shard, JournaledNamenode):
                shard.compact()

    # -- stats ------------------------------------------------------------------
    def metadata_stats(self) -> Dict[str, Any]:
        shards = [s.metadata_stats() for s in self.shards]
        # Every per-shard stat is an additive count (namespace sizes,
        # and for journaled shards the journal/compaction ledger).
        total: Dict[str, Any] = {"files": 0, "chunks": 0, "utm": 0}
        for s in shards:
            for key, value in s.items():
                total[key] = total.get(key, 0) + value
        total["shards"] = shards
        return total
