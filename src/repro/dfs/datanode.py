"""Datanode: chunk storage with a battery-backed buffer cache.

A chunk received into memory is durable (battery-backed RAM, §4.2) but
costs no disk IO until persisted. Morph's hybrid write protocol exploits
exactly this: temporary replicas live in memory and are deleted once the
stripe's parities persist, so in the common case they never touch disk.

Stored bytes are immutable. A store keeps the array it is handed —
read-only, never copied — so whoever hands one over hands it over for
good: the filesystem's private snapshot of what the client wrote (and
views of it), a codec's output, another datanode's stored array. Chunks
may therefore share a buffer; the sizes reported are logical bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple, Union

import numpy as np

from repro.cluster.metrics import IOMetrics
from repro.cluster.topology import Node


#: a datanode's battery-backed buffer cache
BUFFER_CACHE_BYTES = 512 * 1024 * 1024


class ChunkNotFoundError(KeyError):
    """Requested chunk is on neither disk nor memory of this node."""


class BufferCacheFullError(RuntimeError):
    """The battery-backed buffer cache cannot absorb another chunk."""


class Datanode:
    """One storage server: disk map + bounded buffer cache + counters.

    Up/down state is the cluster :class:`Node`'s: failing the node through
    the cluster, the failure injector or :meth:`fail` is the same event.
    Given a bare id, the datanode stands alone on a private node.
    """

    def __init__(self, node: Union[Node, str], metrics: IOMetrics):
        self.node = node if isinstance(node, Node) else Node(node, rack=0)
        self.node_id = self.node.node_id
        self.metrics = metrics
        self._disk: Dict[str, np.ndarray] = {}
        self._memory: Dict[str, np.ndarray] = {}

    @property
    def is_alive(self) -> bool:
        return self.node.is_alive

    @staticmethod
    def _kept(data: np.ndarray) -> np.ndarray:
        """The array as the store keeps it: bytes, read-only — the one
        step every store shares. The sender's own reference is frozen
        too, so a producer that reuses a buffer it handed over fails
        loudly instead of rewriting a stored chunk."""
        data = np.asarray(data, dtype=np.uint8)
        data.setflags(write=False)
        return data

    # -- ingest ---------------------------------------------------------------
    def receive_to_memory(self, chunk_id: str, data: np.ndarray, src: str) -> None:
        """Absorb a chunk into the buffer cache (durable, no disk IO)."""
        data = self._kept(data)
        in_use = self.metrics.node(self.node_id).memory_in_use_bytes
        if in_use + data.nbytes > BUFFER_CACHE_BYTES:
            raise BufferCacheFullError(
                f"{self.node_id}: buffer cache full ({in_use} + {data.nbytes})"
            )
        self.metrics.record_transfer(src, self.node_id, data.nbytes)
        self.metrics.node(self.node_id).use_memory(data.nbytes)
        self._memory[chunk_id] = data

    def receive_to_disk(self, chunk_id: str, data: np.ndarray, src: str) -> None:
        """Receive and write through to disk (one network + one disk write)."""
        data = self._kept(data)
        self.metrics.record_transfer(src, self.node_id, data.nbytes)
        self.metrics.record_disk_write(self.node_id, data.nbytes)
        self._disk[chunk_id] = data

    def receive_many_to_disk(self, items: Iterable[Tuple[str, np.ndarray]], src: str) -> None:
        """Receive a batch of chunks from one sender in a single call.

        Metering is per chunk (one network transfer + one disk write
        each), identical to calling :meth:`receive_to_disk` in a loop.
        """
        for chunk_id, data in items:
            self.receive_to_disk(chunk_id, data, src)

    def persist(self, chunk_id: str) -> None:
        """Flush a buffered chunk to disk (frees the cache slot)."""
        if chunk_id not in self._memory:
            if chunk_id in self._disk:
                return  # already persisted
            raise ChunkNotFoundError(chunk_id)
        data = self._memory.pop(chunk_id)
        self.metrics.node(self.node_id).free_memory(data.nbytes)
        self.metrics.record_disk_write(self.node_id, data.nbytes)
        self._disk[chunk_id] = data

    def drop_from_memory(self, chunk_id: str) -> None:
        """Discard a buffered chunk without any disk IO (temp replicas)."""
        data = self._memory.pop(chunk_id, None)
        if data is not None:
            self.metrics.node(self.node_id).free_memory(data.nbytes)

    # -- reads ----------------------------------------------------------------
    def read(self, chunk_id: str) -> np.ndarray:
        """Read a chunk; disk reads are metered, memory hits are free.

        The result is the stored array itself: read-only, and shared
        with every other reader (and any chunk stored from the same
        buffer). Copy it to change it."""
        if not self.node.is_alive:
            raise ChunkNotFoundError(f"{self.node_id} is down")
        if chunk_id in self._memory:
            return self._memory[chunk_id]
        if chunk_id in self._disk:
            data = self._disk[chunk_id]
            self.metrics.record_disk_read(self.node_id, data.nbytes)
            return data
        raise ChunkNotFoundError(chunk_id)

    def read_range(self, chunk_id: str, start: int, length: int) -> np.ndarray:
        """Partial chunk read (metered at the requested length): a
        read-only view of the stored array, shared like :meth:`read`'s."""
        if not self.node.is_alive:
            raise ChunkNotFoundError(f"{self.node_id} is down")
        if chunk_id in self._memory:
            return self._memory[chunk_id][start : start + length]
        if chunk_id in self._disk:
            self.metrics.record_disk_read(self.node_id, float(length))
            return self._disk[chunk_id][start : start + length]
        raise ChunkNotFoundError(chunk_id)

    def held(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Every ``(chunk id, stored array)`` on disk, then in the buffer
        cache — up or down, and metering nothing: what an auditor sees,
        not what a reader is served."""
        yield from self._disk.items()
        yield from self._memory.items()

    def has_chunk(self, chunk_id: str) -> bool:
        return chunk_id in self._disk or chunk_id in self._memory

    def chunk_on_disk(self, chunk_id: str) -> bool:
        return chunk_id in self._disk

    # -- local compute ----------------------------------------------------------
    def store_local(self, chunk_id: str, data: np.ndarray) -> None:
        """Write a locally computed chunk to disk (no network)."""
        data = self._kept(data)
        self.metrics.record_disk_write(self.node_id, data.nbytes)
        self._disk[chunk_id] = data

    def store_local_many(self, items: Iterable[Tuple[str, np.ndarray]]) -> None:
        """Write a batch of locally computed chunks (per-chunk metering)."""
        for chunk_id, data in items:
            self.store_local(chunk_id, data)

    # -- deletion / capacity ------------------------------------------------------
    def delete(self, chunk_id: str) -> None:
        data = self._disk.pop(chunk_id, None)
        if data is not None:
            self.metrics.record_disk_delete(self.node_id, data.nbytes)
        self.drop_from_memory(chunk_id)

    def bytes_at_rest(self) -> float:
        """Logical bytes on disk: chunks sharing a buffer each count."""
        return float(sum(c.nbytes for c in self._disk.values()))

    def memory_bytes(self) -> float:
        """Logical bytes buffered (see :meth:`bytes_at_rest`)."""
        return float(sum(c.nbytes for c in self._memory.values()))

    def fail(self) -> None:
        """Crash the node: disk survives but is unreachable; memory is lost
        only conceptually (battery-backed) — we keep it for restart."""
        self.node.fail()

    def recover(self) -> None:
        self.node.recover()
