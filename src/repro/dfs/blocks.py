"""System block metadata (paper §6.1).

A file is a list of blocks. A *hybrid block* is a single metadata entity
nesting one EC stripe and its replica blocks — keeping it one entity is
what makes the hybrid -> EC transition a pure metadata change (drop the
replica list) and makes it the one protection group recovery asks about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.schemes import RedundancyScheme


class ChunkKind(enum.Enum):
    DATA = "data"
    PARITY = "parity"
    LOCAL_PARITY = "local_parity"
    GLOBAL_PARITY = "global_parity"
    REPLICA = "replica"


class FileState(enum.Enum):
    HEALTHY = "healthy"
    TRANSCODING = "transcoding"


@dataclass
class ChunkMeta:
    """One stored chunk: where it lives and what role it plays."""

    chunk_id: str
    node_id: str
    kind: ChunkKind
    size: int

    def __hash__(self):
        return hash(self.chunk_id)


@dataclass
class ECStripeMeta:
    """One EC stripe: k data chunks + parity chunks, in stripe order."""

    stripe_index: int
    k: int
    n: int
    data: List[ChunkMeta] = field(default_factory=list)
    parities: List[ChunkMeta] = field(default_factory=list)

    def all_chunks(self) -> List[ChunkMeta]:
        return self.data + self.parities

    def node_ids(self) -> List[str]:
        return [c.node_id for c in self.all_chunks()]


@dataclass
class ReplicaBlockMeta:
    """One replicated block: identical copies of a span of file data."""

    block_index: int
    #: first data-chunk index the block covers, and how many chunks
    first_chunk: int
    n_chunks: int
    copies: List[ChunkMeta] = field(default_factory=list)


@dataclass
class HybridBlockMeta:
    """Hybrid block (§6.1), the file's one protection group: an EC stripe
    with every replica block covering its data, or a replica block no
    stripe covers, alone (``stripe`` None)."""

    stripe: Optional[ECStripeMeta]
    replicas: List[ReplicaBlockMeta]
    #: file-wide index of the group's first data chunk, and its data slots
    first: int
    k: int

    def covered(self, block: ReplicaBlockMeta) -> range:
        """The group's data slots ``block`` repeats."""
        start = block.first_chunk - self.first
        return range(max(0, start), min(self.k, start + block.n_chunks))

    def sources(self) -> Iterator[Tuple[ChunkMeta, Sequence[int]]]:
        """Each chunk holding the group's data, with the slots whose rows
        it brings: a stripe chunk its own, a replica copy those it repeats."""
        if self.stripe is not None:
            for slot, chunk in enumerate(self.stripe.all_chunks()):
                yield chunk, (slot,)
        for block in self.replicas:
            for copy in block.copies:
                yield copy, self.covered(block)

    def chunks(self) -> List[ChunkMeta]:
        """The sources without their slots: stripe chunks, then copies."""
        chunks = self.stripe.all_chunks() if self.stripe is not None else []
        return chunks + [copy for block in self.replicas for copy in block.copies]

    def slots(self, keep: Callable[[ChunkMeta], bool]) -> Set[int]:
        """The slots the sources ``keep`` lets through bring."""
        return {slot for chunk, slots in self.sources() if keep(chunk) for slot in slots}


@dataclass
class FileMeta:
    """Namespace entry: scheme, layout and transcode state of one file."""

    name: str
    size: int
    chunk_size: int
    scheme: RedundancyScheme
    #: EC stripes in file order (empty for pure replication)
    stripes: List[ECStripeMeta] = field(default_factory=list)
    #: replica blocks in file order (empty for pure EC)
    replica_blocks: List[ReplicaBlockMeta] = field(default_factory=list)
    state: FileState = FileState.HEALTHY
    #: monotonically bumped on each completed transcode (metadata epoch)
    version: int = 0

    @property
    def is_hybrid(self) -> bool:
        return bool(self.stripes) and bool(self.replica_blocks)

    @property
    def n_data_chunks(self) -> int:
        if self.stripes:
            return sum(s.k for s in self.stripes)
        return sum(b.n_chunks for b in self.replica_blocks)

    # -- layout arithmetic: which stripe / replica block holds data chunk i --
    def stripe_spans(self) -> Iterator[Tuple[int, ECStripeMeta]]:
        """``(file-wide index of its first data chunk, stripe)`` in file
        order — the one walk: stripes may differ in width."""
        first = 0
        for stripe in self.stripes:
            yield first, stripe
            first += stripe.k

    def first_data_index(self, stripe: ECStripeMeta) -> int:
        """File-wide index of the first data chunk of ``stripe`` (found by
        identity: stripe indices are renumbered by a transcode)."""
        for first, candidate in self.stripe_spans():
            if candidate is stripe:
                return first
        raise ValueError(f"{self.name}: stripe {stripe.stripe_index} is not in the file")

    def stripe_of(self, chunk_index: int) -> Tuple[ECStripeMeta, int]:
        """The stripe holding data chunk ``chunk_index`` and the chunk's
        slot in it."""
        for first, stripe in self.stripe_spans():
            if chunk_index < first + stripe.k:
                return stripe, chunk_index - first
        raise IndexError(f"{self.name}: data chunk {chunk_index} beyond file")

    def block_covering(self, chunk_index: int) -> Optional[ReplicaBlockMeta]:
        """The replica block repeating data chunk ``chunk_index``, if any."""
        for block in self.replica_blocks:
            if block.first_chunk <= chunk_index < block.first_chunk + block.n_chunks:
                return block
        return None

    def blocks_under(self, n_stripes: int) -> int:
        """How many replica blocks — the leading ones — repeat data of
        the first ``n_stripes`` stripes."""
        end = sum(stripe.k for stripe in self.stripes[:n_stripes])
        return sum(block.first_chunk < end for block in self.replica_blocks)

    def hybrid_blocks(self, member=None) -> List[HybridBlockMeta]:
        """The file's protection groups — each stripe with the replica
        blocks covering it, then each block no stripe covers — or those
        ``member`` (a stripe, block or chunk) is part of, by identity."""
        groups, paired = [], set()
        for first, stripe in self.stripe_spans():
            covering = [
                b for b in self.replica_blocks
                if b.first_chunk < first + stripe.k and first < b.first_chunk + b.n_chunks
            ]
            paired.update(map(id, covering))
            groups.append(HybridBlockMeta(stripe, covering, first, stripe.k))
        groups.extend(
            HybridBlockMeta(None, [block], block.first_chunk, block.n_chunks)
            for block in self.replica_blocks if id(block) not in paired
        )
        return [
            group for group in groups
            if member is None or member is group.stripe
            or any(member is part for part in (*group.replicas, *group.chunks()))
        ]

    def chunk_by_id(self, chunk_id: str) -> Optional[ChunkMeta]:
        for stripe in self.stripes:
            for chunk in stripe.all_chunks():
                if chunk.chunk_id == chunk_id:
                    return chunk
        for block in self.replica_blocks:
            for chunk in block.copies:
                if chunk.chunk_id == chunk_id:
                    return chunk
        return None

    def all_chunks(self) -> List[ChunkMeta]:
        out: List[ChunkMeta] = []
        for stripe in self.stripes:
            out.extend(stripe.all_chunks())
        for block in self.replica_blocks:
            out.extend(block.copies)
        return out
