"""Failure detection and stripe-granular reconstruction (§4.4, §6.1).

The Namenode notices dead Datanodes via heartbeats; every chunk homed on
a dead node is re-materialised on a live one. The unit of repair is the
**damaged stripe** (or replica block): everything one failure took from
it is rebuilt together — targets picked once, every source read once,
one fused ``(e, k)`` recovery for all ``e`` erased slots, data and parity
alike — following the priority order the paper gives:

* **replica lost** — copy a surviving replica of the block if one
  exists, else rebuild the span from the EC stripes' data chunks;
* **EC data chunk lost** — read the covering replica range if the file is
  hybrid, else decode from k surviving stripe chunks (an LRC-family code
  repairs a single in-group loss from its k/l group peers);
* **parity lost** — the same decode: over intact data chunks the
  recovery matrix is just the parity's generator row.

Every reconstruction is metered: reads at the sources, one network
transfer per source to the rebuilding node, a disk write per new chunk.
And every one is checked: rebuilt bytes are committed only if they carry
the sum recorded for the chunk they replace, so a rotten source can fail
a repair but never be baked into one (§6.1).
On the namenode a repaired stripe is two ops (two journal records)
however many chunks it lost: one MINT for the new ids, one PLACE that
re-homes every rebuilt chunk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.placement import home_for
from repro.dfs.blocks import ChunkMeta, ECStripeMeta, FileMeta, ReplicaBlockMeta
from repro.dfs.client import ReadError
from repro.dfs.integrity import quarantine_rotten


class RecoveryError(RuntimeError):
    """A chunk could not be reconstructed from surviving copies."""


class RecoveryManager:
    """Rebuilds chunks lost to node failures."""

    def __init__(self, fs):
        self.fs = fs
        #: sources the reconstruction in progress has read: (copy read,
        #: chunk id whose recorded sum covers the bytes, the bytes)
        self._reads: List[Tuple[ChunkMeta, str, np.ndarray]] = []

    # -- detection -------------------------------------------------------------
    def lost_chunks(
        self, declared_dead: Optional[set] = None
    ) -> List[Tuple[FileMeta, ChunkMeta]]:
        """All (file, chunk) pairs homed on dead nodes.

        ``declared_dead`` extends the physical view with the namenode's
        verdict: a node the heartbeat monitor declared dead counts as
        lost even when its process is technically alive — which is how a
        partitioned island's chunks get re-homed on the reachable side.

        Node-major via the namenode's per-node chunk index: cost scales
        with the dead nodes' populations, not the whole namespace.  The
        output keeps the historical file-major order (registration order,
        chunks within a file in layout order) so repair scheduling is
        unchanged from the full-scan implementation.
        """
        namenode = self.fs.namenode
        dead = {
            node_id
            for node_id, datanode in self.fs.datanodes.items()
            if not datanode.is_alive
        }
        if declared_dead:
            dead |= set(declared_dead)
        if not dead:
            return []
        candidates: Dict[str, None] = {}
        for node_id in sorted(dead):
            for meta, _chunk in namenode.chunks_on_node(node_id):
                candidates[meta.name] = None
        order = namenode._file_order
        out: List[Tuple[FileMeta, ChunkMeta]] = []
        for name in sorted(candidates, key=lambda n: order.get(n, 0)):
            meta = namenode.files[name]
            for chunk in meta.all_chunks():
                if chunk.node_id in dead:
                    out.append((meta, chunk))
        return out

    def recover_all(self) -> int:
        """Reconstruct every lost chunk; returns how many were rebuilt."""
        return self.recover_chunks(self.lost_chunks())

    def recover_chunks(self, pairs: List[Tuple[FileMeta, ChunkMeta]]) -> int:
        """Rebuild (file, chunk) pairs, one reconstruction per damaged
        stripe or replica block; returns how many chunks were rebuilt."""
        return sum(self._repair(*group) for group in self.damaged_groups(pairs))

    def damaged_groups(
        self, pairs: List[Tuple[FileMeta, ChunkMeta]]
    ) -> List[Tuple[FileMeta, object, List[ChunkMeta]]]:
        """``(file, stripe-or-replica-block, its chunks among pairs)`` per
        damaged redundancy group, in order of first appearance. Chunks
        are matched by identity."""
        homes: Dict[int, Dict[int, object]] = {}
        groups: Dict[int, Tuple[FileMeta, object, List[ChunkMeta]]] = {}
        for meta, chunk in pairs:
            index = homes.get(id(meta))
            if index is None:
                index = homes[id(meta)] = {
                    id(member): home
                    for home in (*meta.stripes, *meta.replica_blocks)
                    for member in _members(home)
                }
            home = index.get(id(chunk))
            if home is None:
                raise RecoveryError(
                    f"{meta.name}: {chunk.chunk_id} is not a chunk of the file"
                )
            groups.setdefault(id(home), (meta, home, []))[2].append(chunk)
        return list(groups.values())

    def recover_chunk(self, meta: FileMeta, chunk: ChunkMeta) -> str:
        """Rebuild one chunk on a fresh node; returns the new node id."""
        self.recover_chunks([(meta, chunk)])
        return chunk.node_id

    # -- one damaged stripe / replica block ----------------------------------
    def _repair(self, meta: FileMeta, home, lost: List[ChunkMeta]) -> int:
        """Plan, rebuild, check and commit the ``lost`` members of ``home``."""
        is_block = isinstance(home, ReplicaBlockMeta)
        members = _members(home)
        # Slots by identity, not the dataclass ``__eq__`` (a field-by-field
        # compare per candidate).
        erased = [
            slot for slot, m in enumerate(members) if any(m is c for c in lost)
        ]
        verify = self.fs.checksums.verify
        with self.fs.obs.span(
            "repair",
            file=meta.name,
            kind="REPLICA" if is_block else "STRIPE",
            lost=len(erased),
        ):
            # Mutually distinct targets; the first one does the rebuilding.
            targets: Dict[int, str] = {}
            while True:
                for slot in erased:
                    if slot not in targets:
                        targets[slot] = self._pick_target(
                            meta, home, slot, set(targets.values())
                        )
                rebuilder = targets[erased[0]]
                self._reads = []
                if is_block:
                    span = self._block_bytes(meta, home, erased, rebuilder)
                    rebuilt = {slot: span[: members[slot].size] for slot in erased}
                else:
                    rebuilt = self._stripe_bytes(meta, home, erased, rebuilder)
                # The one CRC pass a repair pays per chunk proves the
                # rebuilt bytes are the lost ones.
                if all(verify(members[slot].chunk_id, rebuilt[slot]) for slot in erased):
                    break
                erased = erased + self._quarantine_rotten_sources(meta, members, erased)
            # Each rebuilt (and verified) chunk keeps the sum of the one it
            # replaces. The rebuilder writes its own chunk locally; every
            # other target receives its chunk from the rebuilder.
            self.fs.rehome_chunks(
                meta,
                [(members[slot], node, rebuilt[slot]) for slot, node in targets.items()],
                src=rebuilder,
                label="recovered",
            )
        return len(erased)

    def _quarantine_rotten_sources(
        self, meta: FileMeta, members: List[ChunkMeta], erased: List[int]
    ) -> List[int]:
        """Rebuilt bytes failed their check, so a source is rotten:
        quarantine the rotten among those read and return the ones that
        are slots of the group under repair, which join its erased set
        for the redo."""
        rotten = quarantine_rotten(self.fs, self._reads)
        if not rotten:
            raise RecoveryError(
                f"{meta.name}: rebuilt bytes fail their checksum though every "
                "source passes its own"
            )
        return [
            slot
            for slot, m in enumerate(members)
            if slot not in erased and any(m is copy for copy in rotten)
        ]

    def _pick_target(self, meta: FileMeta, home, slot: int, chosen: set) -> str:
        """Where the rebuilt ``slot`` of the group ``home`` goes.

        Never on a node of its hybrid block (:meth:`FileMeta.hybrid_blocks`),
        of a final stripe a transcode staged it in, nor on a target
        already ``chosen`` for it: one node lost must not
        cost the block two sources. A stripe's parity goes where the file's placement
        ``reserved`` it — by its k*-window's other parities of its index —
        so a later merge stays server-local; the first rebuilt picks the
        node the rest follow. Else a node holding none of the file, else
        fewest, ties in cluster order (:func:`home_for`). Only a cluster
        with no such node live reuses one."""
        chunk = _members(home)[slot]
        occupied = chosen | {
            c.node_id for group in meta.hybrid_blocks(home) for c in group.chunks() if c is not chunk
        }
        # Mid-transcode, a data chunk is also a member of the final
        # stripe its job staged: the switch publishes that one as is.
        job = self.fs.namenode.utm.get(meta.name)
        for staged in () if job is None else job.new_stripes.values():
            if any(c is chunk for c in staged.data):
                occupied.update(c.node_id for c in staged.all_chunks() if c is not chunk)
        held = [c.node_id for c in meta.all_chunks() if c is not chunk]
        prefer: List[str] = []
        if not isinstance(home, ReplicaBlockMeta) and slot >= home.k:
            first = meta.first_data_index(home)
            prefer = self.fs._placement_for(meta, first, first + home.k).reserved(
                meta.name, first, slot - home.k
            )
        # Only namenode-reachable nodes accept rebuilt chunks: a node on
        # the minority side of a partition can't be commanded anyway.
        return home_for(self.fs.datanodes, self.fs.commandable, occupied, held, prefer)

    # -- sources ---------------------------------------------------------------
    def _stripe_bytes(
        self, meta: FileMeta, stripe: ECStripeMeta, erased: List[int], dst: str
    ) -> Dict[int, np.ndarray]:
        """Bytes of the ``erased`` slots of one stripe, rebuilt at ``dst``
        with every source read once (:meth:`_BaseDFS.rebuild_slots`) and
        remembered."""
        try:
            read, rebuilt = self.fs.rebuild_slots(meta, stripe, erased, dst)
        except ReadError as exc:
            raise RecoveryError(
                f"{meta.name}: stripe {stripe.stripe_index} beyond repair"
            ) from exc
        self._reads.extend(read)
        return rebuilt

    def _block_bytes(
        self, meta: FileMeta, block: ReplicaBlockMeta, lost: List[int], dst: str
    ) -> np.ndarray:
        """The block's span: a surviving copy, else its stripes' data."""
        for slot, copy in enumerate(block.copies):
            if slot not in lost:
                data = self._fetch(copy, dst)
                if data is not None:
                    return data
        pieces: List[np.ndarray] = []
        for group in meta.hybrid_blocks(block):
            stripe, wanted = group.stripe, group.covered(block)
            if stripe is None:
                continue
            got = {idx: self._fetch(stripe.data[idx], dst) for idx in wanted}
            missing = [idx for idx in wanted if got[idx] is None]
            if missing:
                got.update(self._stripe_bytes(meta, stripe, missing, dst))
            pieces.extend(got[idx] for idx in wanted)
        if not pieces:
            raise RecoveryError(f"{meta.name}: block {block.block_index} has no source")
        return np.concatenate(pieces)

    def _fetch(self, src: ChunkMeta, target: str) -> Optional[np.ndarray]:
        """A whole listed copy, read for ``target`` and remembered."""
        data = self.fs.fetch_chunk(src, target)
        if data is not None:
            self._reads.append((src, src.chunk_id, data))
        return data


def _members(home) -> List[ChunkMeta]:
    """Chunks of a repair group, in slot order."""
    return home.copies if isinstance(home, ReplicaBlockMeta) else home.all_chunks()

