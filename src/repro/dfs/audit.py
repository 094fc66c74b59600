"""Is this filesystem whole? One audit of every invariant the DFS keeps.

:func:`audit` takes a filesystem and returns what is wrong with it, as a
list of :class:`Violation` — empty when it is whole.  It reads; it moves
no counter, meters no byte and changes no state, so it can run after any
operation, at any journal-record boundary, at the end of a scenario.

What it checks, by ``kind``:

``index``
    on every shard, the per-node chunk index answers exactly what a full
    namespace scan does (:func:`full_scan`) — the same pairs, objects and
    order; no entry names an unregistered file; a lone chunk is stored
    bare; and asking changed nothing.
``journal``
    on every journaled shard, every record of its journal replays into a
    plain namenode, and the result equals live state (its index must be
    exact too).
``queue``
    every UTM job names a registered file.
``owner``
    every chunk id the namenode answers for is listed by exactly one
    registered file — a staged stripe counts as its job's file.
    (:meth:`~repro.dfs.namenode.Namenode.listed_chunks` keys a dict by
    id, so a chunk two files list shows up there once.)
``sums``
    the checksum registry holds a sum for exactly the chunks the namenode
    answers for (:meth:`~repro.dfs.namenode.Namenode.listed_chunks`):
    those listed by registered files, plus the staged stripes of any
    transcode in flight.
``bytes``
    every array a datanode holds, on disk or buffered, up or down, is
    read-only and carries the sum recorded for its id.
``capacity``
    the metrics ledger (disk bytes written − deleted) equals the bytes at
    rest (:meth:`~repro.dfs.filesystem._BaseDFS.capacity_check`), and each
    node's memory ledger the bytes in its buffer cache.
``unlisted``
    no reachable node holds a chunk the namenode does not list there —
    the rule by which a returning node drops what it holds.
``missing``
    every listed chunk is held by the node it is listed on.
``layout``
    a file's layout is its scheme's: every stripe of a hybrid file is
    covered by at least ``copies`` replica copies, slot by slot; an EC
    file lists no replica block; a replicated file lists no stripe.
``colocated``
    no hybrid block (a current stripe with the replica copies covering
    it, or a lone replica block) has two sources on one node.
``parity``
    every current stripe stores as many parities as its code makes, and
    they are the encode of its stored data (stripes with a ``missing``
    or ``bytes`` chunk, or of a replicated file, are reported under those
    kinds and ``layout`` instead).

:func:`audit_namenode` is the namenode-only part (``index``, ``journal``,
``queue``, ``owner``) — for a control plane with no datanodes.  The k*-window
promise is not here: breaking it costs a relocation, not bytes.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.cluster.partition import NAMENODE
from repro.core.schemes import ECScheme, HybridScheme, Replication
from repro.dfs.blocks import ChunkMeta, FileMeta
from repro.dfs.journal import JournaledNamenode, replay, state_digest
from repro.dfs.namenode import Namenode, index_entries
from repro.obs.codec import CODEC_STATS

#: every kind a violation can be, in the order :func:`audit` checks them
KINDS = (
    "index", "journal", "queue", "owner", "sums", "bytes", "capacity", "unlisted",
    "missing", "layout", "colocated", "parity",
)


class Violation(NamedTuple):
    """One thing wrong: its ``kind`` (one of :data:`KINDS`), the node,
    chunk, file, stripe or shard it is about, and what was found."""

    kind: str
    subject: str
    detail: str


def full_scan(namenode, node_id: str) -> List[Tuple[FileMeta, ChunkMeta]]:
    """``chunks_on_node`` the slow way: every chunk of every file, files
    in registration order, a file's chunks in layout order."""
    return [
        (meta, chunk)
        for meta in namenode.files.values()
        for chunk in meta.all_chunks()
        if chunk.node_id == node_id
    ]


def _pairs(pairs) -> List[Tuple[int, int]]:
    return [(id(meta), id(chunk)) for meta, chunk in pairs]


def _image(shard: Namenode) -> list:
    """The index as plain data, dict order and emptied nodes included."""
    return [
        (node_id, [
            (name, [id(c) for c in entry] if type(entry) is list else id(entry))
            for name, entry in entries
        ])
        for node_id, entries in index_entries(shard)
    ]


def _index(shard: Namenode) -> List[Violation]:
    out = []
    before = _image(shard)
    files_before = list(shard.files)
    nodes = {c.node_id for meta in shard.files.values() for c in meta.all_chunks()}
    unanswerable = set()
    for node_id, entries in index_entries(shard):
        nodes.add(node_id)
        for name, entry in entries:
            if name not in shard.files:
                out.append(Violation("index", node_id, f"an entry for unregistered {name}"))
                unanswerable.add(node_id)  # chunks_on_node cannot order it
            elif type(entry) is list and len(entry) < 2:
                out.append(Violation("index", node_id, f"{name}: a lone chunk in a list"))
    for node_id in sorted(nodes - unanswerable):
        got = shard.chunks_on_node(node_id)
        want = full_scan(shard, node_id)
        if _pairs(got) != _pairs(want):
            out.append(Violation("index", node_id, (
                f"index lists {[(m.name, c.chunk_id) for m, c in got]}, "
                f"a scan finds {[(m.name, c.chunk_id) for m, c in want]}"
            )))
    if _image(shard) != before or list(shard.files) != files_before:
        out.append(Violation("index", "namenode", "chunks_on_node changed the namenode"))
    return out


def _queues(shard: Namenode) -> List[Violation]:
    return [
        Violation("queue", name, "UTM job of no registered file")
        for name in shard.utm
        if name not in shard.files
    ]


def _journal(shard: Namenode, subject: str) -> List[Violation]:
    if not isinstance(shard, JournaledNamenode):
        return []
    replayed = Namenode()
    applied = replay(replayed, shard.journal.records())
    out = [
        Violation("index", f"{subject} replayed: {v.subject}", v.detail)
        for v in _index(replayed)
    ]
    if applied != len(shard.journal):
        out.append(Violation("journal", subject, (
            f"{applied} of its {len(shard.journal)} records replayed"
        )))
    if state_digest(replayed) != state_digest(shard):
        out.append(Violation("journal", subject, "live state is not its journal replayed"))
    return out


def _owners(namenode) -> List[Violation]:
    owners: Dict[str, set] = {}
    for meta in namenode.files.values():
        for chunk in meta.all_chunks():
            owners.setdefault(chunk.chunk_id, set()).add(meta.name)
    for name, job in namenode.utm.items():
        for chunk in job.staged_chunks():
            owners.setdefault(chunk.chunk_id, set()).add(name)
    return [
        Violation("owner", chunk_id, f"listed by {len(names)} files: {sorted(names)}")
        for chunk_id, names in sorted(owners.items())
        if len(names) > 1
    ]


def audit_namenode(namenode) -> List[Violation]:
    """The namenode-only part of :func:`audit` — ``index``, ``journal``,
    ``queue`` and ``owner`` — for a plain, journaled or sharded
    namenode."""
    shards = getattr(namenode, "shards", None)
    out: List[Violation] = []
    for i, shard in enumerate(shards or [namenode]):
        out.extend(_index(shard))
        out.extend(_queues(shard))
        out.extend(_journal(shard, f"shard {i}" if shards else "namenode"))
    if shards:
        # The facade's answer is the shards', concatenated in shard order
        # — which is the order its ``files`` view iterates in.
        nodes = {c.node_id for meta in namenode.files.values() for c in meta.all_chunks()}
        for node_id in sorted(nodes):
            if _pairs(namenode.chunks_on_node(node_id)) != _pairs(full_scan(namenode, node_id)):
                out.append(Violation("index", node_id, "the shards' answers, concatenated, "
                                     "are not a scan of the namespace"))
    out.extend(_owners(namenode))
    return out


def _layout(meta: FileMeta) -> List[Violation]:
    scheme = meta.scheme
    if isinstance(scheme, ECScheme) and meta.replica_blocks:
        return [Violation("layout", meta.name, (
            f"a {scheme} file lists {len(meta.replica_blocks)} replica blocks"
        ))]
    if isinstance(scheme, Replication) and meta.stripes:
        return [Violation("layout", meta.name, (
            f"a {scheme} file lists {len(meta.stripes)} stripes"
        ))]
    if not isinstance(scheme, HybridScheme):
        return []
    out = []
    for group in meta.hybrid_blocks():
        if group.stripe is None:
            continue
        depth = min(
            sum(len(b.copies) for b in group.replicas if slot in group.covered(b))
            for slot in range(group.k)
        )
        if depth < scheme.copies:
            out.append(Violation("layout", f"{meta.name}/s{group.stripe.stripe_index}", (
                f"covered by {depth} replica copies, {scheme} keeps {scheme.copies}"
            )))
    return out


def _parity(fs, held: Dict[str, Dict[str, np.ndarray]], bad: set) -> List[Violation]:
    out = []
    for meta in fs.namenode.files.values():
        if meta.scheme.ec_part is None:
            continue  # stripes it should not list: ``layout``
        for stripe in meta.stripes:
            chunks = stripe.all_chunks()
            arrays = [held.get(c.node_id, {}).get(c.chunk_id) for c in chunks]
            if not stripe.parities or any(
                data is None or c.chunk_id in bad for c, data in zip(chunks, arrays)
            ):
                continue
            want = fs.codec_for_stripe(meta, stripe).encode(arrays[: stripe.k])
            if len(want) != len(stripe.parities):
                out.append(Violation("parity", f"{meta.name}/s{stripe.stripe_index}", (
                    f"{len(stripe.parities)} parities stored, its code makes {len(want)}"
                )))
                continue
            for j, (parity, expected) in enumerate(zip(stripe.parities, want)):
                if not np.array_equal(arrays[stripe.k + j], expected):
                    out.append(Violation("parity", parity.chunk_id, (
                        f"{meta.name}/s{stripe.stripe_index}: parity {j} is not "
                        f"the encode of the stored data"
                    )))
    return out


def audit(fs) -> List[Violation]:
    """Everything wrong with ``fs`` (a MorphFS or BaselineDFS), by kind
    in :data:`KINDS` order; ``[]`` when it is whole."""
    out = audit_namenode(fs.namenode)
    listed = fs.namenode.listed_chunks()

    recorded = set(fs.checksums)
    out.extend(
        Violation("sums", chunk_id, "a sum without a listed chunk")
        for chunk_id in sorted(recorded - listed.keys())
    )
    out.extend(
        Violation("sums", chunk_id, "a listed chunk without a sum")
        for chunk_id in sorted(listed.keys() - recorded)
    )

    # A chunk buffered and on disk is two arrays: each is checked.
    bad = set()
    for node_id, datanode in fs.datanodes.items():
        for chunk_id, data in datanode.held():
            expected = fs.checksums.expected(chunk_id)
            if data.flags.writeable:
                detail = "writeable"
            elif expected is not None and zlib.crc32(np.ascontiguousarray(data)) != expected:
                detail = "does not carry its recorded sum"
            else:
                continue
            bad.add(chunk_id)
            out.append(Violation("bytes", chunk_id, f"held on {node_id}: {detail}"))

    drift = fs.capacity_check()[1]
    if drift is not None:
        out.append(Violation("capacity", "cluster", drift))
    for node_id, datanode in fs.datanodes.items():
        node = fs.metrics.nodes.get(node_id)
        in_use = 0.0 if node is None else node.memory_in_use_bytes
        if in_use != datanode.memory_bytes():
            out.append(Violation("capacity", node_id, (
                f"buffer cache holds {datanode.memory_bytes()} bytes, "
                f"the memory ledger says {in_use}"
            )))

    held = {node_id: dict(datanode.held()) for node_id, datanode in fs.datanodes.items()}
    for node_id, chunks in held.items():
        if fs.node_reachable(node_id, NAMENODE):
            # ``listed_chunks(node_id)`` by a scan, not the index: a
            # wrong index is reported once, under ``index``.
            out.extend(
                Violation("unlisted", chunk_id, f"held on {node_id}, listed nowhere there")
                for chunk_id in chunks
                if chunk_id not in listed or listed[chunk_id].node_id != node_id
            )
    out.extend(
        Violation("missing", chunk_id, f"listed on {chunk.node_id}, not held there")
        for chunk_id, chunk in listed.items()
        if chunk_id not in held.get(chunk.node_id, ())
    )

    for meta in fs.namenode.files.values():
        out.extend(_layout(meta))
    for meta in fs.namenode.files.values():
        for group in meta.hybrid_blocks():
            nodes = [source.node_id for source in group.chunks()]
            if len(set(nodes)) < len(nodes):
                where = (
                    f"s{group.stripe.stripe_index}" if group.stripe
                    else f"b{group.replicas[0].block_index}"
                )
                out.append(Violation(
                    "colocated", f"{meta.name}/{where}",
                    f"{len(nodes)} sources on {len(set(nodes))} nodes",
                ))

    # Re-encoding is checking, not codec work: the process-global codec
    # ledger is left as it was found.
    ledger = (CODEC_STATS.bytes, CODEC_STATS.seconds, CODEC_STATS.ops)
    saved = [dict(counts) for counts in ledger]
    try:
        out.extend(_parity(fs, held, bad))
    finally:
        for counts, was in zip(ledger, saved):
            counts.clear()
            counts.update(was)
    return out
