"""Crash-consistent namenode persistence: op-log journal + snapshots.

The paper keeps the namenode's transcode bookkeeping (ATQ/UTM) in memory
and leans on the atomic metadata switch for crash safety (§6.2): a
restart re-runs any unfinished conversion.  This module makes the whole
namenode durable as an HDFS-style edit log, and a crash is a prefix of
it — a conversion resumes at its first unstaged final stripe:

* :class:`Journal` — an append-only log of versioned, checksummed
  records (length/version/opcode/CRC32 header + ``marshal`` version-2
  payload), file-backed or in-memory.  A torn tail (crash mid-write) is
  detected and truncated on open; corruption *before* the tail raises.
* :class:`JournaledNamenode` — a :class:`~repro.dfs.namenode.Namenode`
  whose ``apply`` runs the op in memory first and appends its one record
  on success (write-behind: a crash between apply and append loses only
  the unacknowledged op).  What an op type writes, when, and which
  fragment entries it kills is one row of ``_RECORD``.
* Snapshot compaction — ``compact()`` rewrites the log as a single
  SNAPSHOT record of the canonical state, atomically (write-new +
  rename) for file-backed logs.  A file whose document already sits in
  the log is *spliced* into the snapshot as a byte range, not
  re-encoded (see "Encode each file once" below).
* Replay recovery — :func:`replay` decodes each record back into its op
  (``_DECODE``) and hands it to the *base* ``Namenode.apply``, so any
  namenode, plain included, can be rebuilt from a log and replay can
  never re-journal.  A namenode killed at any record boundary restores
  byte-identical to the snapshot+replay oracle (see :func:`state_digest`
  and ``tests/test_journal_crash.py``).

Record coverage
---------------
Every op type writes its own opcode.  What happens to a file *after*
registration arrives as an op that carries the change: PLACE (chunks
re-homed by repair or relocation: old id, new id, node), RELAYOUT (an
append, a close or a seal: the stripes kept, the new tail), DROP_REPLICAS
(the hybrid -> EC switch) and the transcode lifecycle (ENQUEUE,
NEW_STRIPE, FINALIZE).  Placements made before registration need no
record: REGISTER carries final state.  A NOTE — the benchmark harness's
``note_chunk`` — carries the file's full document and changes nothing:
it replays as a re-index.

Durable state is the canonical tuple (files in registration order,
chunk_seq, UTM).  The per-node chunk index and the absolute
``_file_order`` sequence numbers are derived caches, rebuilt on
recovery; relative registration order is preserved by construction.

Encode each file once
---------------------
Documents are positional lists (see ``docs/metadata.md``)
and every body goes through one encoder, ``_encode`` (``marshal`` at
version 2: no back-references, so a document's bytes do not depend on
what else the same call encodes), so a file's document has exactly one
byte form wherever it sits.  :class:`JournaledNamenode` remembers where
the document of each file last landed in the log (REGISTER, each element
of REGISTER_BATCH, NOTE) and forgets it when a record changes the file
without carrying its document (UNREGISTER, RENAME, PLACE, RELAYOUT,
DROP_REPLICAS, ENQUEUE, FINALIZE).  Because live state equals the
journaled prefix at every record boundary, a remembered range *is* the
file's current document, and compaction joins those ranges — back to
back behind a list header — instead of walking every chunk.
:func:`state_digest` never reads the index: it encodes live state from
scratch, which is what makes it the oracle that checks the splice.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import struct
import zlib
from enum import IntEnum
from functools import lru_cache
from pathlib import Path
from sys import intern as _intern
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.schemes import (
    CodeKind,
    ECScheme,
    HybridScheme,
    RedundancyScheme,
    Replication,
)
from repro.dfs.blocks import (
    ChunkKind,
    ChunkMeta,
    ECStripeMeta,
    FileMeta,
    FileState,
    ReplicaBlockMeta,
)
from repro.dfs.namenode import (
    ConversionGroup,
    DropReplicas,
    Enqueue,
    Finalize,
    Mint,
    Namenode,
    NewStripe,
    Note,
    Place,
    Register,
    RegisterBatch,
    Relayout,
    Rename,
    TranscodeJob,
    Unregister,
)

#: The only record format this module reads or writes.  Journals here
#: never outlive a run, so a format change *replaces* the old one: any
#: other version (older or newer) is rejected, there is no reader fork.
RECORD_VERSION = 6
#: record header: payload length, format version, opcode, CRC32(payload)
_HEADER = struct.Struct("<IHHI")
#: sanity bound on one record's payload (a full-state snapshot of a very
#: large shard still fits; anything bigger is corruption, not data)
_MAX_PAYLOAD = 1 << 31


def _encode(doc: Any) -> bytes:
    """The one encoder behind every record body and the state digest:
    ``marshal`` at version 2 exactly.  Version 3 and up emit
    back-references whose presence depends on refcounts and whose
    indices count from the start of one ``dumps`` call, so a document
    encoded alone would not be the bytes of the same document inside a
    snapshot.  Version 2 writes every value in full, in a form that has
    not changed across Python releases.  Dicts are written in insertion
    order; documents are trees of lists, str, int, float, bool and None
    this module builds (no tuples, so a decoded body re-encodes to
    itself)."""
    return marshal.dumps(doc, 2)


# The marshal v2 framing the splices write by hand: a dict is "{", its
# key/value pairs back to back, then "0"; a list is "[", its length as a
# little-endian int32, then its items back to back with no separator.
_DICT_END = b"0"
_LIST_HEAD = struct.Struct("<ci")


def _dict_head(key: str) -> bytes:
    """A dict opened up to the value of its first key."""
    return b"{" + _encode(key)


def _list_head(n: int) -> bytes:
    return _LIST_HEAD.pack(b"[", n)


class Op(IntEnum):
    """Journal record opcodes (stable on-disk values)."""

    SNAPSHOT = 0        # full canonical state (compaction point)
    REGISTER = 1        # register_file
    REGISTER_BATCH = 2  # register_files
    UNREGISTER = 3      # unregister_file
    RENAME = 4          # rename
    NOTE = 5            # note_chunk (the harness shim: the file's document)
    MINT = 6            # next_chunk_id(s): chunk-sequence advance
    ENQUEUE = 7         # enqueue_transcode
    NEW_STRIPE = 8      # record_new_stripe (a final stripe staged)
    FINALIZE = 9        # try_finalize (the atomic metadata switch)
    PLACE = 10          # place_chunks (repair / relocation: chunks re-homed)
    DROP_REPLICAS = 11  # drop_replicas (the hybrid -> EC switch)
    RELAYOUT = 12       # relayout_file (append / close / seal: a new tail)


class JournalError(RuntimeError):
    """Corrupt or unreadable journal (not a torn tail)."""


class JournalCrash(RuntimeError):
    """Simulated process death at a record boundary (fault injection)."""


# -- record payload codec (positional documents) ------------------------------
#
# Enum members cross the codec as their values.  Out: ``member._value_``
# is a plain attribute read where ``.value`` is a descriptor call.  In:
# one dict lookup per value where ``ChunkKind(value)`` goes through the
# enum metaclass (9 chunks per file made that the top decode cost).

_CHUNK_KIND = {kind._value_: kind for kind in ChunkKind}
_FILE_STATE = {state._value_: state for state in FileState}
_CODE_KIND = {kind._value_: kind for kind in CodeKind}


def _ec_fields(s: ECScheme) -> List[Any]:
    return [s.kind._value_, s.k, s.n, s.local_groups, s.r_global,
            s.anticipate_parities]


def encode_scheme(s: RedundancyScheme) -> List[Any]:
    """``["ec",kind,k,n,lg,rg,ap]`` | ``["hy",copies,kind,k,n,lg,rg,ap]``
    | ``["rep",copies]`` — flat, so the decoder can key a cache on it."""
    if isinstance(s, ECScheme):
        return ["ec"] + _ec_fields(s)
    if isinstance(s, HybridScheme):
        return ["hy", s.copies] + _ec_fields(s.ec)
    if isinstance(s, Replication):
        return ["rep", s.copies]
    raise TypeError(f"unknown scheme type {type(s).__name__}")


def _ec_scheme(kind, k, n, lg, rg, ap) -> ECScheme:
    return ECScheme(kind=_CODE_KIND[kind], k=k, n=n, local_groups=lg,
                    r_global=rg, anticipate_parities=ap)


@lru_cache(maxsize=256)
def _scheme_from(doc: tuple) -> RedundancyScheme:
    tag = doc[0]
    if tag == "ec":
        return _ec_scheme(*doc[1:])
    if tag == "hy":
        return HybridScheme(copies=doc[1], ec=_ec_scheme(*doc[2:]))
    if tag == "rep":
        return Replication(copies=doc[1])
    raise JournalError(f"unknown scheme tag {tag!r}")


def decode_scheme(d: List[Any]) -> RedundancyScheme:
    """Schemes are frozen values and a namespace holds a handful of
    distinct ones, so decoded instances are shared."""
    return _scheme_from(tuple(d))


def encode_chunk(c: ChunkMeta) -> List[Any]:
    return [c.chunk_id, c.node_id, c.kind._value_, c.size]


def decode_chunk(d: List[Any]) -> ChunkMeta:
    # Node ids repeat across the namespace and are interned; a chunk id
    # occurs once, so interning it would only grow the intern table.
    return ChunkMeta(d[0], _intern(d[1]), _CHUNK_KIND[d[2]], d[3])


def encode_stripe(s: ECStripeMeta) -> List[Any]:
    """``[stripe_index, k, n, [data chunks], [parity chunks]]``"""
    return [
        s.stripe_index, s.k, s.n,
        [encode_chunk(c) for c in s.data],
        [encode_chunk(c) for c in s.parities],
    ]


def decode_stripe(d: List[Any]) -> ECStripeMeta:
    return ECStripeMeta(
        d[0], d[1], d[2],
        [decode_chunk(c) for c in d[3]],
        [decode_chunk(c) for c in d[4]],
    )


def encode_block(b: ReplicaBlockMeta) -> List[Any]:
    """``[block_index, first_chunk, n_chunks, [copies]]``"""
    return [b.block_index, b.first_chunk, b.n_chunks,
            [encode_chunk(c) for c in b.copies]]


def decode_block(d: List[Any]) -> ReplicaBlockMeta:
    return ReplicaBlockMeta(d[0], d[1], d[2], [decode_chunk(c) for c in d[3]])


def encode_file(m: FileMeta) -> List[Any]:
    """``[name, size, chunk_size, scheme, [stripes], [blocks], state,
    version]`` — the document the fragment index tracks."""
    return [
        m.name, m.size, m.chunk_size, encode_scheme(m.scheme),
        [encode_stripe(s) for s in m.stripes],
        [encode_block(b) for b in m.replica_blocks],
        m.state._value_, m.version,
    ]


def decode_file(d: List[Any]) -> FileMeta:
    return FileMeta(
        _intern(d[0]), d[1], d[2], decode_scheme(d[3]),
        [decode_stripe(s) for s in d[4]],
        [decode_block(b) for b in d[5]],
        _FILE_STATE[d[6]], d[7],
    )


def encode_group(g: ConversionGroup) -> List[Any]:
    """``[file, group_index, [initial stripe indices], n_final, target]``"""
    return [g.file_name, g.group_index, list(g.initial_stripe_indices),
            g.n_final_stripes, encode_scheme(g.target_scheme)]


def decode_group(d: List[Any]) -> ConversionGroup:
    return ConversionGroup(_intern(d[0]), d[1], list(d[2]), d[3],
                           decode_scheme(d[4]))


def encode_job(j: TranscodeJob) -> List[Any]:
    """``[file, target, [groups], [[group, final_idx, stripe], ...],
    deadline]``"""
    return [
        j.file_name, encode_scheme(j.target_scheme),
        [encode_group(g) for g in j.groups],
        [[g, i, encode_stripe(s)] for (g, i), s in sorted(j.new_stripes.items())],
        j.deadline,
    ]


def decode_job(d: List[Any]) -> TranscodeJob:
    return TranscodeJob(
        file_name=_intern(d[0]), target_scheme=decode_scheme(d[1]),
        groups=[decode_group(g) for g in d[2]],
        new_stripes={(g, i): decode_stripe(s) for g, i, s in d[3]},
        deadline=d[4],
    )


# -- canonical state ----------------------------------------------------------

def encode_state(nn: Namenode) -> Dict[str, Any]:
    """Canonical durable state: files, the chunk sequence and the UTM.

    Files appear in registration order (dict order); the per-node index
    and absolute ``_file_order`` values are derived caches and excluded.
    """
    return {
        "files": [encode_file(m) for m in nn.files.values()],
        "chunk_seq": nn._chunk_seq,
        "utm": [encode_job(j) for j in nn.utm.values()],
    }


def load_state(nn: Namenode, doc: Dict[str, Any]) -> None:
    """Reset ``nn`` to the decoded canonical state (recovery path)."""
    nn.load(
        [decode_file(fd) for fd in doc["files"]],
        doc["chunk_seq"],
        [decode_job(jd) for jd in doc["utm"]],
    )


def state_digest(nn: Namenode) -> str:
    """sha256 over the canonical state — the byte-identity oracle.

    The bytes hashed are the SNAPSHOT body this state would be, through
    the journal's one encoder (``_encode``), so the digest is the same
    on every Python that writes the same log.  Always encodes live state
    from scratch; it must never consult the fragment index, whose
    correctness it is used to check.
    """
    return hashlib.sha256(_encode(encode_state(nn))).hexdigest()


# -- the log ------------------------------------------------------------------

#: a record payload: a document for the encoder, or an already encoded body
Payload = Union[Dict[str, Any], bytes]


class Journal:
    """Append-only record log, in-memory or file-backed.

    The full log is mirrored in memory (``data``); file-backed journals
    append-through and compact via write-new + ``os.replace``.  Opening
    an existing file validates every record: a torn tail is truncated
    (in memory *and* on disk), corruption before the tail raises
    :class:`JournalError`.
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 fail_after: Optional[int] = None):
        self.path = Path(path) if path is not None else None
        #: crash injection: raise JournalCrash *before* appending record
        #: number ``fail_after`` (0-based count of records already in the
        #: log), simulating process death at that record boundary.
        self.fail_after = fail_after
        self._buf = bytearray()
        self._offsets: List[int] = []
        self._fh = None
        self.snapshots = 0
        self.records_since_snapshot = 0
        self.appended_total = 0
        #: compaction ledger (process lifetime, like ``appended_total``):
        #: ``rewrite`` counts compactions, the compacting namenode adds
        #: its wall time and how many file documents it spliced from the
        #: log versus encoded afresh.
        self.compactions = 0
        self.compact_seconds = 0.0
        self.files_spliced = 0
        self.files_reencoded = 0
        if self.path is not None and self.path.exists():
            raw = self.path.read_bytes()
            valid = self._load(raw)
            if valid != len(raw):
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid)

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def data(self) -> bytes:
        return bytes(self._buf)

    @property
    def byte_size(self) -> int:
        return len(self._buf)

    def stats(self) -> Dict[str, Any]:
        return {
            "records": len(self._offsets),
            "bytes": len(self._buf),
            "snapshots": self.snapshots,
            "records_since_snapshot": self.records_since_snapshot,
            "appended_total": self.appended_total,
            "compactions": self.compactions,
            "compact_seconds": self.compact_seconds,
            "files_spliced": self.files_spliced,
            "files_reencoded": self.files_reencoded,
        }

    def body_offset(self, index: int) -> int:
        """Byte offset of record ``index``'s body within the log."""
        return self._offsets[index] + _HEADER.size

    def view(self) -> memoryview:
        """Zero-copy window on the log.  Release it (and every slice
        taken from it) before the next append: a live view pins the
        buffer and blocks its growth."""
        return memoryview(self._buf)

    # -- scanning -------------------------------------------------------------
    def _load(self, raw) -> int:
        """Validate ``raw`` (any bytes-like) into this (empty) journal;
        return the valid length.  One memoryview serves the whole scan:
        CRCs run over slices of it, nothing is copied until the valid
        prefix is adopted."""
        offsets: List[int] = []
        pos, end = 0, len(raw)
        snapshots = since = 0
        with memoryview(raw) as view:
            while pos < end:
                if end - pos < _HEADER.size:
                    break  # torn header at the tail
                length, version, opcode, crc = _HEADER.unpack_from(view, pos)
                body_at = pos + _HEADER.size
                torn = (
                    length > _MAX_PAYLOAD
                    or body_at + length > end
                    or zlib.crc32(view[body_at:body_at + length]) != crc
                )
                if torn:
                    # Damage that does not reach EOF is corruption, not a
                    # crash artifact — refuse to silently drop good records.
                    if body_at + min(length, _MAX_PAYLOAD) < end:
                        raise JournalError(f"corrupt record at offset {pos}")
                    break
                if version != RECORD_VERSION:
                    raise JournalError(
                        f"record version {version} at offset {pos}; this "
                        f"build reads and writes version {RECORD_VERSION} only"
                    )
                offsets.append(pos)
                if opcode == Op.SNAPSHOT:
                    snapshots += 1
                    since = 0
                else:
                    since += 1
                pos = body_at + length
            self._buf = bytearray(view[:pos])
        self._offsets = offsets
        self.snapshots = snapshots
        self.records_since_snapshot = since
        return pos

    def records(self) -> Iterator[Tuple[Op, Dict[str, Any]]]:
        """Decoded (opcode, payload) pairs; offsets were validated on load.

        ``marshal.loads`` reads each body straight out of one view of the
        log, with no intermediate copy; a payload is what ``_encode``
        was given, and re-encoding it gives back the body byte for byte.
        The view lives as long as the iteration: exhaust or close it
        before appending.
        """
        with self.view() as view:
            for start in self._offsets:
                length, _version, opcode, _crc = _HEADER.unpack_from(view, start)
                body_at = start + _HEADER.size
                yield Op(opcode), marshal.loads(view[body_at:body_at + length])

    def prefix(self, n: int) -> "Journal":
        """In-memory copy of the first ``n`` records (crash-test harness)."""
        end = len(self._buf) if n >= len(self._offsets) else self._offsets[n]
        j = Journal()
        with self.view() as view:
            j._load(view[:end])
        return j

    # -- writing --------------------------------------------------------------
    def append(self, op: Op, payload: Payload) -> int:
        """Append one record; returns its index.  ``payload`` is a
        document to encode or an already-encoded canonical body.  Raises
        :class:`JournalCrash` before writing when fault injection fires;
        a failing file handle raises before the in-memory mirror (or any
        counter) has taken the record."""
        if self.fail_after is not None and len(self._offsets) >= self.fail_after:
            raise JournalCrash(
                f"injected crash before record {len(self._offsets)}"
            )
        body = payload if isinstance(payload, bytes) else _encode(payload)
        rec = _HEADER.pack(len(body), RECORD_VERSION, op, zlib.crc32(body)) + body
        if self.path is not None:
            if self._fh is None:
                self._fh = open(self.path, "ab")
            self._fh.write(rec)
            self._fh.flush()
        at = len(self._buf)
        self._buf += rec
        index = len(self._offsets)
        self._offsets.append(at)
        self.appended_total += 1
        if op == Op.SNAPSHOT:
            self.snapshots += 1
            self.records_since_snapshot = 0
        else:
            self.records_since_snapshot += 1
        return index

    def rewrite(self, records: Iterable[Tuple[Op, Payload]]) -> None:
        """Atomically replace the log's contents (snapshot compaction).

        File-backed logs write a sibling temp file and ``os.replace`` it
        in, so a crash mid-compaction leaves the old log intact.
        """
        fresh = Journal()
        for op, payload in records:
            fresh.append(op, payload)
        if self.path is not None:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            tmp = self.path.with_name(self.path.name + ".compact")
            tmp.write_bytes(fresh._buf)
            os.replace(tmp, self.path)
        self._buf = fresh._buf
        self._offsets = fresh._offsets
        self.snapshots = fresh.snapshots
        self.records_since_snapshot = fresh.records_since_snapshot
        self.appended_total += len(fresh._offsets)
        self.compactions += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- ops <-> records ----------------------------------------------------------
#
# The two tables below are the whole mapping between the op types of
# :mod:`repro.dfs.namenode` and the log (``docs/metadata.md`` renders
# them as one table).  Both are closed: an op type has exactly one row
# in ``_RECORD`` and every opcode exactly one in ``_DECODE``.

def _named(op) -> Tuple[str, ...]:
    return (op.name,)


#: op type -> (opcode, recorded when, fragments forgotten, payload)
#: * recorded when: ``(node, op, out) -> bool`` over the applied op and
#:   what its handler returned; ``None`` is always.
#: * fragments forgotten: ``(op) ->`` the files whose fragment-index
#:   entry dies before the append, because the record changes them (the
#:   files a record *carries* get a fresh entry once it has landed);
#:   ``None`` where the record touches no file.
#: * payload: ``(node, op) ->`` the record's document, or ``(head,
#:   files, tail)`` for a record that carries file documents.
_F_HEAD = _dict_head("f")    # {"f": file}
_FS_HEAD = _dict_head("fs")  # {"fs": [file...]}

_RECORD = {
    Register: (Op.REGISTER, None, lambda op: (op.meta.name,),
               lambda nn, op: (_F_HEAD, (op.meta,), _DICT_END)),
    RegisterBatch: (Op.REGISTER_BATCH, None, lambda op: [m.name for m in op.metas],
                    lambda nn, op: (_FS_HEAD + _list_head(len(op.metas)),
                                    op.metas, _DICT_END)),
    Unregister: (Op.UNREGISTER, None, _named, lambda nn, op: {"n": op.name}),
    Rename: (Op.RENAME, None, lambda op: (op.old, op.new),
             lambda nn, op: {"o": op.old, "n": op.new}),
    # A registered file's note carries its full document; a name that is
    # not registered writes nothing.
    Note: (Op.NOTE, lambda nn, op, out: op.name in nn.files, _named,
           lambda nn, op: (_F_HEAD, (nn.files[op.name],), _DICT_END)),
    # The change, not the file: its fragment entry is dropped.
    Place: (Op.PLACE, None, _named,
            lambda nn, op: {"n": op.name, "m": [list(m) for m in op.moves]}),
    Relayout: (Op.RELAYOUT, None, _named, lambda nn, op: {
        "n": op.name, "k": op.keep, "s": [encode_stripe(s) for s in op.stripes],
        "b": [encode_block(b) for b in op.blocks], "z": op.size}),
    DropReplicas: (Op.DROP_REPLICAS, None, _named,
                   lambda nn, op: {"n": op.name, "t": encode_scheme(op.scheme)}),
    Mint: (Op.MINT, None, None, lambda nn, op: {"c": op.count}),
    Enqueue: (Op.ENQUEUE, None, _named, lambda nn, op: {  # state -> TRANSCODING
        "n": op.name, "t": encode_scheme(op.target_scheme),
        "g": [encode_group(g) for g in op.groups], "dl": op.deadline}),
    NewStripe: (Op.NEW_STRIPE, None, None, lambda nn, op: {
        "n": op.name, "g": op.group_index, "i": op.final_idx,
        "s": encode_stripe(op.stripe)}),
    # The metadata switch itself, not a call that found parities pending.
    Finalize: (Op.FINALIZE, lambda nn, op, out: out is not None, _named,
               lambda nn, op: {"n": op.name}),
}


def _decode_new_stripe(nn: Namenode, p: Dict[str, Any]) -> NewStripe:
    """Replay differs from live.  Live, the transcoder builds a final
    stripe over the file's own data-chunk objects; a decoded stripe has
    fresh ones, so its data chunks are re-linked to the live objects by
    id — later in-place repairs then stay visible through both the old
    stripes and the accumulating new ones, exactly as they are live."""
    stripe = decode_stripe(p["s"])
    meta = nn.files.get(p["n"])
    if meta is not None:
        by_id = {c.chunk_id: c for c in meta.all_chunks()}
        stripe.data = [by_id.get(c.chunk_id, c) for c in stripe.data]
    return NewStripe(p["n"], p["g"], p["i"], stripe)


#: opcode -> ``(node, payload) ->`` the op the record stands for, or
#: None where the decoder did all there is to do (a SNAPSHOT is a state
#: load, not an op).  ``node`` is the namenode being rebuilt.
_DECODE = {
    Op.SNAPSHOT: load_state,
    Op.REGISTER: lambda nn, p: Register(decode_file(p["f"])),
    Op.REGISTER_BATCH: lambda nn, p: RegisterBatch([decode_file(fd) for fd in p["fs"]]),
    Op.UNREGISTER: lambda nn, p: Unregister(p["n"]),
    Op.RENAME: lambda nn, p: Rename(p["o"], p["n"]),
    Op.NOTE: lambda nn, p: Note(p["f"][0]),
    Op.PLACE: lambda nn, p: Place(p["n"], p["m"]),
    Op.RELAYOUT: lambda nn, p: Relayout(
        p["n"], p["k"], [decode_stripe(s) for s in p["s"]],
        [decode_block(b) for b in p["b"]], p["z"],
    ),
    Op.DROP_REPLICAS: lambda nn, p: DropReplicas(p["n"], decode_scheme(p["t"])),
    Op.MINT: lambda nn, p: Mint(None, p["c"]),
    Op.ENQUEUE: lambda nn, p: Enqueue(
        p["n"], decode_scheme(p["t"]), [decode_group(g) for g in p["g"]], p["dl"],
    ),
    Op.NEW_STRIPE: _decode_new_stripe,
    Op.FINALIZE: lambda nn, p: Finalize(p["n"]),
}


def replay(nn: Namenode, records: Iterable[Tuple[Op, Dict[str, Any]]]) -> int:
    """Apply decoded journal records to ``nn`` and return how many.

    Ops go through ``Namenode.apply`` called on the base class, so a
    plain namenode replays a log as well as a journaled one, and a
    journaled one cannot append what it is replaying."""
    count = 0
    for opcode, payload in records:
        op = _DECODE[opcode](nn, payload)
        if op is not None:
            Namenode.apply(nn, op)
        count += 1
    return count


# -- the journaled namenode ---------------------------------------------------

class JournaledNamenode(Namenode):
    """A Namenode whose every mutation is durable in an op-log journal.

    Write-behind: ``apply`` runs the op in memory first (a rejected op
    produces no record), then appends the op's one record.  A crash
    between the two loses only the op the caller never saw acknowledged.
    ``compact_every`` > 0 folds the log into a single SNAPSHOT record
    whenever that many records accumulate past the last snapshot.
    """

    def __init__(self, journal: Optional[Journal] = None, compact_every: int = 0):
        super().__init__()
        self.journal = Journal() if journal is None else journal
        self.compact_every = compact_every
        #: records replayed by the recover() that built this node
        self.replayed = 0
        #: test hook: called as ``after_append(node, opcode)`` once a record
        #: has landed (used by the crash sweep to pin per-boundary digests)
        self.after_append: Optional[Callable[["JournaledNamenode", Op], None]] = None
        #: fragment index: file name -> (offset, length) of the canonical
        #: bytes of the file's document where it last landed in
        #: ``journal``'s log.  Invariant: an entry exists only if no
        #: record after that one changed the file, so at a record
        #: boundary the range *is* the file's current document.  ``apply``
        #: forgets the entries of the files a record changes before it
        #: appends; an entry is written only after its record landed.
        #: Entries are offsets into the log the journal already mirrors,
        #: not copies; a missing entry only costs a re-encode.  Empty
        #: after recover(): the first compaction fills it.
        self._frags: Dict[str, Tuple[int, int]] = {}

    def apply(self, op):
        out = Namenode.apply(self, op)
        opcode, when, forgets, payload = _RECORD[type(op)]
        if when is not None and not when(self, op, out):
            return out
        frags = self._frags
        for name in forgets(op) if forgets is not None else ():
            frags.pop(name, None)
        journal = self.journal
        body = payload(self, op)
        if type(body) is dict:
            journal.append(opcode, body)
        else:
            # Encode each carried file once, and index where it landed.
            head, metas, tail = body
            docs = [_encode(encode_file(meta)) for meta in metas]
            index = journal.append(opcode, head + b"".join(docs) + tail)
            at = journal.body_offset(index) + len(head)
            for meta, doc in zip(metas, docs):
                frags[meta.name] = (at, len(doc))
                at += len(doc)
        if self.after_append is not None:
            self.after_append(self, opcode)
        if self.compact_every and journal.records_since_snapshot >= self.compact_every:
            self.compact()
        return out

    def _snapshot_body(self) -> Tuple[bytes, Dict[str, Tuple[int, int]], int]:
        """The SNAPSHOT body — byte-identical to ``_encode(encode_state(
        self))`` at a record boundary — with indexed file documents
        spliced from the log rather than re-encoded: a list header, then
        the documents back to back.  Also returns the fragment index of
        the log that holds only this snapshot, and the number of
        documents spliced.  The log views die with this frame, before
        the log is replaced."""
        # The keys in encode_state's order, framed as marshal frames them.
        head = _dict_head("files") + _list_head(len(self.files))
        tail = b"".join((
            _encode("chunk_seq"), _encode(self._chunk_seq),
            _encode("utm"), _encode([encode_job(j) for j in self.utm.values()]),
            _DICT_END,
        ))
        frags = self._frags
        parts = []
        index: Dict[str, Tuple[int, int]] = {}
        at = _HEADER.size + len(head)
        spliced = 0
        with self.journal.view() as log:
            for name, meta in self.files.items():
                frag = frags.get(name)
                if frag is None:
                    part = _encode(encode_file(meta))
                else:
                    part = log[frag[0]:frag[0] + frag[1]]
                    spliced += 1
                parts.append(part)
                index[name] = (at, len(part))
                at += len(part)
            return head + b"".join(parts) + tail, index, spliced

    def compact(self) -> None:
        """Fold the whole log into one SNAPSHOT record.

        Live state changes only through ops, so between any two of
        them — by hand, or where automatic compaction runs — that is the
        live state.
        """
        t0 = perf_counter()
        body, index, spliced = self._snapshot_body()
        journal = self.journal
        journal.rewrite([(Op.SNAPSHOT, body)])
        self._frags = index
        journal.files_spliced += spliced
        journal.files_reencoded += len(index) - spliced
        journal.compact_seconds += perf_counter() - t0

    def stats(self) -> Dict[str, Any]:
        out = self.journal.stats()
        out["replayed"] = self.replayed
        return out

    def metadata_stats(self) -> Dict[str, Any]:
        out = super().metadata_stats()
        s = self.journal.stats()
        out.update(
            journal_records=s["records"],
            journal_bytes=s["bytes"],
            journal_snapshots=s["snapshots"],
            journal_since_snapshot=s["records_since_snapshot"],
            journal_compactions=s["compactions"],
            journal_compact_seconds=s["compact_seconds"],
            journal_files_spliced=s["files_spliced"],
            journal_files_reencoded=s["files_reencoded"],
            replayed=self.replayed,
        )
        return out

    @classmethod
    def recover(cls, journal: Journal, compact_every: int = 0) -> "JournaledNamenode":
        """Rebuild a namenode from its journal: restore the last SNAPSHOT
        record (if any), replay everything after it."""
        node = cls(journal=journal, compact_every=compact_every)
        node.replayed = replay(node, journal.records())
        return node
