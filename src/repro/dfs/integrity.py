"""Chunk integrity: checksums, corruption detection, scrubbing (§6.1).

HDFS-style block integrity: every stored chunk carries a CRC32 computed
at write time. Reads verify lazily; a background *scrubber* sweeps
datanodes on its own schedule. A checksum mismatch is treated exactly
like a missing chunk — the Namenode bundles the block's metadata and
hands reconstruction to :class:`repro.dfs.recovery.RecoveryManager`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.partition import NAMENODE
from repro.dfs.blocks import ChunkMeta, FileMeta
from repro.gf import kernels
from repro.gf.kernels import SPLIT_FROM_BYTES, split


def chunk_checksum(data: np.ndarray) -> int:
    """CRC32 of a chunk's bytes (what HDFS stores per block), for bytes
    nothing has touched lately."""
    # The bytes copy is for cache-cold arrays (a scrub reading chunk after
    # chunk off the datanodes): there the memcpy is the prefetch that
    # keeps zlib fed, and CRC-ing the buffer in place is a quarter slower.
    # Bytes about to be stored, or just copied to where they are
    # delivered, are CRC'd in place, by ``ChecksumRegistry.record`` and
    # ``verify(..., into=)``.
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.nbytes < SPLIT_FROM_BYTES:
        return zlib.crc32(data.tobytes())
    return _crcs([partial(_copied_crc, data)], [data.nbytes])[0]


# -- one CRC rule on every core ----------------------------------------------
#
# Every split CRC here runs through ``_crcs``, one chunk or many: a
# stripe's deliveries or a file's scrub checked together
# (``verify_many``), one replica block's sum (``record``), one cold chunk
# (``chunk_checksum``). Once the bytes of one call reach SPLIT_FROM_BYTES
# — and each chunk reads SPLIT_MIN_BYTES, so no part is a group of small
# chunks — its work is cut into pieces that run at once
# (``repro.gf.kernels.split``; zlib and numpy's copies release the GIL):
# a whole chunk, or a range of at least SPLIT_MIN_BYTES of a chunk that
# reaches SPLIT_FROM_BYTES on its own. A 1 MiB chunk is never cut:
# halved, its gain followed the neighbours' load. A stripe of them is six
# to twelve pieces, one a part, and ranges' sums fold into their chunk's
# with ``crc32_concat`` below. Each piece returns ``(its sum, its
# length)``.


def _crc(data: np.ndarray, lo: int, hi: int) -> Tuple[int, int]:
    return zlib.crc32(data[lo:hi]), hi - lo


def _copied_crc(data: np.ndarray, lo: int, hi: int) -> Tuple[int, int]:
    """``chunk_checksum``'s copy-then-CRC, over bytes ``lo:hi``. The copy
    is numpy's: ``tobytes`` holds the GIL through its memcpy, so the
    parts' copies would take turns."""
    return zlib.crc32(data[lo:hi].copy()), hi - lo


def _delivered_crc(
    into: np.ndarray, data: np.ndarray, lo: int, hi: int
) -> Tuple[int, int]:
    """``verify(..., into=)``'s delivery copy, then its CRC, over bytes
    ``lo:hi``."""
    part = into[lo:hi]
    part[:] = data[lo:hi]
    return zlib.crc32(part), hi - lo


def _crcs(
    work: Sequence[Callable[[int, int], Tuple[int, int]]], sizes: Sequence[int]
) -> List[int]:
    """The CRC of each of ``sizes[i]`` bytes that ``work[i](lo, hi)``
    sums range by range, split across the cores by the rule above and
    folded on the calling thread."""
    pieces = []
    for item, n in enumerate(sizes):
        cuts = n // kernels.SPLIT_MIN_BYTES if n >= SPLIT_FROM_BYTES else 1
        pieces += [(item, n * p // cuts, n * (p + 1) // cuts) for p in range(cuts)]

    def run(lo: int, hi: int) -> List[Tuple[int, int, Tuple[int, int]]]:
        return [(item, a, work[item](a, b)) for item, a, b in pieces[lo:hi]]

    crcs = [0] * len(sizes)
    for part in split(run, len(pieces), sum(sizes)):
        for item, start, (crc, length) in part:
            crcs[item] = crc32_concat(crcs[item], crc, length) if start else crc
    return crcs


# -- the sum of a concatenation, from the sums of its parts ------------------
#
# A CRC is a remainder modulo the polynomial P, so crc(A + B) is crc(A)
# multiplied by x^(8 * len(B)) mod P, XOR crc(B) (the pre- and
# post-conditioning cancel). zlib has this as ``crc32_combine``; Python's
# zlib module does not expose it. Polynomials are bit-reflected as in
# zlib: bit 31 is x^0.

_CRC_POLY = 0xEDB88320


def _mul_mod_p(a: int, b: int) -> int:
    """``a(x) * b(x) mod P(x)`` (zlib's ``multmodp``)."""
    product = 0
    bit = 1 << 31
    while a:
        if a & bit:
            product ^= b
            a ^= bit
        bit >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return product


#: x^(2^i) mod P for i = 0..31, by repeated squaring from x^1
_X_POW_2N = [1 << 30]
for _ in range(31):
    _X_POW_2N.append(_mul_mod_p(_X_POW_2N[-1], _X_POW_2N[-1]))


@lru_cache(maxsize=64)
def _append_zeros_operator(nbytes: int) -> Tuple[Tuple[int, ...], ...]:
    """The map "append ``nbytes`` zero bytes" on 32-bit sums —
    multiplication by x^(8 * nbytes) mod P — tabulated per byte of the
    operand: four 256-entry tables, XORed together. Built once per
    distinct length (a file system has a handful: its chunk size)."""
    factor = 1 << 31  # x^0
    power, n = 3, nbytes  # x^(n * 2^3)
    while n:
        if n & 1:
            factor = _mul_mod_p(_X_POW_2N[power & 31], factor)
        n >>= 1
        power += 1
    tables = []
    for byte in range(4):
        table = [0] * 256
        for bit in range(8):
            image = _mul_mod_p(factor, 1 << (8 * byte + bit))
            for value in range(1 << bit, 2 << bit):
                table[value] = table[value - (1 << bit)] ^ image
        tables.append(tuple(table))
    return tuple(tables)


def crc32_concat(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = zlib.crc32(a)``,
    ``crc2 = zlib.crc32(b)`` and ``len2 = len(b)``, touching no byte."""
    if not len2:
        return crc1
    t0, t1, t2, t3 = _append_zeros_operator(len2)
    return (
        t0[crc1 & 0xFF]
        ^ t1[(crc1 >> 8) & 0xFF]
        ^ t2[(crc1 >> 16) & 0xFF]
        ^ t3[crc1 >> 24]
        ^ crc2
    )


class ChecksumRegistry:
    """Write-time checksums, keyed by chunk id.

    Lives beside the Namenode metadata (in HDFS, checksums live in .meta
    files next to the blocks; a central registry is equivalent for the
    simulator and keeps verification independent of the possibly-corrupt
    datanode — and of whether the chunk's home node is up at all).

    A recorded sum is the CRC-32 of the bytes as written, computed or
    derived. Computed, a CRC runs in place: ``record`` over the array a
    datanode has just been handed (a store copies nothing, so these
    bytes are as warm as their producer left them), ``verify(...,
    into=dst)`` over the freshly written side of the delivery copy.
    Derived, no byte is read again: ``record_concat`` folds the sums of
    chunks the new one repeats end to end.
    """

    def __init__(self):
        self._sums: Dict[str, int] = {}

    def record(self, chunk_id: str, data: np.ndarray) -> None:
        """Remember the sum of bytes a datanode has just stored."""
        if data.dtype != np.uint8 or not data.flags.c_contiguous:
            data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.nbytes < SPLIT_FROM_BYTES:
            self._sums[chunk_id] = zlib.crc32(data)
        else:
            self._sums[chunk_id] = _crcs([partial(_crc, data)], [data.nbytes])[0]

    def record_concat(self, chunk_id: str, parts: Sequence[ChunkMeta]) -> None:
        """Remember the sum of a chunk that is, byte for byte, the
        recorded chunks ``parts`` end to end — a hybrid stripe's replica
        block over its data chunks, one more copy of a block over the
        first — exactly what ``record`` would compute over its bytes."""
        crc = 0
        for part in parts:
            crc = crc32_concat(crc, self._sums[part.chunk_id], part.size)
        self._sums[chunk_id] = crc

    def forget(self, chunk_id: str) -> None:
        self._sums.pop(chunk_id, None)

    def rekey(self, old_id: str, new_id: str) -> None:
        """The same bytes now live under ``new_id``: the sum moves with
        them, it is not recomputed over whatever the new copy holds."""
        expected = self._sums.pop(old_id, None)
        if expected is not None:
            self._sums[new_id] = expected

    def expected(self, chunk_id: str) -> Optional[int]:
        return self._sums.get(chunk_id)

    def verify(
        self, chunk_id: str, data: np.ndarray, into: Optional[np.ndarray] = None
    ) -> bool:
        """Do ``data``'s bytes carry the sum recorded for ``chunk_id``?

        With ``into`` — the contiguous, equally long destination the
        caller is delivering the chunk to — the bytes are copied there
        first and the CRC runs over the warm destination: the check
        rides the delivery copy instead of making one of its own. After
        a mismatch the destination holds the bad bytes; the caller
        overwrites it from its next source. The one-chunk case of
        :meth:`verify_many`.
        """
        return self.verify_many(((chunk_id, data, into),))[0]

    def verify_many(
        self, items: Sequence[Tuple[str, np.ndarray, Optional[np.ndarray]]]
    ) -> List[bool]:
        """:meth:`verify` of many deliveries at once: one verdict per
        ``(chunk_id, data, into or None)`` item, each what ``verify``
        answers and each destination left as it leaves it.

        Once the items' bytes reach ``SPLIT_FROM_BYTES`` and each item
        reads ``SPLIT_MIN_BYTES`` or more, the cores share them, a chunk
        a part (the rule above ``_crcs``); otherwise they run one after
        another on the calling thread, as ``verify`` always did. Either
        way the caller acts on the verdicts — quarantine, the next
        source — itself.
        """
        expected_of = self._sums.get
        min_bytes = kernels.SPLIT_MIN_BYTES
        nbytes = 0
        for _chunk_id, data, _into in items:
            if data.nbytes < min_bytes:
                nbytes = 0  # a part would be a piece of a chunk group
                break
            nbytes += data.nbytes
        if nbytes < SPLIT_FROM_BYTES:
            crc32 = zlib.crc32
            verdicts = []
            for chunk_id, data, into in items:
                expected = expected_of(chunk_id)
                if into is None:
                    # nothing recorded: cannot dispute
                    verdicts.append(expected is None or chunk_checksum(data) == expected)
                else:
                    into[:] = data
                    verdicts.append(expected is None or crc32(into) == expected)
            return verdicts
        verdicts = [True] * len(items)
        checked, work, sizes = [], [], []
        for i, (chunk_id, data, into) in enumerate(items):
            expected = expected_of(chunk_id)
            if expected is None:
                if into is not None:
                    into[:] = data
                continue
            if into is None:
                data = np.ascontiguousarray(data, dtype=np.uint8)
                work.append(partial(_copied_crc, data))
            else:
                work.append(partial(_delivered_crc, into, data))
            checked.append((i, expected))
            sizes.append(data.nbytes)
        for (i, expected), crc in zip(checked, _crcs(work, sizes)):
            verdicts[i] = crc == expected
        return verdicts

    def __len__(self) -> int:
        return len(self._sums)

    def __iter__(self) -> Iterator[str]:
        """The ids a sum is recorded under."""
        return iter(self._sums)


def quarantine(fs, chunk: ChunkMeta) -> None:
    """Drop a copy that failed verification, so it reads as missing.

    The chunk stays listed and its sum stays recorded: that is how the
    next scrub finds it absent and rebuilds it, and what the rebuilt
    bytes are checked against.
    """
    fs.datanodes[chunk.node_id].delete(chunk.chunk_id, at=fs.clock)


def quarantine_rotten(fs, reads) -> List[ChunkMeta]:
    """Rebuilt bytes failed their sums, so a source is rotten: verify
    each ``(copy, id its sum is recorded under, bytes)`` read, quarantine
    the copies that fail — they no longer read as sources — and return
    them."""
    verdicts = fs.checksums.verify_many([(sum_id, data, None) for _copy, sum_id, data in reads])
    rotten = [copy for (copy, _sum_id, _data), good in zip(reads, verdicts) if not good]
    for copy in rotten:
        quarantine(fs, copy)
    return rotten


@dataclass
class ScrubReport:
    """Outcome of one scrub sweep."""

    chunks_scanned: int = 0
    corrupt: List[Tuple[str, str]] = field(default_factory=list)  # (file, chunk_id)
    repaired: int = 0
    #: what the repair pass is handed: the metadata behind ``corrupt``,
    #: plus listed chunks found absent from a reachable node
    quarantined: List[Tuple[FileMeta, ChunkMeta]] = field(
        default_factory=list, repr=False
    )


class Scrubber:
    """Background integrity sweeper + corruption repair driver.

    ``scan()`` verifies every on-disk chunk against the registry and
    quarantines mismatches (deletes the bad copy so it reads as missing);
    a listed chunk already gone from a reachable node — quarantined by a
    read or a repair that caught it first — is reported alongside.
    ``scan_and_repair()`` additionally reconstructs them through the
    normal recovery path — corrupt and missing chunks share one pipeline,
    as in the paper.
    """

    def __init__(self, fs):
        self.fs = fs

    def scan(self) -> ScrubReport:
        with self.fs.obs.span("scrub"):
            return self._scan_impl()

    def _scan_impl(self) -> ScrubReport:
        """File by file: read every chunk a reachable node holds on disk,
        check them in one call, then report and quarantine in chunk
        order."""
        fs = self.fs
        report = ScrubReport()
        for meta in fs.namenode.files.values():
            listed: List[Tuple[ChunkMeta, bool]] = []  # (chunk, was it read)
            items = []
            for chunk in meta.all_chunks():
                if not fs.node_reachable(chunk.node_id, NAMENODE):
                    continue  # a dead node's chunks are the heartbeat's to repair
                datanode = fs.datanodes[chunk.node_id]
                if datanode.chunk_on_disk(chunk.chunk_id):
                    listed.append((chunk, True))
                    data = datanode.read(chunk.chunk_id, at=fs.clock)
                    items.append((chunk.chunk_id, data, None))
                elif not datanode.has_chunk(chunk.chunk_id):
                    listed.append((chunk, False))
            report.chunks_scanned += len(items)
            verdicts = iter(fs.checksums.verify_many(items))
            for chunk, was_read in listed:
                if was_read:
                    if next(verdicts):
                        continue
                    report.corrupt.append((meta.name, chunk.chunk_id))
                    quarantine(fs, chunk)
                report.quarantined.append((meta, chunk))
        return report

    def scan_and_repair(self) -> ScrubReport:
        from repro.dfs.recovery import RecoveryManager

        report = self.scan()
        if report.quarantined:
            # One pass: corrupt chunks of a stripe are rebuilt together.
            report.repaired = RecoveryManager(self.fs).recover_chunks(
                report.quarantined
            )
        return report


def corrupt_chunk(fs, chunk: ChunkMeta, flip_byte: int = 0) -> None:
    """Test helper: silently flip one byte of a stored chunk on disk.

    The one sanctioned way to damage stored bytes, and copy-on-write: a
    stored array is read-only and may share its buffer with other chunks
    (a replica block and the data chunks it repeats), so the flip lands
    in a private copy that replaces this chunk's array alone."""
    datanode = fs.datanodes[chunk.node_id]
    data = datanode._disk.get(chunk.chunk_id)
    if data is None:
        raise KeyError(f"{chunk.chunk_id} not on disk at {chunk.node_id}")
    data = data.copy()
    data[flip_byte % len(data)] ^= 0xFF
    data.setflags(write=False)
    datanode._disk[chunk.chunk_id] = data
