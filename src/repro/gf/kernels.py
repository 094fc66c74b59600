"""Cache-blocked bulk-multiply kernels: one plan for GF(2^8) and GF(2^16).

The fields' reference matmuls
(:meth:`repro.gf.field.GaloisField.matmul_reference`) are exact but
allocate a full ``(m, n, k)`` intermediate (GF(2^8)) or do per-element
log/exp lookups with a fresh zero mask per element (GF(2^16)).
Production erasure codecs (ISA-L, Jerasure) instead stream small per-coefficient multiply tables over
contiguous data, through one entry point whatever the matrix is for.
This module is the numpy rendition of that idea:

* **Lanes and coefficient tables** — bulk data is walked as 16-bit
  lanes in both fields, and a coefficient ``c`` is a 65536-entry
  ``uint16`` table over one lane. Over GF(2^8) a lane is a pair of bytes
  and the table maps ``(x0, x1)`` to ``(c*x0, c*x1)`` in one gather
  (:func:`pair_table8`); over GF(2^16) a lane is a symbol and the table
  maps ``x`` to ``c*x`` (:func:`mul_table16`, built from two 256-entry
  half-symbol tables, never from an 8 GiB product table). Which of the
  two a field's lanes take is the only thing the fields do not share
  here (:data:`LANE_TABLE`), and nothing a caller sets selects it: the
  field of a plan is the one ``coeffs.dtype`` stores
  (:func:`field_of`).
* **One multiply plan that reads its matrix** — :class:`MulPlan` picks
  its strategy from the coefficient matrix alone. For
  ``2 <= m <= COMBINE_MAX_ROWS`` output rows, a row whose nonzero
  coefficients are all 1 (CC's first parity, an LRC local parity) is the
  plain XOR of its inputs — no table, no gather. The remaining rows are
  combined four at a time with their 16-bit results *packed as slots of
  one wide integer* per table row (two rows: a ``(65536,)`` ``uint32``
  table per input, three or four: ``uint64``; a lone row gathers from
  the shared per-coefficient table), so a single ``np.take`` yields an
  input's contribution to every row of the group, the accumulator is one
  flat array and each row is written out contiguously. An input whose
  coefficients in a group are all 0/1 (CC's first column) contributes
  ``lane * constant`` — a widening multiply, half a gather's price. For
  ``m = 1`` (the recovery of one lost chunk, which has nothing to
  combine, and gathers even for a coefficient of 1: see
  :func:`_apply_rows`) and ``m > COMBINE_MAX_ROWS`` (a plan would pin
  ``m/4 * k`` half-megabyte tables) it runs a row-at-a-time loop over
  the shared per-coefficient tables and owns none. Tables are built on
  the first bulk apply; below :data:`KERNEL_MIN_BYTES` per row a gather
  cannot amortise and the plan itself answers with the field's reference
  matmul, so no caller tests the threshold.
* **Cache blocking** — every loop here (the slot groups, the row loop,
  :func:`gf_scale_xor`) walks the lane axis in tiles of
  :data:`PACKED_TILE_LANES` lanes; no ``(m, n, k)`` intermediate is ever
  materialised, so memory is O(tile) instead of O(m*n*k), and no gather
  touches more than one tile: numpy's index scratch, the accumulator,
  the gather scratch and the table in use share L2.
* **Every core** — the tile loop's outer level: a call that reads at
  least :data:`SPLIT_FROM_BYTES` cuts its tiles into contiguous parts
  that the calling thread and ``CORES - 1`` pool threads claim one at a
  time (:func:`split`); ``np.take``, ``bitwise_xor`` and the copies
  release the GIL. Tables are resolved on the calling thread first, so a
  part runs numpy only and never splits again. ``dfs.integrity`` splits
  its CRCs through the same function, a whole chunk or a long chunk's
  range a part. A product does not depend on where the lane range is
  cut.

Plans are cached per generator (pinned on the
:class:`~repro.codes.base.ErasureCode`, and in a global LRU keyed by
matrix bytes) and per failure pattern (:class:`PatternCache`).
"""

from __future__ import annotations

import itertools
import os
import queue
import sys
import threading
import weakref
from collections import OrderedDict
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.gf.field import GF8, GF16, GaloisField

#: Per-row byte count from which a plan gathers through tables. Below
#: this the reference paths win (gathers cannot amortise).
KERNEL_MIN_BYTES = 4096

#: Lanes per tile — the one tile every kernel loop walks (the packed
#: slots, the row loop, ``gf_scale_xor``). ``np.take`` widens its uint16
#: indices to intp (8 bytes a lane) beside the accumulator and scratch
#: (2-8 bytes a lane each) and the 128-512 KiB table in use; at 64 Ki
#: lanes the four sit in L2 together. Measured on 3 x 6 over 1 MiB rows:
#: 16 Ki lanes 6.0 ms, 32 Ki 5.3, 64 Ki 5.05, 128 Ki 5.1, 512 Ki 8.2; on
#: 1 x 6, the whole 512 Ki-lane row in one gather 5.0 ms, 64 Ki 4.3
#: (docs/performance.md, "The tile").
PACKED_TILE_LANES = 1 << 16

#: Where a cgroup CPU quota (``docker --cpus``) is read: cgroup v2's
#: ``"<quota|max> <period>"``, else v1's two files.
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _quota_cpus() -> int:
    """Whole CPUs the cgroup quota grants, at least one; ``sys.maxsize``
    where none is set or readable. A quota leaves the affinity mask at
    every host CPU, and a part needs a CPU of its own to gain."""
    for paths in _CPU_QUOTA_FILES:
        try:
            words = []
            for path in paths:
                with open(path) as f:
                    words += f.read().split()
            quota, period = int(words[0]), int(words[1])
        except (OSError, ValueError, IndexError):  # absent, or "max"
            continue
        return max(1, quota // period) if quota > 0 else sys.maxsize
    return sys.maxsize


#: CPUs this process may run on: its affinity mask where the platform
#: has one (a container or ``taskset`` narrows it below the machine's
#: count), else the machine's count, and no more than a cgroup CPU
#: quota grants. Observed, not set.
CORES = min(
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1,
    _quota_cpus(),
)

#: Bytes each part of a split call reads, at least; an apply's parts are
#: also whole tiles. A part is what the calling thread and the pool
#: claim from each other, not a hand-off: a split wakes at most
#: ``CORES - 1`` threads however many parts it has. Claimed parts against
#: the earlier fixed halves, whole call over split call on a 2-CPU KVM
#: guest of a Sapphire Rapids Xeon (mean of 25 rounds, two runs each):
#: quiet, both 1.5-1.9x; beside a neighbour that spins 0.2-2 ms out of
#: every 0.7-7, a 1 MiB CRC 1.20-1.33x (halves 1.08x), a 6 MiB CRC
#: 1.42-1.49x (1.26-1.40x), 1 x 6 over 1 MiB rows 1.37-1.42x
#: (1.26-1.28x); beside a process that never sleeps, both 0.91-1.11x
#: (docs/performance.md, "One call, every core"). Verified on 1 and 2
#: CPUs only.
SPLIT_MIN_BYTES = 512 << 10

#: The one comparison a caller makes before it splits: bytes read from
#: which :func:`split` runs a call on every core, ``sys.maxsize`` on one
#: CPU. A call on one 1 MiB chunk — its CRC, copy or merge step — stays
#: whole: split in two, it gained only while the second CPU was idle, so
#: on a shared machine its rate followed the neighbours' load. What
#: splits is a whole stripe over 1 MiB chunks (6 or 12 MiB): its encode
#: or decode, a 6 MiB replica block's CRC, and a striped read's, a
#: degraded read's or a scrub's checks, which ``dfs.integrity`` takes in
#: one call with a whole chunk a part (docs/performance.md, "A stripe
#: per call").
SPLIT_FROM_BYTES = 4 << 20 if CORES > 1 else sys.maxsize

#: Widest output (row count) whose rows are packed into slot groups.
#: Beyond it a plan would own ``m/4 * k`` tables of 512 KiB (a 12 x 12
#: decode: 18 MiB pinned per plan) and the row loop, which owns none,
#: runs instead.
COMBINE_MAX_ROWS = 8

#: LRU capacities: whole plans (global) and per-coefficient tables.
_PLAN_CACHE_MAX = 16
_COEFF_CACHE_MAX = 256

#: Failure patterns a per-code pattern LRU holds (distinct
#: (available, erased) sets; a cluster repairing one node failure sees a
#: handful — one per failed chunk position).
_PATTERN_CACHE_MAX = 32

_PAIR_IDX_LO = np.arange(1 << 16, dtype=np.uint32) & 0xFF
_PAIR_IDX_HI = np.arange(1 << 16, dtype=np.uint32) >> 8

#: Process-wide hit/miss/eviction counters across every kernel cache
#: (global plan LRU, per-coefficient table LRUs, per-code pattern LRUs).
_COUNTERS: Dict[str, int] = {
    "plan_hits": 0,
    "plan_misses": 0,
    "plan_evictions": 0,
    "table_hits": 0,
    "table_misses": 0,
    "table_evictions": 0,
    "pattern_hits": 0,
    "pattern_misses": 0,
    "pattern_evictions": 0,
}


# ---------------------------------------------------------------------------
# one call on every core: the tile loop's outer level
# ---------------------------------------------------------------------------

class _Job:
    """One :func:`split` call: ``fn`` over the ranges ``cuts`` bound,
    each claimed by whichever thread asks first — the caller included.
    ``next`` on a range iterator or an ``itertools.count`` is one C call,
    atomic under the GIL, so claiming a range and counting it finished
    need no lock; the thread that finishes the last range releases
    ``done``."""

    __slots__ = ("fn", "cuts", "claims", "finished", "last", "results", "errors", "done")

    def __init__(self, fn: Callable[[int, int], object], cuts: List[int]):
        parts = len(cuts) - 1
        self.fn: Optional[Callable[[int, int], object]] = fn
        self.cuts = cuts
        self.claims = iter(range(parts))
        self.finished = itertools.count()
        self.last = parts - 1
        self.results: List[object] = [None] * parts
        self.errors: List[Tuple[int, BaseException]] = []
        self.done = threading.Lock()
        self.done.acquire()

    def run(self) -> None:
        """Claim ranges until none is left, running each."""
        for p in self.claims:
            try:
                self.results[p] = self.fn(self.cuts[p], self.cuts[p + 1])
            except BaseException as exc:  # handed to the waiting caller
                self.errors.append((p, exc))
            if next(self.finished) == self.last:
                self.done.release()


class _Pool:
    """Daemon threads that take a :class:`_Job` off one queue and help
    run it. The caller never waits for one to wake: a split of two no-op
    parts returns in 3 us, against 10-16 us when each part was handed
    over and back, and 43-52 through ``concurrent.futures``
    (docs/performance.md, "One call, every core")."""

    def __init__(self, size: int):
        self.jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        for i in range(size):
            threading.Thread(target=self._work, name=f"gf-split-{i}", daemon=True).start()

    def _work(self) -> None:
        while True:
            job = self.jobs.get()
            job.run()
            # An idle thread must not keep the last caller's arrays alive
            # (``job.fn`` holds them): that was a whole read's result buffer.
            del job


#: ``CORES - 1`` threads that claim parts beside the caller; started by
#: the first split, so a process whose calls never reach
#: ``SPLIT_FROM_BYTES`` starts no thread.
_pool: Optional[_Pool] = None

_T = TypeVar("_T")


def split(fn: Callable[[int, int], _T], n: int, nbytes_read: int) -> List[_T]:
    """``[fn(lo, hi), ...]`` over ``range(n)`` cut into contiguous
    ranges, in range order, each reading at least
    :data:`SPLIT_MIN_BYTES` of the ``nbytes_read`` the whole call reads.

    The calling thread and up to ``CORES - 1`` pool threads claim the
    ranges one at a time, so a range no pool thread has started by the
    time the caller is free runs on the caller: a late or busy second
    CPU costs the call its gain, not a wait. ``split`` returns, or
    raises the failing part's error (the first in range order), only
    once every part has finished. A part runs numpy and zlib only: it
    never calls ``split`` (a part waiting on the pool could wait on
    itself) and never touches a cache or a counter — resolve those
    before the split, on the calling thread.
    """
    global _pool
    parts = min(nbytes_read // SPLIT_MIN_BYTES, n)
    if parts < 2:
        return [fn(0, n)]
    if _pool is None:
        _pool = _Pool(CORES - 1)
    job = _Job(fn, [n * p // parts for p in range(parts + 1)])
    for _ in range(1, min(parts, CORES)):
        _pool.jobs.put(job)
    job.run()
    job.done.acquire()
    job.fn = None
    if job.errors:
        raise min(job.errors, key=itemgetter(0))[1]
    return job.results


# ---------------------------------------------------------------------------
# per-coefficient tables and the field values
# ---------------------------------------------------------------------------

_pair8_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
_full16_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()


def _cache_get(cache: OrderedDict, key: int, build) -> np.ndarray:
    table = cache.get(key)
    if table is None:
        _COUNTERS["table_misses"] += 1
        table = build()
        cache[key] = table
        while len(cache) > _COEFF_CACHE_MAX:
            cache.popitem(last=False)
            _COUNTERS["table_evictions"] += 1
    else:
        _COUNTERS["table_hits"] += 1
        cache.move_to_end(key)
    return table


def pair_table8(c: int) -> np.ndarray:
    """(65536,) uint16 table: byte-pair ``x`` -> ``(c*x_lo, c*x_hi)``.

    A position-preserving per-byte map, so it is endianness-independent.
    """

    def build() -> np.ndarray:
        row = GF8.mul_table[c].astype(np.uint16)
        return (row[_PAIR_IDX_LO] | (row[_PAIR_IDX_HI] << 8)).astype(np.uint16)

    return _cache_get(_pair8_cache, int(c), build)


def mul_table16(c: int) -> np.ndarray:
    """(65536,) uint16 table: GF(2^16) symbol ``x`` -> ``c * x``.

    Built from two 256-entry half-symbol tables via linearity:
    ``c*x = c*lo(x) ^ (c*z^8)*hi(x)`` where ``z^8`` is the field element
    0x100 — never from the infeasible 8 GiB full product table.
    """

    def build() -> np.ndarray:
        half = np.arange(256, dtype=np.uint16)
        lo_tab = GF16.mul(np.uint16(c), half)
        hi_tab = GF16.mul(np.uint16(GF16.mul(int(c), 0x100)), half)
        return (lo_tab[_PAIR_IDX_LO] ^ hi_tab[_PAIR_IDX_HI]).astype(np.uint16)

    return _cache_get(_full16_cache, int(c), build)


#: A field's ``c`` -> the (65536,) uint16 gather table of ``c`` over one
#: 16-bit lane.
LANE_TABLE: Dict[GaloisField, Callable[[int], np.ndarray]] = {
    GF8: pair_table8,
    GF16: mul_table16,
}
_FIELDS = {field.dtype: field for field in LANE_TABLE}


def field_of(dtype: np.dtype) -> GaloisField:
    """The field whose symbols are stored as ``dtype`` (an array's)."""
    field = _FIELDS.get(dtype)
    if field is None:
        raise ValueError(f"no Galois field is stored as {dtype}")
    return field


# ---------------------------------------------------------------------------
# the blocked core (shared by both fields): 16-bit lanes in, 16-bit lanes out
# ---------------------------------------------------------------------------

class _SlotGroup(NamedTuple):
    """Up to four output rows combined in one pass: row ``rows[s]`` lives
    in 16-bit slot ``s`` of one wide integer per lane."""

    rows: Tuple[int, ...]
    #: what a lane of slots is held in: uint16, uint32 or uint64
    dtype: np.dtype
    #: ``(input row, operand)`` per input with a nonzero coefficient
    #: here. An input whose coefficients are all 0/1 contributes
    #: ``lane * operand``, a scalar of ``dtype`` that copies the lane
    #: into each slot whose coefficient is 1; any other a gather from
    #: its operand, the ``(65536,)`` table of ``dtype``.
    steps: List[Tuple[int, np.ndarray]]

    @property
    def nbytes(self) -> int:
        """Bytes of tables the group owns: a one-slot group gathers from
        the shared per-coefficient tables."""
        if self.dtype.itemsize == 2:
            return 0
        return sum(operand.nbytes for _t, operand in self.steps if operand.ndim)


def _read_matrix(
    coeffs: np.ndarray, table_fn
) -> Tuple[List[Tuple[int, List[int]]], List[_SlotGroup]]:
    """What :func:`_apply_slots` does for this matrix: ``(xor rows, slot
    groups)``.

    A row whose nonzero coefficients are all 1 is ``(row, the inputs it
    XORs)`` — none, for a row of zeros. The other rows go in groups of
    at most four (a ``uint64`` of 16-bit slots), each with its per-input
    steps. A table is built as a ``(65536, slots)`` ``uint16`` array —
    the slot count padded to a power of two, the pad left zero — and
    *viewed* as one integer per row, and so is a slot constant: slot
    ``s`` is column ``s`` of that array and of the accumulator's
    ``uint16`` view, whatever the byte order of the machine.
    """
    matrix = coeffs.tolist()  # plain ints: a dozen tiny numpy calls a column add up
    top = [max(row, default=0) for row in matrix]
    xor_rows = [
        (i, [t for t, c in enumerate(row) if c])
        for i, row in enumerate(matrix)
        if top[i] <= 1
    ]
    rows = [i for i in range(len(matrix)) if top[i] > 1]
    groups = []
    for first in range(0, len(rows), 4):
        members = tuple(rows[first : first + 4])
        slots = 1 << (len(members) - 1).bit_length()
        dtype = np.dtype(f"u{2 * slots}")
        steps = []
        for t in range(coeffs.shape[1]):
            column = [matrix[i][t] for i in members] + [0] * (slots - len(members))
            if max(column) <= 1:
                if any(column):
                    ones = np.array(column, dtype=np.uint16)
                    steps.append((t, ones.view(dtype)[0]))
            elif slots == 1:
                steps.append((t, table_fn(column[0])))
            else:
                # every slot written below: no need to zero the array first
                alloc = np.empty if all(column) else np.zeros
                table = alloc((1 << 16, slots), dtype=np.uint16)
                for s, c in enumerate(column):
                    if c:
                        table[:, s] = table_fn(c)
                steps.append((t, table.view(dtype).ravel()))
        groups.append(_SlotGroup(members, dtype, steps))
    return xor_rows, groups


def _apply_slots(
    xor_rows: List[Tuple[int, List[int]]],
    groups: List[_SlotGroup],
    lanes: Sequence[np.ndarray],
    out16: np.ndarray,
) -> None:
    """out16 (m, L), zeroed on entry, tile by tile along the lane axis:
    XOR rows as the XOR of their inputs, the rest a slot group at a time
    — one gather (or widening multiply) per input into an accumulator of
    packed slots, each slot then written out as its row."""
    n16 = out16.shape[1]
    w = min(PACKED_TILE_LANES, n16)
    scratch = [
        (np.empty(w, dtype=group.dtype), np.empty(w, dtype=group.dtype))
        for group in groups
    ]
    for start in range(0, n16, w):
        stop = min(start + w, n16)
        ww = stop - start
        segs = [lane[start:stop] for lane in lanes]
        for i, cols in xor_rows:
            row = out16[i, start:stop]
            for t in cols:
                np.bitwise_xor(row, segs[t], out=row)
        for group, (acc, tmp) in zip(groups, scratch):
            acc, tmp = acc[:ww], tmp[:ww]
            dst = acc  # the first input lands in the accumulator itself
            for t, operand in group.steps:
                if operand.ndim:
                    # mode="clip" is a no-op for uint16 indices into a
                    # 65536-row table but skips numpy's buffered
                    # bounds-checked take path.
                    np.take(operand, segs[t], out=dst, mode="clip")
                else:
                    np.multiply(segs[t], operand, out=dst, dtype=group.dtype)
                if dst is tmp:
                    np.bitwise_xor(acc, tmp, out=acc)
                dst = tmp
            slots = acc.view(np.uint16).reshape(ww, -1)
            for s, i in enumerate(group.rows):
                out16[i, start:stop] = slots[:, s]


def _row_steps(
    coeffs: np.ndarray, cols: List[int], table_fn
) -> List[List[Tuple[int, Optional[np.ndarray]]]]:
    """What :func:`_apply_rows` does for this matrix: per output row,
    ``(input row, its coefficient's table)`` per nonzero coefficient,
    with no table where the row XORs the input in.

    A single row gathers for a coefficient of 1 as for any other, like
    the ``(65536, 1)`` tables it replaces: rebuilding one chunk then
    costs the same whichever slot of the stripe was lost. XORing ones
    instead makes the slots next to the XOR parity ~4x cheaper than the
    rest, and a drill's repair rate swings ~20 % between failure
    patterns of equal severity (docs/performance.md, "Repair path")."""
    xor_ones = len(coeffs) > 1
    steps = []
    for row in coeffs.tolist():
        steps.append(
            [
                (t, None if row[t] == 1 and xor_ones else table_fn(row[t]))
                for t in cols
                if row[t]
            ]
        )
    return steps


def _apply_rows(
    steps: List[List[Tuple[int, Optional[np.ndarray]]]],
    lanes: Sequence[np.ndarray],
    out16: np.ndarray,
) -> None:
    """out16 (m, L) ^= the rows :func:`_row_steps` read, one row at a time
    over the shared coefficient tables, tile by tile: outputs too wide to
    combine, single rows (which have nothing to combine) and the merge's
    scale-and-XOR once it splits."""
    n16 = out16.shape[1]
    w = min(PACKED_TILE_LANES, n16)
    tmp = np.empty(w, dtype=np.uint16)
    for start in range(0, n16, w):
        stop = min(start + w, n16)
        ww = stop - start
        for acc_row, row_steps in zip(out16, steps):
            acc = acc_row[start:stop]
            for t, table in row_steps:
                seg = lanes[t][start:stop]
                if table is None:
                    np.bitwise_xor(acc, seg, out=acc)
                else:
                    np.take(table, seg, out=tmp[:ww], mode="clip")
                    np.bitwise_xor(acc, tmp[:ww], out=acc)


def _apply_tiles(
    loop, passes: tuple, lanes, out16: np.ndarray, w: int, lo: int, hi: int
) -> None:
    """One part of a split apply: ``loop`` over tiles ``lo:hi`` of ``w``
    lanes alone, so a part walks whole tiles."""
    lo, hi = lo * w, hi * w
    loop(*passes, [lane[lo:hi] for lane in lanes], out16[:, lo:hi])


# ---------------------------------------------------------------------------
# the multiply plan
# ---------------------------------------------------------------------------

class MulPlan:
    """A reusable bulk-multiply plan for a fixed coefficient matrix.

    ``apply(b)`` computes ``coeffs @ b`` over the field ``coeffs.dtype``
    names (uint8: GF(2^8), uint16: GF(2^16)) without materialising an
    ``(m, n, k)`` intermediate. Build once per generator and reuse across
    stripes (:func:`plan_for_matrix` caches); the slot tables — 256 or
    512 KiB per input row and group of output rows — are built on the
    first bulk apply, and a single-row or wider-than-combinable plan
    owns none.
    """

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs)
        if coeffs.ndim != 2:
            raise ValueError("MulPlan expects a 2-D coefficient matrix")
        self.field = field_of(coeffs.dtype)
        self.table = LANE_TABLE[self.field]
        self.coeffs = coeffs
        self.m, self.k = coeffs.shape
        self.cols = [t for t in range(self.k) if coeffs[:, t].any()]
        # A single-row transform (one lost chunk: the common repair) has
        # nothing to combine and gathers from the shared LRU, ones
        # included (see _apply_rows); beyond COMBINE_MAX_ROWS a plan
        # would pin megabytes of tables. Between, the first bulk apply
        # reads the matrix into (xor rows, slot groups).
        self.packed = 1 < self.m <= COMBINE_MAX_ROWS
        self.passes: Optional[Tuple[list, List[_SlotGroup]]] = None

    @property
    def nbytes(self) -> int:
        """Bytes of gather tables this plan owns (0 until a bulk apply)."""
        return sum(group.nbytes for group in self.passes[1]) if self.passes else 0

    def apply(self, b) -> np.ndarray:
        """``coeffs @ b``: (m, k) by (k, n) -> (m, n), in the plan's dtype.

        ``b`` is a 2-D array or a sequence of k equal-length 1-D rows —
        the kernels gather from each input row independently, so callers
        holding k separate chunks need not pay a (k, n) stacking copy.
        """
        if len(b) != self.k:
            raise ValueError(f"plan shape mismatch: {self.coeffs.shape} @ {len(b)} rows")
        dtype = self.coeffs.dtype
        n = len(b[0]) if self.k else 0
        if n * dtype.itemsize < KERNEL_MIN_BYTES or not self.m:
            return self.field.matmul_reference(self.coeffs, np.asarray(b, dtype=dtype))
        if n % 2 and dtype.itemsize == 1:
            # Pad to an even byte count so the byte-pair lanes are exact;
            # the padded column is zero and multiplies to zero.
            padded = np.zeros((self.k, n + 1), dtype=np.uint8)
            for t, row in enumerate(b):
                padded[t, :n] = row
            return np.ascontiguousarray(self.apply(padded)[:, :n])
        if isinstance(b, np.ndarray) and b.ndim == 2:
            lanes = np.ascontiguousarray(b, dtype=dtype).view(np.uint16)
        else:
            lanes = [np.ascontiguousarray(row, dtype=dtype).view(np.uint16) for row in b]
            if any(lane.shape != lanes[0].shape for lane in lanes) or lanes[0].ndim != 1:
                raise ValueError(f"plan expects {self.k} rows of {n} symbols each")
        out = np.zeros((self.m, n), dtype=dtype)
        out16 = out.view(np.uint16)
        if self.packed:
            if self.passes is None:
                self.passes = _read_matrix(self.coeffs, self.table)
            loop, passes = _apply_slots, self.passes
        else:
            loop = _apply_rows
            passes = (_row_steps(self.coeffs, self.cols, self.table),)
        nbytes_read = self.k * n * dtype.itemsize
        if nbytes_read < SPLIT_FROM_BYTES:
            loop(*passes, lanes, out16)
        else:
            w = PACKED_TILE_LANES
            split(
                partial(_apply_tiles, loop, passes, lanes, out16, w),
                -(-out16.shape[1] // w),
                nbytes_read,
            )
        return out


# ---------------------------------------------------------------------------
# global plan cache
# ---------------------------------------------------------------------------

_plan_cache: "OrderedDict[Tuple[str, Tuple[int, int], bytes], MulPlan]" = OrderedDict()


def plan_for_matrix(a: np.ndarray) -> MulPlan:
    """The cached :class:`MulPlan` for this coefficient matrix.

    Keyed by the matrix dtype, shape and bytes in a small LRU, so
    repeated matmuls against the same generator / inverse (every stripe
    of a code, every code object built for the same scheme) reuse one
    table set.
    """
    a = np.ascontiguousarray(a)
    key = (a.dtype.char, a.shape, a.tobytes())
    plan = _plan_cache.get(key)
    if plan is None:
        _COUNTERS["plan_misses"] += 1
        plan = MulPlan(a)
        _plan_cache[key] = plan
        while len(_plan_cache) > _PLAN_CACHE_MAX:
            _plan_cache.popitem(last=False)
            _COUNTERS["plan_evictions"] += 1
    else:
        _COUNTERS["plan_hits"] += 1
        _plan_cache.move_to_end(key)
    return plan


def clear_plan_caches() -> None:
    """Drop every cached plan, coefficient table, and pattern entry, and
    zero the hit/miss counters (tests / memory)."""
    _plan_cache.clear()
    _pair8_cache.clear()
    _full16_cache.clear()
    for pc in list(_pattern_caches):
        pc.clear()
    for key in _COUNTERS:
        _COUNTERS[key] = 0


# ---------------------------------------------------------------------------
# fused decode: composed recovery matrices keyed by failure pattern
# ---------------------------------------------------------------------------

#: Every live PatternCache, so :func:`cache_stats` can report aggregate
#: pattern residency without the codes layer registering anything.
_pattern_caches: "weakref.WeakSet" = weakref.WeakSet()


class FusedDecode(NamedTuple):
    """A composed recovery transform for one failure pattern.

    ``plan`` multiplies by ``R = generator[erased] @ inv(generator[use])``
    — an (e, k) matrix composed in the symbol domain — so decode is a
    single (e, k) chunk-domain product over the ``k`` survivor chunks
    listed in ``use`` instead of a (k, k) data-recovery matmul chained
    into an (e, k) re-encode. The plan is owned by this entry (not the
    global plan LRU), so a churn of failure patterns cannot evict the
    encode plans.
    """

    plan: MulPlan
    use: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return self.plan.coeffs.nbytes + self.plan.nbytes


class PatternCache:
    """LRU of :class:`FusedDecode` entries keyed by failure pattern.

    One per code instance. The key is the caller's
    ``(available-tuple, erased-tuple)`` pair. Capacity is small on
    purpose: a repair burst replays a handful of patterns (one per
    failed chunk position) thousands of times.
    """

    def __init__(self):
        self._entries: "OrderedDict[Tuple, FusedDecode]" = OrderedDict()
        _pattern_caches.add(self)

    def get(self, key: Tuple) -> Optional[FusedDecode]:
        entry = self._entries.get(key)
        if entry is None:
            _COUNTERS["pattern_misses"] += 1
            return None
        _COUNTERS["pattern_hits"] += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Tuple, value: FusedDecode) -> None:
        self._entries[key] = value
        while len(self._entries) > _PATTERN_CACHE_MAX:
            self._entries.popitem(last=False)
            _COUNTERS["pattern_evictions"] += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())


# ---------------------------------------------------------------------------
# scale-and-accumulate (the transcode primitive)
# ---------------------------------------------------------------------------

def gf_scale_xor(acc: np.ndarray, c: int, x: np.ndarray) -> np.ndarray:
    """``acc ^= c * x`` in place over the field ``acc.dtype`` names,
    tile by tile for bulk chunks.

    The inner step of every parity merge in the transcoder: one
    coefficient streamed over one contiguous chunk through its shared
    table, :data:`PACKED_TILE_LANES` lanes a gather like every loop
    here, on the calling thread: a merge step reads two chunks, under
    :data:`SPLIT_FROM_BYTES` at every chunk size a workload uses. Falls
    back to the field's elementwise product for small, odd-length or
    strided operands.
    """
    c = int(c)
    if c == 0:
        return acc
    if c == 1:
        np.bitwise_xor(acc, x, out=acc)
        return acc
    field = field_of(acc.dtype)
    if (
        acc.ndim != 1
        or acc.nbytes < KERNEL_MIN_BYTES
        or acc.nbytes % 2
        or not acc.flags.c_contiguous
        or not x.flags.c_contiguous
    ):
        np.bitwise_xor(acc, field.mul(c, x), out=acc)
        return acc
    table = LANE_TABLE[field](c)
    a16 = acc.view(np.uint16)
    x16 = x.view(np.uint16)
    w = min(PACKED_TILE_LANES, a16.shape[0])
    tmp = np.empty(w, dtype=np.uint16)
    for start in range(0, a16.shape[0], w):
        stop = min(start + w, a16.shape[0])
        ww = stop - start
        np.take(table, x16[start:stop], out=tmp[:ww], mode="clip")
        np.bitwise_xor(a16[start:stop], tmp[:ww], out=a16[start:stop])
    return acc


def gf_scale(c: int, x: np.ndarray) -> np.ndarray:
    """``c * x`` for a contiguous chunk (allocating)."""
    c = int(c)
    if c == 0:
        return np.zeros_like(x)
    if c == 1:
        return x.copy()
    out = np.zeros_like(x)
    return gf_scale_xor(out, c, x)


def cache_stats() -> Dict[str, int]:
    """Introspection for tests, the bench harness, and ``repro report``.

    Entry/byte counts are point-in-time; the ``*_hits`` / ``*_misses`` /
    ``*_evictions`` counters are cumulative since process start (or the
    last :func:`clear_plan_caches`).
    """
    pattern_entries = 0
    pattern_bytes = 0
    for pc in list(_pattern_caches):
        pattern_entries += len(pc)
        pattern_bytes += pc.nbytes
    stats = {
        "plans": len(_plan_cache),
        "plan_bytes": sum(p.nbytes for p in _plan_cache.values()),
        "coeff_tables": len(_pair8_cache) + len(_full16_cache),
        "coeff_table_bytes": (
            sum(t.nbytes for t in _pair8_cache.values())
            + sum(t.nbytes for t in _full16_cache.values())
        ),
        "pattern_caches": len(_pattern_caches),
        "pattern_entries": pattern_entries,
        "pattern_bytes": pattern_bytes,
    }
    stats.update(_COUNTERS)
    stats["resident_bytes"] = (
        stats["plan_bytes"] + stats["pattern_bytes"] + stats["coeff_table_bytes"]
    )
    return stats
