"""Cache-blocked bulk-multiply kernels for GF(2^8) and GF(2^16).

The reference matmuls in :mod:`repro.gf.matrix` and
:mod:`repro.gf.field16` are exact but allocate a full ``(m, n, k)``
intermediate (GF(2^8)) or do per-element log/exp lookups with a fresh
zero mask per element (GF(2^16)). Production erasure codecs (ISA-L,
Jerasure) instead stream small per-coefficient multiply tables over
contiguous data. This module is the numpy rendition of that idea:

* **Pair tables** — for a coefficient ``c`` over GF(2^8), a 65536-entry
  ``uint16`` table maps a little pair of bytes ``(x0, x1)`` to
  ``(c*x0, c*x1)`` in one gather, halving the index count versus a
  256-entry byte table. Over GF(2^16) the analogous table maps a whole
  symbol ``x`` to ``c*x`` (built from two 256-entry half-symbol tables,
  never from an 8 GiB product table). Both are position-preserving
  per-byte/symbol maps, so they are endianness-independent.
* **Multiply plans** — :class:`MulPlan8` / :class:`MulPlan16` precompute,
  for a fixed coefficient matrix, one *combined* ``(65536, m)`` table per
  input row: a single ``np.take`` then yields the contribution of that
  input row to **all** ``m`` outputs. Plans are built once per generator
  (cached on the :class:`~repro.codes.base.ErasureCode` and in a global
  LRU keyed by matrix bytes) and reused across every stripe of a code.
* **Cache blocking** — ``apply`` walks the byte axis in tiles sized so
  the accumulator + gather scratch stay within :data:`TILE_BYTES`
  regardless of chunk length; no ``(m, n, k)`` intermediate is ever
  materialised, so memory is O(tile) instead of O(m*n*k).

Wide matrices (``m`` above :data:`COMBINE_MAX_ROWS`) fall back to a
row-at-a-time blocked loop over shared per-coefficient tables (GF(2^8))
or a hoisted-log loop that applies the zero mask once per coefficient
instead of once per element (GF(2^16)). So does a single-row GF(2^8)
matrix (``m == 1``, the recovery of one lost chunk): the same gathers
per byte straight from the shared tables, and the plan owns none.

Dispatch policy lives with the callers (:func:`repro.gf.matrix.gf_matmul`
and :func:`repro.gf.field16.gf16_matmul`): below
:data:`KERNEL_MIN_BYTES` per row the reference path is faster because a
gather cannot amortise; at or above it the kernels win by ~5-10x.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gf.field import _MUL_TABLE

#: Per-row byte count at which matmuls dispatch to the kernel layer.
#: Below this the reference paths win (gathers cannot amortise).
KERNEL_MIN_BYTES = 4096

#: Bytes of accumulator + scratch a blocked tile may occupy. Large
#: enough to amortise per-call numpy dispatch over each gather, small
#: enough that scratch stays bounded (and last-level-cache resident) no
#: matter how long the chunk axis is; measured optimum on 1 MiB chunks.
TILE_BYTES = 1 << 22

#: Widest output (row count) a combined per-column table is built for.
#: Beyond this the (65536, m) tables outgrow L2 and the row-loop wins.
COMBINE_MAX_ROWS = 8

#: Widest GF(2^16) output packed into single-uint64-lane tables. Up to
#: four 16-bit products ride one (65536,) uint64 gather, so a narrow
#: matrix (fused recovery, parity rows of a wide code) costs one gather
#: per input column instead of one per (row, column).
PACK_MAX_ROWS = 4

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
#: (global plan LRUs, per-coefficient table LRUs, per-code pattern LRUs).
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
# per-coefficient tables
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
    """(65536,) uint16 table: byte-pair ``x`` -> ``(c*x_lo, c*x_hi)``."""

    def build() -> np.ndarray:
        row = _MUL_TABLE[c].astype(np.uint16)
        return (row[_PAIR_IDX_LO] | (row[_PAIR_IDX_HI] << 8)).astype(np.uint16)

    return _cache_get(_pair8_cache, int(c), build)


def mul_table16(c: int) -> np.ndarray:
    """(65536,) uint16 table: GF(2^16) symbol ``x`` -> ``c * x``.

    Built from two 256-entry half-symbol tables via linearity:
    ``c*x = c*lo(x) ^ (c*z^8)*hi(x)`` where ``z^8`` is the field element
    0x100 — never from the infeasible 8 GiB full product table.
    """

    def build() -> np.ndarray:
        from repro.gf.field16 import gf16_mul

        half = np.arange(256, dtype=np.uint16)
        lo_tab = gf16_mul(np.uint16(c), half)
        hi_tab = gf16_mul(np.uint16(gf16_mul(int(c), 0x100)), half)
        return (lo_tab[_PAIR_IDX_LO] ^ hi_tab[_PAIR_IDX_HI]).astype(np.uint16)

    return _cache_get(_full16_cache, int(c), build)


# ---------------------------------------------------------------------------
# the blocked core (shared by both fields)
# ---------------------------------------------------------------------------

def _combined_tables(
    coeffs: np.ndarray, cols: List[int], table_fn
) -> List[np.ndarray]:
    """One (65536, m) uint16 table per nonzero input row of ``coeffs``."""
    m = coeffs.shape[0]
    out = []
    for t in cols:
        tab = np.zeros((1 << 16, m), dtype=np.uint16)
        for i in range(m):
            c = int(coeffs[i, t])
            if c:
                tab[:, i] = table_fn(c)
        out.append(np.ascontiguousarray(tab))
    return out


def _packed_tables(
    coeffs: np.ndarray, cols: List[int], table_fn
) -> List[np.ndarray]:
    """One (65536,) uint64 table per nonzero input row: the ``m <= 4``
    per-output products for a symbol packed into one 64-bit lane."""
    m = coeffs.shape[0]
    out = []
    for t in cols:
        tab = np.zeros(1 << 16, dtype=np.uint64)
        for i in range(m):
            c = int(coeffs[i, t])
            if c:
                tab |= table_fn(c).astype(np.uint64) << np.uint64(16 * i)
        out.append(tab)
    return out


def _apply_packed(
    tables: List[np.ndarray],
    cols: List[int],
    b16: np.ndarray,
    out16: np.ndarray,
) -> None:
    """out16 (m, L) rows unpacked from a single uint64 gather per column.

    One ``np.take`` per input column produces all ``m`` output rows at
    once (XOR distributes over the packed lanes), so a narrow fused
    recovery or parity matrix costs ``k`` gathers total instead of
    ``k`` per output row — the dominant win for wide GF(2^16) codes.
    """
    if not tables:
        return  # all-zero coefficients: out16 is already zeroed
    m, n16 = out16.shape
    # acc + tmp (two (w,) uint64 buffers) together fill the tile budget.
    w = max(1024, TILE_BYTES // 16)
    acc = np.empty(min(w, n16), dtype=np.uint64)
    tmp = np.empty_like(acc)
    for start in range(0, n16, w):
        stop = min(start + w, n16)
        ww = stop - start
        a = acc[:ww]
        for j, (tab, t) in enumerate(zip(tables, cols)):
            if j == 0:
                np.take(tab, b16[t][start:stop], out=a, mode="clip")
            else:
                np.take(tab, b16[t][start:stop], out=tmp[:ww], mode="clip")
                np.bitwise_xor(a, tmp[:ww], out=a)
        out16[0, start:stop] = a.astype(np.uint16)
        for i in range(1, m):
            np.right_shift(a, np.uint64(16 * i), out=tmp[:ww])
            out16[i, start:stop] = tmp[:ww].astype(np.uint16)


def _apply_combined(
    tables: List[np.ndarray],
    cols: List[int],
    b16: np.ndarray,
    out16: np.ndarray,
) -> None:
    """out16 (m, L) ^= sum_t tables[t][b16[t]], tiled along the symbol axis."""
    if not tables:
        return  # all-zero coefficients: out16 is already zeroed
    m, n16 = out16.shape
    # Tile so acc + tmp (two (w, m) uint16 buffers) fit the tile budget.
    w = max(1024, TILE_BYTES // (4 * max(m, 1)))
    acc = np.empty((min(w, n16), m), dtype=np.uint16)
    tmp = np.empty_like(acc)
    for start in range(0, n16, w):
        stop = min(start + w, n16)
        ww = stop - start
        a = acc[:ww]
        for j, (tab, t) in enumerate(zip(tables, cols)):
            # mode="clip" is a no-op for uint16 indices into a 65536-row
            # table but skips numpy's buffered bounds-checked take path.
            if j == 0:
                # First input row gathers straight into the accumulator —
                # one fewer full pass over the tile.
                np.take(tab, b16[t][start:stop], axis=0, out=a, mode="clip")
            else:
                np.take(tab, b16[t][start:stop], axis=0, out=tmp[:ww], mode="clip")
                np.bitwise_xor(a, tmp[:ww], out=a)
        out16[:, start:stop] = a.T


def _apply_rows8(
    coeffs: np.ndarray, cols: List[int], b16: np.ndarray, out16: np.ndarray
) -> None:
    """Row-at-a-time blocked loop over the shared pair tables: outputs
    too wide to combine, and single rows, which have nothing to combine.

    A single row gathers for a coefficient of 1 as for any other, like
    the ``(65536, 1)`` tables it replaces: rebuilding one chunk then
    costs the same whichever slot of the stripe was lost. XORing ones
    instead makes the slots next to the XOR parity ~4x cheaper than the
    rest, and a drill's repair rate swings ~20 % between failure
    patterns of equal severity (docs/performance.md, "Repair path")."""
    m, n16 = out16.shape
    xor_ones = m > 1
    w = max(1024, TILE_BYTES // 4)
    tmp = np.empty(min(w, n16), dtype=np.uint16)
    for start in range(0, n16, w):
        stop = min(start + w, n16)
        ww = stop - start
        for i in range(m):
            acc = out16[i, start:stop]
            for t in cols:
                c = int(coeffs[i, t])
                if c == 0:
                    continue
                seg = b16[t, start:stop]
                if c == 1 and xor_ones:
                    np.bitwise_xor(acc, seg, out=acc)
                else:
                    np.take(pair_table8(c), seg, out=tmp[:ww], mode="clip")
                    np.bitwise_xor(acc, tmp[:ww], out=acc)


def _apply_rows16(
    coeffs: np.ndarray, cols: List[int], b: np.ndarray, out: np.ndarray
) -> None:
    """GF(2^16) wide-output path: per-coefficient log/exp with the
    generator's logs hoisted out of the inner loop and the operand zero
    mask computed once per input row (not once per element)."""
    from repro.gf.field16 import _EXP16, _LOG16

    m = out.shape[0]
    log_coeffs = _LOG16[coeffs.astype(np.int64)]
    for t in cols:
        row = b[t]
        log_row = _LOG16[row.astype(np.int64)]
        zero = row == 0
        any_zero = bool(zero.any())
        for i in range(m):
            c = int(coeffs[i, t])
            if c == 0:
                continue
            prod = _EXP16[log_coeffs[i, t] + log_row].astype(np.uint16)
            if any_zero:
                prod[zero] = 0
            out[i] ^= prod


# ---------------------------------------------------------------------------
# multiply plans
# ---------------------------------------------------------------------------

class MulPlan8:
    """A reusable bulk-multiply plan for a fixed GF(2^8) matrix.

    ``apply(b)`` computes ``coeffs @ b`` over GF(256) for bulk ``b``
    without materialising an ``(m, n, k)`` intermediate. Build once per
    generator (it gathers 128 KiB of tables per coefficient column) and
    reuse across stripes; :func:`plan_for_matrix` does this caching.
    """

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=np.uint8)
        if coeffs.ndim != 2:
            raise ValueError("MulPlan8 expects a 2-D coefficient matrix")
        self.coeffs = coeffs
        self.m, self.k = coeffs.shape
        self.cols = [t for t in range(self.k) if coeffs[:, t].any()]
        # A single-row transform (one lost chunk: the common repair) has
        # nothing to combine — its (65536, 1) tables would be private
        # copies of the shared pair tables, k * 128 KiB rebuilt and pinned
        # per failure pattern. It gathers from the shared LRU instead.
        self.combined = 1 < self.m <= COMBINE_MAX_ROWS
        self.tables: List[np.ndarray] = (
            _combined_tables(coeffs, self.cols, pair_table8)
            if self.combined
            else []
        )

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tables)

    def apply(self, b: np.ndarray, check: bool = True) -> np.ndarray:
        """``coeffs @ b`` over GF(256); ``b`` is (k, n) uint8."""
        if check:
            b = np.ascontiguousarray(b, dtype=np.uint8)
            if b.ndim != 2 or b.shape[0] != self.k:
                raise ValueError(
                    f"plan shape mismatch: {self.coeffs.shape} @ {b.shape}"
                )
        n = b.shape[1]
        if n % 2:
            # Pad to an even byte count so the uint16 view is exact; the
            # padded column is zero and multiplies to zero.
            padded = np.zeros((self.k, n + 1), dtype=np.uint8)
            padded[:, :n] = b
            return np.ascontiguousarray(self.apply(padded, check=False)[:, :n])
        out = np.zeros((self.m, n), dtype=np.uint8)
        if n == 0:
            return out
        b16 = b.view(np.uint16)
        out16 = out.view(np.uint16)
        if self.combined:
            _apply_combined(self.tables, self.cols, b16, out16)
        else:
            _apply_rows8(self.coeffs, self.cols, b16, out16)
        return out


class MulPlan16:
    """A reusable bulk-multiply plan for a fixed GF(2^16) matrix.

    Same shape contract as :func:`repro.gf.field16.gf16_matmul`:
    ``apply(b)`` with ``b`` of uint16 symbols, (k, L) -> (m, L).
    """

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=np.uint16)
        if coeffs.ndim != 2:
            raise ValueError("MulPlan16 expects a 2-D coefficient matrix")
        self.coeffs = coeffs
        self.m, self.k = coeffs.shape
        self.cols = [t for t in range(self.k) if coeffs[:, t].any()]
        self.packed = self.m <= PACK_MAX_ROWS
        self.combined = not self.packed and self.m <= COMBINE_MAX_ROWS
        if self.packed:
            self.tables: List[np.ndarray] = _packed_tables(
                coeffs, self.cols, mul_table16
            )
        elif self.combined:
            self.tables = _combined_tables(coeffs, self.cols, mul_table16)
        else:
            self.tables = []

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tables)

    def apply(self, b: np.ndarray, check: bool = True) -> np.ndarray:
        if check:
            b = np.ascontiguousarray(b, dtype=np.uint16)
            if b.ndim != 2 or b.shape[0] != self.k:
                raise ValueError(
                    f"plan shape mismatch: {self.coeffs.shape} @ {b.shape}"
                )
        out = np.zeros((self.m, b.shape[1]), dtype=np.uint16)
        if b.shape[1] == 0:
            return out
        if self.packed:
            _apply_packed(self.tables, self.cols, b, out)
        elif self.combined:
            _apply_combined(self.tables, self.cols, b, out)
        else:
            _apply_rows16(self.coeffs, self.cols, b, out)
        return out

    def apply_rows(self, rows: List[np.ndarray]) -> np.ndarray:
        """:meth:`apply` over k separate 1-D symbol arrays, unstacked.

        The gather kernels index input rows independently, so callers
        holding k equal-length chunks need not pay a (k, L) stacking
        copy — each row is gathered straight from its own buffer.
        """
        if len(rows) != self.k:
            raise ValueError(f"plan expects {self.k} rows, got {len(rows)}")
        n16 = len(rows[0])
        out = np.zeros((self.m, n16), dtype=np.uint16)
        if n16 == 0:
            return out
        if self.packed:
            _apply_packed(self.tables, self.cols, rows, out)
        elif self.combined:
            _apply_combined(self.tables, self.cols, rows, out)
        else:
            _apply_rows16(self.coeffs, self.cols, rows, out)
        return out


# ---------------------------------------------------------------------------
# global plan cache
# ---------------------------------------------------------------------------

_plan8_cache: "OrderedDict[Tuple[Tuple[int, int], bytes], MulPlan8]" = OrderedDict()
_plan16_cache: "OrderedDict[Tuple[Tuple[int, int], bytes], MulPlan16]" = OrderedDict()


def _plan_lookup(cache: OrderedDict, a: np.ndarray, cls):
    key = (a.shape, a.tobytes())
    plan = cache.get(key)
    if plan is None:
        _COUNTERS["plan_misses"] += 1
        plan = cls(a)
        cache[key] = plan
        while len(cache) > _PLAN_CACHE_MAX:
            cache.popitem(last=False)
            _COUNTERS["plan_evictions"] += 1
    else:
        _COUNTERS["plan_hits"] += 1
        cache.move_to_end(key)
    return plan


def plan_for_matrix(a: np.ndarray) -> MulPlan8:
    """The cached :class:`MulPlan8` for this coefficient matrix.

    Keyed by the matrix bytes in a small LRU, so repeated matmuls against
    the same generator / inverse (every stripe of a code, every degraded
    read of the same erasure pattern) reuse one table set.
    """
    return _plan_lookup(_plan8_cache, np.ascontiguousarray(a, dtype=np.uint8), MulPlan8)


def plan_for_matrix16(a: np.ndarray) -> MulPlan16:
    """The cached :class:`MulPlan16` for this GF(2^16) matrix."""
    return _plan_lookup(
        _plan16_cache, np.ascontiguousarray(a, dtype=np.uint16), MulPlan16
    )


def clear_plan_caches() -> None:
    """Drop every cached plan, coefficient table, and pattern entry, and
    zero the hit/miss counters (tests / memory)."""
    _plan8_cache.clear()
    _plan16_cache.clear()
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


class PatternCache:
    """LRU of composed decode plans keyed by failure pattern.

    One per code instance. The key is the caller's
    ``(available-tuple, erased-tuple)`` pair; the value is a
    :class:`FusedDecode8` / :class:`FusedDecode16` holding the composed
    ``gen_rows @ inv`` recovery matrix and its lazily built multiply
    plan. Capacity is small on purpose: a repair burst replays a handful
    of patterns (one per failed chunk position) thousands of times.
    """

    def __init__(self, capacity: int = _PATTERN_CACHE_MAX):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        _pattern_caches.add(self)

    def get(self, key: Tuple):
        entry = self._entries.get(key)
        if entry is None:
            _COUNTERS["pattern_misses"] += 1
            return None
        _COUNTERS["pattern_hits"] += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Tuple, value) -> None:
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            _COUNTERS["pattern_evictions"] += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return sum(int(getattr(v, "nbytes", 0)) for v in self._entries.values())


class FusedDecode8:
    """A composed GF(2^8) recovery transform for one failure pattern.

    Holds ``R = generator[erased] @ inv(generator[use])`` — an (e, k)
    matrix composed in the symbol domain — so decode is a single (e, k)
    chunk-domain product over the ``k`` survivor chunks listed in
    ``use`` instead of a (k, k) data-recovery matmul chained into an
    (e, k) re-encode. The multiply plan is built lazily on the first
    bulk apply and owned by this object (not the global plan LRU), so a
    churn of failure patterns cannot evict pinned encode plans.
    """

    __slots__ = ("matrix", "use", "erased", "_plan")

    def __init__(self, matrix: np.ndarray, use, erased):
        self.matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
        self.use = tuple(int(i) for i in use)
        self.erased = tuple(int(i) for i in erased)
        self._plan: Optional[MulPlan8] = None

    @property
    def nbytes(self) -> int:
        n = self.matrix.nbytes
        if self._plan is not None:
            n += self._plan.nbytes
        return n

    def apply(self, b: np.ndarray) -> np.ndarray:
        """``R @ b``: (k, L) stacked survivor chunks -> (e, L) erased rows."""
        if b.shape[1] >= KERNEL_MIN_BYTES:
            if self._plan is None:
                self._plan = MulPlan8(self.matrix)
            return self._plan.apply(b)
        from repro.gf.matrix import gf_matmul_reference

        return gf_matmul_reference(self.matrix, b)


class FusedDecode16:
    """GF(2^16) sibling of :class:`FusedDecode8` (uint16 symbol chunks)."""

    __slots__ = ("matrix", "use", "erased", "_plan")

    def __init__(self, matrix: np.ndarray, use, erased):
        self.matrix = np.ascontiguousarray(matrix, dtype=np.uint16)
        self.use = tuple(int(i) for i in use)
        self.erased = tuple(int(i) for i in erased)
        self._plan: Optional[MulPlan16] = None

    @property
    def nbytes(self) -> int:
        n = self.matrix.nbytes
        if self._plan is not None:
            n += self._plan.nbytes
        return n

    def apply(self, b: np.ndarray) -> np.ndarray:
        if 2 * b.shape[1] >= KERNEL_MIN_BYTES:
            if self._plan is None:
                self._plan = MulPlan16(self.matrix)
            return self._plan.apply(b)
        from repro.gf.field16 import gf16_matmul_reference

        return gf16_matmul_reference(self.matrix, b)

    def apply_rows(self, rows: List[np.ndarray]) -> np.ndarray:
        """:meth:`apply` over k separate symbol arrays (no stacking copy)."""
        if rows and 2 * len(rows[0]) >= KERNEL_MIN_BYTES:
            if self._plan is None:
                self._plan = MulPlan16(self.matrix)
            return self._plan.apply_rows(rows)
        from repro.gf.field16 import gf16_matmul_reference

        return gf16_matmul_reference(self.matrix, np.stack(rows))


# ---------------------------------------------------------------------------
# scale-and-accumulate (the transcode primitive)
# ---------------------------------------------------------------------------

def gf_scale_xor(acc: np.ndarray, c: int, x: np.ndarray) -> np.ndarray:
    """``acc ^= c * x`` over GF(2^8), in place, blocked for bulk chunks.

    The inner step of every parity merge in the transcoder: one
    coefficient streamed over one contiguous chunk. Falls back to the
    byte-table gather for small or odd-length operands.
    """
    c = int(c)
    if c == 0:
        return acc
    if c == 1:
        np.bitwise_xor(acc, x, out=acc)
        return acc
    n = acc.shape[-1]
    if (
        acc.ndim != 1
        or n < KERNEL_MIN_BYTES
        or n % 2
        or not acc.flags.c_contiguous
        or not x.flags.c_contiguous
    ):
        np.bitwise_xor(acc, _MUL_TABLE[c, x], out=acc)
        return acc
    table = pair_table8(c)
    a16 = acc.view(np.uint16)
    x16 = x.view(np.uint16)
    w = max(1024, TILE_BYTES // 4)
    tmp = np.empty(min(w, a16.shape[0]), dtype=np.uint16)
    for start in range(0, a16.shape[0], w):
        stop = min(start + w, a16.shape[0])
        ww = stop - start
        np.take(table, x16[start:stop], out=tmp[:ww], mode="clip")
        np.bitwise_xor(a16[start:stop], tmp[:ww], out=a16[start:stop])
    return acc


def gf16_scale_xor(acc: np.ndarray, c: int, x: np.ndarray) -> np.ndarray:
    """``acc ^= c * x`` over GF(2^16), in place, for uint16 symbol arrays.

    The GF(2^16) sibling of :func:`gf_scale_xor`, used by the wide-stripe
    parity merge: one coefficient streamed over one contiguous symbol
    chunk through the cached full-symbol table. Falls back to
    :func:`repro.gf.field16.gf16_mul` for small or strided operands.
    """
    c = int(c)
    if c == 0:
        return acc
    if c == 1:
        np.bitwise_xor(acc, x, out=acc)
        return acc
    n = acc.shape[-1]
    if (
        acc.ndim != 1
        or 2 * n < KERNEL_MIN_BYTES
        or not acc.flags.c_contiguous
        or not x.flags.c_contiguous
    ):
        from repro.gf.field16 import gf16_mul

        np.bitwise_xor(acc, gf16_mul(np.uint16(c), x), out=acc)
        return acc
    table = mul_table16(c)
    w = max(1024, TILE_BYTES // 4)
    tmp = np.empty(min(w, n), dtype=np.uint16)
    for start in range(0, n, w):
        stop = min(start + w, n)
        ww = stop - start
        np.take(table, x[start:stop], out=tmp[:ww], mode="clip")
        np.bitwise_xor(acc[start:stop], tmp[:ww], out=acc[start:stop])
    return acc


def gf_scale(c: int, x: np.ndarray) -> np.ndarray:
    """``c * x`` over GF(2^8) for a contiguous chunk (allocating)."""
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
        "plans8": len(_plan8_cache),
        "plans16": len(_plan16_cache),
        "coeff_tables8": len(_pair8_cache),
        "coeff_tables16": len(_full16_cache),
        "plan8_bytes": sum(p.nbytes for p in _plan8_cache.values()),
        "plan16_bytes": sum(p.nbytes for p in _plan16_cache.values()),
        "pattern_caches": len(_pattern_caches),
        "pattern_entries": pattern_entries,
        "pattern_bytes": pattern_bytes,
        "coeff_table_bytes": (
            sum(t.nbytes for t in _pair8_cache.values())
            + sum(t.nbytes for t in _full16_cache.values())
        ),
    }
    stats.update(_COUNTERS)
    stats["resident_bytes"] = (
        stats["plan8_bytes"]
        + stats["plan16_bytes"]
        + stats["pattern_bytes"]
        + stats["coeff_table_bytes"]
    )
    return stats
