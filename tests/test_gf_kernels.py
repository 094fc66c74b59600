"""Differential tests: the blocked GF kernels vs the reference matmuls.

Every fast path must be *bit-identical* to the straightforward reference
implementation — a GF kernel that is fast but off by one symbol corrupts
stripes silently. One plan class serves both fields, so the shape matrix
(``TestMulPlanMatrix``) runs field x m x k x edge case against the
field's own reference; the randomized sweeps and the edge cases the
kernels special-case (chunk_len 1, odd lengths, k=1, all-zero
coefficients, zero operands) stay pinned explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gf import kernels
from repro.gf.kernels import (
    COMBINE_MAX_ROWS,
    GF8,
    GF16,
    KERNEL_MIN_BYTES,
    MulPlan,
    cache_stats,
    clear_plan_caches,
    gf_scale,
    gf_scale_xor,
    mul_table16,
    pair_table8,
    plan_for_matrix,
)
from repro.gf.matrix import gf_matmul


def _rand8(rng, *shape):
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _rand16(rng, *shape):
    return rng.integers(0, 1 << 16, size=shape, dtype=np.uint16)


def _rand(field, rng, *shape):
    return rng.integers(0, 1 << (8 * field.dtype.itemsize), size=shape, dtype=field.dtype)


def _zero_last_column(a):
    a[:, -1] = 0


def _zero_and_one(a):
    a[0, :2] = (0, 1)


#: name -> (row length in symbols, edit of the coefficients, rows as a list)
_SHAPE_CASES = {
    "odd_length": (KERNEL_MIN_BYTES + 1, None, False),
    "below_kernel_threshold": (KERNEL_MIN_BYTES // 2 - 2, None, False),
    "two_tiles": (2 * KERNEL_MIN_BYTES + 6, None, False),
    "zero_column": (KERNEL_MIN_BYTES, _zero_last_column, False),
    "zero_and_one": (KERNEL_MIN_BYTES, _zero_and_one, False),
    "list_of_rows": (KERNEL_MIN_BYTES, None, True),
}


def _xor_row_everywhere(a, rng):
    for i in range(len(a)):
        b = a.copy()
        b[i] = 1
        yield b


def _two_xor_rows(a, rng):
    a[0] = a[-1] = 1
    yield a


def _partial_xor_rows(a, rng):
    # LRC local parities: ones over one half of the inputs, zeros over
    # the other.
    half = a.shape[1] // 2
    a[0, :half], a[0, half:] = 1, 0
    a[1, :half], a[1, half:] = 0, 1
    yield a


def _all_xor(a, rng):
    yield rng.integers(0, 2, size=a.shape).astype(a.dtype)


def _zero_row(a, rng):
    a[len(a) // 2] = 0
    yield a


def _zero_one_column_everywhere(a, rng):
    for t in range(a.shape[1]):
        b = a.copy()
        b[:, t] = rng.integers(0, 2, size=len(a))
        b[t % len(a), t] = 1
        yield b


def _cc_like(a, rng):
    # CC's parity block: an XOR row and a column of ones.
    a[0] = 1
    a[:, 0] = 1
    yield a


def _no_structure(a, rng):
    yield a


#: edits of a matrix whose coefficients are all >= 2, each yielding the
#: matrices to try
_STRUCTURES = {
    "xor_row_everywhere": _xor_row_everywhere,
    "two_xor_rows": _two_xor_rows,
    "partial_xor_rows": _partial_xor_rows,
    "all_xor": _all_xor,
    "zero_row": _zero_row,
    "zero_one_column_everywhere": _zero_one_column_everywhere,
    "cc_like": _cc_like,
    "no_structure": _no_structure,
}
_TEST_TILE_LANES = 1 << 12
#: row lengths in bytes around a tile boundary (tile - 2, tile, tile + 2
#: lanes), odd, and either side of the kernel threshold
_STRUCTURE_BYTES = [
    2 * _TEST_TILE_LANES - 4,
    2 * _TEST_TILE_LANES,
    2 * _TEST_TILE_LANES + 4,
    2 * _TEST_TILE_LANES + 1,
    4 * _TEST_TILE_LANES + 3,
    KERNEL_MIN_BYTES - 2,
    KERNEL_MIN_BYTES + 2,
]


class TestMulPlanMatrix:
    """Both strategies (matrix-reading slot groups for 2 <= m <= 8, the
    row loop for m = 1 and m > 8), both fields, the widths the codes use."""

    @pytest.mark.parametrize("case", sorted(_SHAPE_CASES))
    @pytest.mark.parametrize("k", [4, 6, 12, 34])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 12])
    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_bit_identical_to_field_reference(self, monkeypatch, field, m, k, case):
        # Tiles of 1024 lanes, so a 4 K-lane row spans several.
        monkeypatch.setattr(kernels, "PACKED_TILE_LANES", 1 << 10)
        n, edit, as_list = _SHAPE_CASES[case]
        rng = np.random.default_rng([field.dtype.itemsize, m, k, n])
        # Coefficients from a small alphabet: a table is built per
        # distinct one, and 12 x 34 distinct GF(2^16) tables are most of
        # a second.
        a = _rand(field, rng, 24)[rng.integers(0, 24, size=(m, k))]
        if edit is not None:
            edit(a)
        b = _rand(field, rng, k, n)
        b[0, ::5] = 0  # zero operands have no logarithm
        got = MulPlan(a).apply(list(b) if as_list else b)
        assert got.dtype == field.dtype
        assert np.array_equal(got, field.matmul_reference(a, b))

    @pytest.mark.parametrize("structure", sorted(_STRUCTURES))
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_structured_matrices_bit_identical_to_field_reference(
        self, monkeypatch, field, m, structure
    ):
        """A plan reads its matrix — XOR rows, 0/1 columns, slot groups —
        and whatever it finds there, the product is the reference's."""
        monkeypatch.setattr(kernels, "PACKED_TILE_LANES", _TEST_TILE_LANES)
        k = 6
        rng = np.random.default_rng([field.dtype.itemsize, m, len(structure)])
        alphabet = _rand(field, rng, 24) | 2
        base = alphabet[rng.integers(0, 24, size=(m, k))]
        data = _rand(field, rng, k, max(_STRUCTURE_BYTES))
        data[0, ::5] = 0  # zero operands have no logarithm
        lengths = [nbytes // field.dtype.itemsize for nbytes in _STRUCTURE_BYTES]
        for a in _STRUCTURES[structure](base, rng):
            plan = MulPlan(a)
            for j, n in enumerate(lengths):
                b = data[:, :n]
                assert np.array_equal(
                    plan.apply(list(b) if j % 2 else b), field.matmul_reference(a, b)
                ), (a, n)

    @pytest.mark.parametrize("m", [1, COMBINE_MAX_ROWS + 1])
    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_row_loop_bit_identical_across_tile_boundaries(self, monkeypatch, field, m):
        """The row loop walks the same tiles as the slot groups: a row
        that ends a lane short of, on, or past a tile, or in an odd byte,
        is the reference's — ones included, which a single row gathers."""
        monkeypatch.setattr(kernels, "PACKED_TILE_LANES", _TEST_TILE_LANES)
        k = 6
        rng = np.random.default_rng([field.dtype.itemsize, m])
        a = _rand(field, rng, 24)[rng.integers(0, 24, size=(m, k))]
        a[0, :2] = (0, 1)
        data = _rand(field, rng, k, max(_STRUCTURE_BYTES))
        data[0, ::5] = 0
        plan = MulPlan(a)
        for j, nbytes in enumerate(_STRUCTURE_BYTES):
            b = data[:, : nbytes // field.dtype.itemsize]
            got = plan.apply(list(b) if j % 2 else b)
            assert np.array_equal(got, field.matmul_reference(a, b)), nbytes
        assert plan.nbytes == 0

    @pytest.mark.parametrize("m", range(2, COMBINE_MAX_ROWS + 1))
    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_combined_table_rows_are_a_power_of_two_wide(self, field, m):
        """A table row is its group's 16-bit slots in one integer, the
        slot count padded to a power of two: numpy's take moves 4/8-byte
        items with one copy and any other size (three slots unpadded: 6
        bytes) byte by byte, 1.5-1.7x slower. Rows go four to a group,
        and a group of one gathers from the shared tables."""
        rng = np.random.default_rng(m)
        plan = MulPlan(_rand(field, rng, m, 3) | 2)  # no coefficient is 0 or 1
        assert plan.nbytes == 0  # tables wait for the first bulk apply
        plan.apply(_rand(field, rng, 3, KERNEL_MIN_BYTES))
        groups = plan.passes[1]
        sizes = [len(group.rows) for group in groups]
        assert sizes == [4] * (m // 4) + [m % 4] * bool(m % 4)
        owned = 0
        for group, size in zip(groups, sizes):
            item = 2 << (size - 1).bit_length()
            assert group.dtype.itemsize == item
            assert [(tab.shape, tab.itemsize) for _t, tab in group.steps] == [
                ((1 << 16,), item)
            ] * 3
            owned += 3 * (item << 16) if size > 1 else 0
        assert plan.nbytes == owned

    def test_field_is_the_coefficient_dtype_and_nothing_else(self):
        assert MulPlan(np.zeros((2, 3), dtype=np.uint8)).field is GF8
        assert MulPlan(np.zeros((2, 3), dtype=np.uint16)).field is GF16
        with pytest.raises(ValueError):
            MulPlan(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            MulPlan(np.zeros((2, 3), dtype=np.uint8)).apply(np.zeros((4, 8), np.uint8))
        with pytest.raises(ValueError):
            MulPlan(np.zeros((2, 2), dtype=np.uint8)).apply(
                [np.zeros(8192, np.uint8), np.zeros(8190, np.uint8)]
            )


class TestMulPlan8Differential:
    def test_randomized_shapes_bit_identical(self):
        rng = np.random.default_rng(0xBEEF)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            k = int(rng.integers(1, 13))
            n = int(rng.integers(1, 6000))
            a = _rand8(rng, m, k)
            b = _rand8(rng, k, n)
            got = MulPlan(a).apply(b)
            want = GF8.matmul_reference(a, b)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), (m, k, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 4095, 4097, 8191])
    def test_odd_and_tiny_lengths(self, n):
        rng = np.random.default_rng(n)
        a = _rand8(rng, 4, 7)
        b = _rand8(rng, 7, n)
        assert np.array_equal(MulPlan(a).apply(b), GF8.matmul_reference(a, b))

    def test_k_equals_one(self):
        rng = np.random.default_rng(1)
        a = _rand8(rng, 5, 1)
        b = _rand8(rng, 1, 10_000)
        assert np.array_equal(MulPlan(a).apply(b), GF8.matmul_reference(a, b))

    def test_all_zero_coefficients(self):
        rng = np.random.default_rng(2)
        a = np.zeros((3, 6), dtype=np.uint8)
        b = _rand8(rng, 6, 9000)
        out = MulPlan(a).apply(b)
        assert np.array_equal(out, np.zeros((3, 9000), dtype=np.uint8))

    def test_wide_output_beyond_combine_limit(self):
        # m > COMBINE_MAX_ROWS exercises the row-at-a-time fallback.
        rng = np.random.default_rng(3)
        m = COMBINE_MAX_ROWS + 4
        a = _rand8(rng, m, 6)
        b = _rand8(rng, 6, 9000)
        assert np.array_equal(MulPlan(a).apply(b), GF8.matmul_reference(a, b))

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(4)
        a = _rand8(rng, 3, 6)
        wide = _rand8(rng, 6, 12_000)
        b = wide[:, ::2]  # strided view
        assert np.array_equal(
            MulPlan(a).apply(np.ascontiguousarray(b)),
            GF8.matmul_reference(a, b),
        )


class TestSingleRowPlan:
    """``m == 1`` — the recovery of one lost chunk — gathers from the
    shared coefficient tables and owns none of its own, in either field."""

    @pytest.mark.parametrize("k", [1, 2, 6, 12])
    @pytest.mark.parametrize("n", [4096, 4097, 8191, 65536])
    def test_bit_identical_to_reference(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        for field in (GF8, GF16):
            a = _rand(field, rng, 1, k)
            b = _rand(field, rng, k, n)
            plan = MulPlan(a)
            assert np.array_equal(plan.apply(b), field.matmul_reference(a, b))
            assert plan.nbytes == 0

    def test_coefficients_zero_and_one(self):
        rng = np.random.default_rng(5)
        for field in (GF8, GF16):
            b = _rand(field, rng, 6, 9001)
            for row in ([0, 1, 0, 1, 7, 0], [1] * 6, [0] * 6, [0, 0, 0, 0, 0, 1]):
                a = np.array([row], dtype=field.dtype)
                plan = MulPlan(a)
                assert np.array_equal(plan.apply(b), field.matmul_reference(a, b)), row
                assert plan.nbytes == 0

    def test_one_gather_per_nonzero_coefficient_ones_included(self):
        """What a single-row transform costs depends on how many inputs
        it reads, not on their coefficients: an all-ones row looks up the
        table of 1 once per input instead of XORing it in."""
        for field in (GF8, GF16):
            b = _rand(field, np.random.default_rng(8), 6, 8192)

            def lookups(row):
                before = cache_stats()
                MulPlan(np.array([row], dtype=field.dtype)).apply(b)
                after = cache_stats()
                return sum(
                    after[key] - before[key] for key in ("table_hits", "table_misses")
                )

            assert lookups([1] * 6) == lookups([2, 3, 5, 7, 11, 13]) == 6
            assert lookups([1, 0, 1, 0, 0, 9]) == 3

    def test_two_rows_still_combine(self):
        rng = np.random.default_rng(6)
        for field in (GF8, GF16):
            plan = MulPlan(_rand(field, rng, 2, 6))
            plan.apply(_rand(field, rng, 6, 8192))
            assert plan.nbytes == 6 * 65536 * 2 * 2

    def test_single_erasure_pattern_pins_no_tables(self):
        from repro.codes.rs import ReedSolomon

        code = ReedSolomon(12, 15)
        rng = np.random.default_rng(7)
        data = [_rand8(rng, 8192) for _ in range(12)]
        stripe = data + code.encode(data)
        available = {i: c for i, c in enumerate(stripe) if i != 4}
        assert np.array_equal(code.decode(available, [4])[4], stripe[4])
        # What stays resident for the pattern is its 12-byte matrix.
        assert code._pattern_cache.nbytes == 12


class TestMulPlan16Differential:
    def test_randomized_shapes_bit_identical(self):
        rng = np.random.default_rng(0xCAFE)
        for _ in range(60):
            m = int(rng.integers(1, 12))
            k = int(rng.integers(1, 12))
            n = int(rng.integers(1, 4000))
            a = _rand16(rng, m, k)
            b = _rand16(rng, k, n)
            got = MulPlan(a).apply(b)
            want = GF16.matmul_reference(a, b)
            assert got.dtype == np.uint16
            assert np.array_equal(got, want), (m, k, n)

    def test_zero_operand_mask(self):
        # Zero symbols in the data must map to zero products even though
        # the log-table route the tables are built by has no log(0) —
        # verify a row that is *entirely* zeros and a row with scattered
        # zeros.
        rng = np.random.default_rng(5)
        a = _rand16(rng, 9, 4)  # m > COMBINE_MAX_ROWS: the row loop
        b = _rand16(rng, 4, 5000)
        b[1, :] = 0
        b[2, ::7] = 0
        assert np.array_equal(MulPlan(a).apply(b), GF16.matmul_reference(a, b))

    def test_zero_coefficients(self):
        rng = np.random.default_rng(6)
        a = _rand16(rng, 3, 5)
        a[:, 2] = 0
        a[1, :] = 0
        b = _rand16(rng, 5, 3000)
        assert np.array_equal(MulPlan(a).apply(b), GF16.matmul_reference(a, b))

    @pytest.mark.parametrize("n", [1, 3, 2047, 2049])
    def test_odd_lengths(self, n):
        rng = np.random.default_rng(n)
        a = _rand16(rng, 4, 6)
        b = _rand16(rng, 6, n)
        assert np.array_equal(MulPlan(a).apply(b), GF16.matmul_reference(a, b))


class TestDispatch:
    def test_gf_matmul_dispatches_above_threshold(self):
        rng = np.random.default_rng(7)
        a = _rand8(rng, 3, 6)
        for n in (KERNEL_MIN_BYTES - 1, KERNEL_MIN_BYTES, KERNEL_MIN_BYTES + 1):
            b = _rand8(rng, 6, n)
            assert np.array_equal(gf_matmul(a, b), GF8.matmul_reference(a, b))

    def test_gf16_plan_dispatches_above_threshold(self):
        rng = np.random.default_rng(8)
        a = _rand16(rng, 3, 6)
        half = KERNEL_MIN_BYTES // 2
        for n in (half - 1, half, half + 1):
            b = _rand16(rng, 6, n)
            assert np.array_equal(
                plan_for_matrix(a).apply(b), GF16.matmul_reference(a, b)
            )

    def test_plan_cache_reuses_plans(self):
        clear_plan_caches()
        rng = np.random.default_rng(9)
        a = _rand8(rng, 3, 6)
        p1 = plan_for_matrix(a)
        p2 = plan_for_matrix(a.copy())  # same bytes, different object
        assert p1 is p2
        # One LRU for both fields: the same shape — even the same bytes —
        # in the other dtype is another plan.
        a16 = _rand16(rng, 3, 6)
        assert plan_for_matrix(a16) is plan_for_matrix(a16.copy())
        assert plan_for_matrix(a.view(np.uint16)) is not p1
        stats = cache_stats()
        assert stats["plans"] == 3
        assert (stats["plan_hits"], stats["plan_misses"]) == (2, 3)


class TestScaleXor:
    def test_matches_reference_large(self):
        rng = np.random.default_rng(10)
        x = _rand8(rng, 1 << 20)
        for c in (0, 1, 2, 7, 255):
            acc = _rand8(rng, 1 << 20)
            want = acc ^ GF8.mul_table[c, x]
            got = gf_scale_xor(acc.copy(), c, x)
            assert np.array_equal(got, want), c

    def test_matches_reference_small_and_odd(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 17, 4095, 4097):
            x = _rand8(rng, n)
            acc = _rand8(rng, n)
            c = int(rng.integers(0, 256))
            want = acc ^ GF8.mul_table[c, x]
            assert np.array_equal(gf_scale_xor(acc.copy(), c, x), want), (n, c)

    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_bit_identical_across_tile_boundaries(self, monkeypatch, field):
        monkeypatch.setattr(kernels, "PACKED_TILE_LANES", _TEST_TILE_LANES)
        rng = np.random.default_rng(field.dtype.itemsize)
        ragged = 2 * (3 * _TEST_TILE_LANES + 3)  # three tiles and 3 lanes
        for nbytes in _STRUCTURE_BYTES + [ragged]:
            n = nbytes // field.dtype.itemsize
            x, acc = _rand(field, rng, n), _rand(field, rng, n)
            x[::5] = 0
            c = int(rng.integers(2, 1 << (8 * field.dtype.itemsize)))
            want = acc ^ field.mul(c, x)
            assert np.array_equal(gf_scale_xor(acc.copy(), c, x), want), (nbytes, c)

    def test_in_place_through_views(self):
        # bandwidth.py accumulates into row slices of a 2-D parity array.
        rng = np.random.default_rng(12)
        parities = np.zeros((3, 12_000), dtype=np.uint8)
        x = _rand8(rng, 6000)
        gf_scale_xor(parities[1, 3000:9000], 7, x)
        assert np.array_equal(parities[1, 3000:9000], GF8.mul_table[7, x])
        assert not parities[0].any() and not parities[2].any()

    def test_gf_scale(self):
        rng = np.random.default_rng(13)
        x = _rand8(rng, 10_000)
        assert np.array_equal(gf_scale(9, x), GF8.mul_table[9, x])
        assert np.array_equal(gf_scale(0, x), np.zeros_like(x))
        assert np.array_equal(gf_scale(1, x), x)


class TestOneTile:
    """Every gather in the module indexes at most one tile of lanes —
    the slot groups, the row loop (m = 1 and m > COMBINE_MAX_ROWS) and
    the merge's scale-and-XOR alike — so its intp index scratch, output
    and table share L2 whatever the chunk size."""

    MIB = 1 << 20

    @pytest.fixture
    def gathers(self, monkeypatch):
        widths = []
        take = np.take

        def spy(a, indices, *args, **kwargs):
            widths.append(np.size(indices))
            return take(a, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", spy)
        return widths

    @pytest.mark.parametrize("m", [1, 3, COMBINE_MAX_ROWS + 1])
    def test_mul_plan(self, gathers, m):
        rng = np.random.default_rng(m)
        a = _rand8(rng, m, 6) | 2  # no coefficient is 0 or 1: all gathers
        b = _rand8(rng, 6, self.MIB)
        MulPlan(a).apply(b)
        assert gathers and max(gathers) <= kernels.PACKED_TILE_LANES
        # every lane of every input, once per slot group or per row
        passes = -(-m // 4) if 1 < m <= COMBINE_MAX_ROWS else m
        assert sum(gathers) == self.MIB // 2 * 6 * passes

    def test_gf_scale_xor(self, gathers):
        rng = np.random.default_rng(16)
        acc, x = _rand8(rng, self.MIB), _rand8(rng, self.MIB)
        gf_scale_xor(acc, 7, x)
        assert gathers and max(gathers) <= kernels.PACKED_TILE_LANES
        assert sum(gathers) == self.MIB // 2


class TestCoefficientTables:
    def test_pair_table8_is_positionwise_multiply(self):
        # Entry for the byte pair (lo, hi) must be (c*lo, c*hi) packed the
        # same way the uint16 view packs adjacent bytes — position
        # preserving, hence endianness-independent.
        rng = np.random.default_rng(14)
        for c in (1, 2, 29, 255):
            tab = pair_table8(c)
            pairs = rng.integers(0, 1 << 16, size=256, dtype=np.uint16)
            raw = pairs.view(np.uint8).reshape(-1, 2)
            expect = GF8.mul_table[c, raw].reshape(-1, 2).copy().view(np.uint16).ravel()
            assert np.array_equal(tab[pairs], expect), c

    def test_mul_table16_matches_field_mul(self):
        rng = np.random.default_rng(15)
        for c in (1, 2, 0x1234, 0xFFFF):
            tab = mul_table16(c)
            xs = rng.integers(0, 1 << 16, size=1000, dtype=np.uint16)
            assert np.array_equal(tab[xs], GF16.mul(np.uint16(c), xs)), c


class TestDecodeRegression:
    """decode() batched reconstruction == per-index reference decode."""

    @pytest.mark.parametrize("chunk_len", [1, 3, 64, KERNEL_MIN_BYTES + 1])
    def test_rs_decode_matches_per_index_reference(self, chunk_len):
        from repro.codes.rs import ReedSolomon

        rng = np.random.default_rng(chunk_len)
        code = ReedSolomon(4, 7)
        data = [_rand8(rng, chunk_len) for _ in range(4)]
        stripe = code.encode_stripe(data)
        erased = [1, 4, 6]
        available = {
            i: c for i, c in enumerate(stripe.chunks) if i not in erased
        }
        got = code.decode(available, erased)

        # Reference: reconstruct each erased row separately from the
        # inverse of the first k survivors (the pre-batching behaviour).
        use = sorted(available)[: code.k]
        inv = GF8.matinv(code.generator[use])
        stacked = np.stack([available[i] for i in use])
        dmat = GF8.matmul_reference(inv, stacked)
        for idx in erased:
            row = GF8.matmul_reference(code.generator[idx : idx + 1, :], dmat)[0]
            assert np.array_equal(got[idx], row), idx

    def test_decode_inverse_cache_consistent_across_patterns(self):
        from repro.codes.rs import ReedSolomon

        rng = np.random.default_rng(42)
        code = ReedSolomon(4, 7)
        data = [_rand8(rng, 128) for _ in range(4)]
        stripe = code.encode_stripe(data)
        # Two different availability patterns sharing a sorted prefix.
        for erased in ([5, 6], [4, 6], [5, 6], [0, 1, 2]):
            avail = {
                i: c for i, c in enumerate(stripe.chunks) if i not in erased
            }
            out = code.decode(avail, erased)
            for idx in erased:
                assert np.array_equal(out[idx], stripe.chunks[idx]), (erased, idx)

    def test_wide_decode_batched_matches_roundtrip(self):
        from repro.codes.wide import WideConvertibleCode

        rng = np.random.default_rng(43)
        code = WideConvertibleCode(5, 8)
        data = [_rand8(rng, 256) for _ in range(5)]
        parities = code.encode(data)
        chunks = data + parities
        erased = [0, 3, 6]  # data and parity mixed
        available = {i: c for i, c in enumerate(chunks) if i not in erased}
        out = code.decode(available, erased)
        for idx in erased:
            assert np.array_equal(out[idx], chunks[idx]), idx


class TestCodecStats:
    def test_encode_decode_record_into_ledger(self):
        from repro.codes.rs import ReedSolomon
        from repro.obs.codec import CodecStats, record_codec

        stats = CodecStats()
        with record_codec("encode", 6 * 1024, stats=stats):
            pass
        assert stats.ops["encode"] == 1
        assert stats.bytes["encode"] == 6 * 1024
        assert stats.seconds["encode"] >= 0

        from repro.obs.codec import CODEC_STATS

        CODEC_STATS.reset()
        rng = np.random.default_rng(44)
        code = ReedSolomon(3, 5)
        data = [_rand8(rng, 512) for _ in range(3)]
        stripe = code.encode_stripe(data)
        code.decode(
            {i: c for i, c in enumerate(stripe.chunks) if i != 0}, [0]
        )
        assert CODEC_STATS.bytes["encode"] == 3 * 512
        assert CODEC_STATS.bytes["decode"] == 512

    def test_record_skips_failed_operations(self):
        from repro.obs.codec import CodecStats, record_codec

        stats = CodecStats()
        with pytest.raises(RuntimeError):
            with record_codec("encode", 100, stats=stats):
                raise RuntimeError("boom")
        assert "encode" not in stats.ops
