"""Stripe/chunk plumbing and the generic ErasureCode machinery."""

import numpy as np
import pytest

from repro.codes.base import DecodeError, Stripe, chunks_equal
from repro.codes.rs import ReedSolomon
from repro.codes.wide import WideConvertibleCode
from repro.gf.kernels import GF8, GF16

#: One code per field: everything below is the base class's machinery,
#: written once against ``ErasureCode.field``.
CODE_CLASSES = [ReedSolomon, WideConvertibleCode]


class TestChunksEqual:
    def test_chunks_equal(self):
        a = [np.array([1, 2], np.uint8)]
        b = [np.array([1, 2], np.uint8)]
        assert chunks_equal(a, b)
        assert not chunks_equal(a, [np.array([1, 3], np.uint8)])
        assert not chunks_equal(a, a + a)


class TestStripe:
    def _stripe(self):
        code = ReedSolomon(4, 6)
        rng = np.random.default_rng(3)
        data = [rng.integers(0, 256, 8, dtype=np.uint8) for _ in range(4)]
        return code.encode_stripe(data)

    def test_properties(self):
        s = self._stripe()
        assert s.k == 4 and s.n == 6 and s.r == 2
        assert len(s.data_chunks) == 4
        assert len(s.parity_chunks) == 2
        assert s.chunk_size() == 8

    def test_erase_is_copy(self):
        s = self._stripe()
        e = s.erase(0, 5)
        assert e.erased_indices() == [0, 5]
        assert s.erased_indices() == []

    def test_chunk_size_requires_data(self):
        s = Stripe(2, 3, [None, None, None])
        with pytest.raises(ValueError):
            s.chunk_size()


class TestGenericCodeMachinery:
    def test_encode_wrong_chunk_count(self):
        for cls in CODE_CLASSES:
            with pytest.raises(ValueError):
                cls(4, 6).encode([np.zeros(4, np.uint8)] * 3)
            with pytest.raises(ValueError):
                cls(4, 6).encode_batch([[np.zeros(4, np.uint8)] * 3])

    def test_decode_insufficient_chunks(self):
        for cls in CODE_CLASSES:
            with pytest.raises(DecodeError):
                cls(4, 6).decode({0: np.zeros(4, np.uint8)}, [1])

    def test_decode_nothing_returns_empty(self):
        for cls in CODE_CLASSES:
            assert cls(4, 6).decode({}, []) == {}

    def test_storage_overhead(self):
        for cls in CODE_CLASSES:
            assert cls(6, 9).storage_overhead() == pytest.approx(1.5)

    def test_invalid_params(self):
        for cls in CODE_CLASSES:
            with pytest.raises(ValueError):
                cls(0, 3)
            with pytest.raises(ValueError):
                cls(5, 5)

    def test_repr(self):
        assert repr(ReedSolomon(6, 9)) == "ReedSolomon(6,9)"
        assert repr(WideConvertibleCode(6, 9)) == "WideConvertibleCode(6,9)"

    @pytest.mark.parametrize("cls", CODE_CLASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("chunk_len", [2, 64, 4096, 10_000])
    def test_every_entry_point_round_trips(self, cls, chunk_len):
        """encode / encode_stripe / encode_batch agree, and decode /
        decode_stripe / decode_batch give back what was erased — below
        and above the kernel threshold, data and parity slots alike."""
        code = cls(4, 7)
        assert code.field is (GF8 if cls is ReedSolomon else GF16)
        assert code.generator.dtype == code.field.dtype
        assert np.array_equal(code.generator[:4], np.eye(4, dtype=code.field.dtype))
        rng = np.random.default_rng(chunk_len)
        stripes = [
            [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(4)]
            for _ in range(3)
        ]
        fulls = [code.encode_stripe(chunks) for chunks in stripes]
        for chunks, full, batched in zip(stripes, fulls, code.encode_batch(stripes)):
            assert chunks_equal(full.chunks, chunks + code.encode(chunks))
            assert chunks_equal(full.parity_chunks, batched)
            assert all(c.dtype == np.uint8 and len(c) == chunk_len for c in batched)
        erased = [1, 4, 6]
        availables = [
            {i: c for i, c in enumerate(full.chunks) if i not in erased} for full in fulls
        ]
        for full, avail, rec in zip(
            fulls, availables, code.decode_batch(availables, [erased] * 3)
        ):
            single = code.decode(avail, erased)
            assert chunks_equal(code.decode_stripe(full.erase(*erased)).chunks, full.chunks)
            for idx in erased:
                assert np.array_equal(single[idx], full.chunks[idx])
                assert np.array_equal(rec[idx], full.chunks[idx])

    @pytest.mark.parametrize("cls", CODE_CLASSES, ids=lambda c: c.__name__)
    def test_is_mds_reads_the_code_s_own_field(self, cls):
        code = cls(4, 7)
        assert code.is_mds()
        # Two equal parity rows: still full rank row by row, no longer MDS.
        code._generator = code.generator.copy()
        code._generator[5] = code._generator[4]
        assert not code.is_mds()


class TestSurvivorSelection:
    """``_invert_survivors`` picks the independent survivors with the
    field's one Gauss-Jordan. Over every survivor set of LRC(12,2,2) and
    LRCC(12,2,2) it picks what the greedy ascending choice it replaced
    picked — each survivor, in order, that adds rank — so ``spans`` and
    the decoded bytes are unchanged."""

    @staticmethod
    def greedy(code, rows):
        """The choice as it was written before: a survivor reduced
        against the ones taken before it adds rank iff something is left."""
        mul = code.field.mul
        use, reduced = [], []
        for idx in rows:
            v = code.generator[idx]
            for p, b in reduced:
                v = mul(b[p], v) ^ mul(v[p], b)  # zero column p of v
            pivots = np.flatnonzero(v)
            if pivots.size:
                reduced.append((int(pivots[0]), v))
                use.append(idx)
            if len(use) == code.k:
                return use
        return None

    @pytest.mark.parametrize("make", ["LRC", "LRCC"])
    def test_every_survivor_set(self, make):
        from itertools import combinations

        from repro.codes.lrc import LocalReconstructionCode
        from repro.codes.lrcc import LocallyRecoverableConvertibleCode

        cls = LocalReconstructionCode if make == "LRC" else LocallyRecoverableConvertibleCode
        code = cls(12, 2, 2)
        rng = np.random.default_rng(3)
        stripe = code.encode_stripe([rng.integers(0, 256, 8, dtype=np.uint8) for _ in range(12)])
        field = code.field
        checked = 0
        for size in range(code.k, code.n + 1):
            for rows in combinations(range(code.n), size):
                want = self.greedy(code, rows)
                assert code.spans(rows) == (want is not None), rows
                if want is None:
                    with pytest.raises(DecodeError):
                        code._invert_survivors(rows)
                    continue
                inv, use = code._invert_survivors(rows)
                assert use == want, rows
                assert np.array_equal(
                    field.matmul_reference(inv, code.generator[use, :]),
                    np.eye(code.k, dtype=field.dtype),
                ), rows
                erased = [i for i in range(code.n) if i not in rows]
                if erased:
                    got = code.decode({i: stripe.chunks[i] for i in rows}, erased)
                    assert all(np.array_equal(got[i], stripe.chunks[i]) for i in erased)
                checked += 1
        assert checked > 2000
