"""Differential tests: batched / fused codec paths vs the scalar loop.

Every multi-stripe batch API and every fused decode path must be
bit-identical to calling the per-stripe methods in a loop — GF
arithmetic is exact, so "close" is not a thing. This suite pins that
contract across code families, batch shapes (size 1, ragged tails),
failure patterns (data, parity, all-parity), and pattern-LRU churn.
"""

import numpy as np
import pytest

from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.convertible import ConvertibleCode, convert, plan_conversion
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.codes.rs import ReedSolomon
from repro.codes.wide import WideConvertibleCode
from repro.core.schemes import CodeKind, ECScheme
from repro.codes.base import STACK_BELOW_BYTES, DecodeError
from repro.gf import kernels
from repro.gf.field import GF8, GF16


def _stripes(k, n_stripes, chunk_bytes, seed=0, ragged=False):
    rng = np.random.default_rng(seed)
    out = []
    for s in range(n_stripes):
        size = chunk_bytes
        if ragged and s == n_stripes - 1:
            size = max(2, chunk_bytes // 2)
        out.append(
            [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(k)]
        )
    return out


def _codes():
    return [
        ReedSolomon(4, 7),
        ConvertibleCode(4, 6),
        LocalReconstructionCode(6, 2, 2),
        LocallyRecoverableConvertibleCode(6, 2, 2),
        WideConvertibleCode(6, 9),
        BandwidthOptimalCC(4, 2, 4),
    ]


def _chunk_bytes(code):
    # BWO substripes need chunk_size % r_final == 0.
    return 8192 if isinstance(code, BandwidthOptimalCC) else 6000


class TestEncodeBatch:
    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_matches_per_stripe_loop(self, code):
        stripes = _stripes(code.k, 5, _chunk_bytes(code), seed=1)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert len(parities) == len(expected)
            for got, want in zip(parities, expected):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_batch_of_one(self, code):
        stripes = _stripes(code.k, 1, _chunk_bytes(code), seed=2)
        batched = code.encode_batch(stripes)
        expected = code.encode(stripes[0])
        assert all(
            np.array_equal(g, w) for g, w in zip(batched[0], expected)
        )

    def test_ragged_final_stripe(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 4, 6000, seed=3, ragged=True)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert all(np.array_equal(g, w) for g, w in zip(parities, expected))

    def test_ragged_final_stripe_wide(self):
        code = WideConvertibleCode(6, 9)
        stripes = _stripes(6, 3, 6000, seed=4, ragged=True)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert all(np.array_equal(g, w) for g, w in zip(parities, expected))

    def test_small_chunks_take_reference_path(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 3, 64, seed=5)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert all(np.array_equal(g, w) for g, w in zip(parities, expected))


# -- every family's parities, pinned at the commit before the kernels read
# -- their matrix (sha256 prefix over a seeded batch's parities) --------------

_FAMILIES = {
    "CC(6,9)": lambda: ConvertibleCode(6, 9),
    "CC(12,15)": lambda: ConvertibleCode(12, 15),
    "LRCC(12,2,2)": lambda: LocallyRecoverableConvertibleCode(12, 2, 2),
    "LRC(12,2,2)": lambda: LocalReconstructionCode(12, 2, 2),
    "RS(6,9)": lambda: ReedSolomon(6, 9),
    "wide CC(17,20)": lambda: WideConvertibleCode(17, 20),
}
#: chunk lengths of a batch: one stripe, a ragged tail, rows just below /
#: at / above the stacking threshold, both sides of it in one batch
_BATCHES = {
    "one": [8192],
    "ragged": [8192, 8192, 8192, 4098],
    "below": [STACK_BELOW_BYTES - 2] * 2,
    "at": [STACK_BELOW_BYTES] * 2,
    "above": [STACK_BELOW_BYTES + 2] * 2,
    "mixed": [STACK_BELOW_BYTES, 6000, STACK_BELOW_BYTES, 6000],
}
_PARITY_DIGESTS = {
    ("CC(6,9)", "one"): "ced6bcf4028e55e8",
    ("CC(6,9)", "ragged"): "b9c23a98b90e12be",
    ("CC(6,9)", "below"): "1bd595eb2c666c15",
    ("CC(6,9)", "at"): "d75e599aaf9c289b",
    ("CC(6,9)", "above"): "3264c95412bf1274",
    ("CC(6,9)", "mixed"): "63c51fcca2114523",
    ("CC(12,15)", "one"): "6eef5305fbe8017a",
    ("CC(12,15)", "ragged"): "37007aeb956bf03b",
    ("CC(12,15)", "below"): "9929a6b3f8728cd6",
    ("CC(12,15)", "at"): "493c109c9117e2d3",
    ("CC(12,15)", "above"): "2f72931ac7956e66",
    ("CC(12,15)", "mixed"): "923d5f5febac769c",
    ("LRCC(12,2,2)", "one"): "1260cd4fbdefafa4",
    ("LRCC(12,2,2)", "ragged"): "284c61b5f74fcc09",
    ("LRCC(12,2,2)", "below"): "4fe8cde34a12f4ee",
    ("LRCC(12,2,2)", "at"): "b690be8dbb1883e1",
    ("LRCC(12,2,2)", "above"): "5abeee43c8179d64",
    ("LRCC(12,2,2)", "mixed"): "d6f9f3b73d17e823",
    ("LRC(12,2,2)", "one"): "a6f71e010093bcc5",
    ("LRC(12,2,2)", "ragged"): "ffa8387f4e529615",
    ("LRC(12,2,2)", "below"): "55926683759b8e16",
    ("LRC(12,2,2)", "at"): "4a6daf5d0adbbee1",
    ("LRC(12,2,2)", "above"): "3fc4dce58503bd0c",
    ("LRC(12,2,2)", "mixed"): "d0f92624672b46f3",
    ("RS(6,9)", "one"): "afd7d629cac6c2b0",
    ("RS(6,9)", "ragged"): "4bd891e9d0d00516",
    ("RS(6,9)", "below"): "08fd19daa28cea7e",
    ("RS(6,9)", "at"): "9ed2084144ed11ec",
    ("RS(6,9)", "above"): "d6e0719417f60278",
    ("RS(6,9)", "mixed"): "64d8276946602da5",
    ("wide CC(17,20)", "one"): "777050c06f3804fb",
    ("wide CC(17,20)", "ragged"): "ce58dd36c1137d6e",
    ("wide CC(17,20)", "below"): "0df91c8bd6c3d74b",
    ("wide CC(17,20)", "at"): "a1bb125b51d96273",
    ("wide CC(17,20)", "above"): "7ebeb7a7e7bbe8bc",
    ("wide CC(17,20)", "mixed"): "4b920f717b148752",
}


class TestParitiesPinned:
    @pytest.mark.parametrize("batch", list(_BATCHES))
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_encode_and_encode_batch_give_the_pinned_parities(self, family, batch):
        import hashlib

        assert STACK_BELOW_BYTES == 128 * 1024  # what the digests were cut at
        code = _FAMILIES[family]()
        rng = np.random.default_rng(list(_BATCHES).index(batch))
        stripes = [
            [rng.integers(0, 256, n, dtype=np.uint8) for _ in range(code.k)]
            for n in _BATCHES[batch]
        ]
        digest = hashlib.sha256()
        for chunks, parities in zip(stripes, code.encode_batch(stripes)):
            single = code.encode(chunks)
            assert len(single) == len(parities) == code.r
            for one, batched in zip(single, parities):
                assert np.array_equal(one, batched)
                digest.update(np.ascontiguousarray(one).tobytes())
        assert digest.hexdigest()[:16] == _PARITY_DIGESTS[family, batch]


def _erasure_cases(code):
    """(erased, label) patterns: data-only, mixed, all-parity."""
    k, n = code.k, code.n
    r = n - k
    cases = [([0], "one_data"), ([k], "one_parity")]
    if r >= 2:
        cases.append(([0, k + 1], "data_plus_parity"))
        cases.append((list(range(k, min(n, k + r))), "all_parity"))
    return cases


class TestDecodeBatch:
    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_matches_per_stripe_loop(self, code, size=None, count=4):
        stripes = _stripes(code.k, count, size or _chunk_bytes(code), seed=6)
        parities = [code.encode(chunks) for chunks in stripes]
        for erased, label in _erasure_cases(code):
            availables, eraseds = [], []
            for chunks, pars in zip(stripes, parities):
                full = list(chunks) + list(pars)
                availables.append(
                    {i: c for i, c in enumerate(full) if i not in erased}
                )
                eraseds.append(list(erased))
            batched = code.decode_batch(availables, eraseds)
            for avail, chunks, pars, rec in zip(
                availables, stripes, parities, batched
            ):
                expected = code.decode(avail, erased)
                assert set(rec) == set(expected), label
                for idx in erased:
                    assert np.array_equal(rec[idx], expected[idx]), label
                    full = list(chunks) + list(pars)
                    assert np.array_equal(rec[idx], full[idx]), label

    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_chunks_of_a_kernel_tile_go_stripe_by_stripe_and_match(self, code):
        self.test_matches_per_stripe_loop(code, size=STACK_BELOW_BYTES, count=2)

    def test_mixed_patterns_in_one_batch(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 6, 6000, seed=7)
        parities = [code.encode(chunks) for chunks in stripes]
        patterns = [[0], [0], [1, 4], [1, 4], [5, 6], [0]]
        availables, eraseds = [], []
        for chunks, pars, erased in zip(stripes, parities, patterns):
            full = list(chunks) + list(pars)
            availables.append(
                {i: c for i, c in enumerate(full) if i not in erased}
            )
            eraseds.append(erased)
        batched = code.decode_batch(availables, eraseds)
        for chunks, pars, erased, rec in zip(
            stripes, parities, patterns, batched
        ):
            full = list(chunks) + list(pars)
            for idx in erased:
                assert np.array_equal(rec[idx], full[idx])

    def test_batch_of_one_and_empty_erasure(self):
        code = ReedSolomon(4, 7)
        chunks = _stripes(4, 1, 6000, seed=8)[0]
        pars = code.encode(chunks)
        full = chunks + pars
        avail = {i: c for i, c in enumerate(full) if i != 2}
        out = code.decode_batch([avail, dict(enumerate(full))], [[2], []])
        assert np.array_equal(out[0][2], chunks[2])
        assert out[1] == {}

    def test_ragged_lengths_group_separately(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 3, 6000, seed=9, ragged=True)
        availables, eraseds = [], []
        for chunks in stripes:
            full = chunks + code.encode(chunks)
            availables.append({i: c for i, c in enumerate(full) if i != 0})
            eraseds.append([0])
        batched = code.decode_batch(availables, eraseds)
        for chunks, rec in zip(stripes, batched):
            assert np.array_equal(rec[0], chunks[0])

    def test_lrc_batch_preserves_local_repair_result(self):
        code = LocalReconstructionCode(6, 2, 2)
        stripes = _stripes(6, 3, 6000, seed=10)
        availables, eraseds = [], []
        for chunks in stripes:
            full = chunks + code.encode(chunks)
            availables.append({i: c for i, c in enumerate(full) if i != 1})
            eraseds.append([1])
        batched = code.decode_batch(availables, eraseds)
        for chunks, rec in zip(stripes, batched):
            assert np.array_equal(rec[1], chunks[1])


class TestFusedDecode:
    def test_pattern_cache_hits_on_repeat(self):
        kernels.clear_plan_caches()
        code = ReedSolomon(4, 7)
        chunks = _stripes(4, 1, 6000, seed=11)[0]
        full = chunks + code.encode(chunks)
        avail = {i: c for i, c in enumerate(full) if i != 0}
        code.decode(avail, [0])
        before = kernels.cache_stats()["pattern_hits"]
        code.decode(avail, [0])
        assert kernels.cache_stats()["pattern_hits"] == before + 1

    def test_lru_eviction_churn_stays_correct(self):
        kernels.clear_plan_caches()
        code = ReedSolomon(6, 9)
        chunks = _stripes(6, 1, 6000, seed=12)[0]
        full = chunks + code.encode(chunks)
        # More distinct patterns than the LRU holds: every (erased pair)
        # of the 9 chunk positions (36 > capacity), twice over.
        patterns = [
            [i, j] for i in range(9) for j in range(i + 1, 9)
        ]
        for _ in range(2):
            for erased in patterns:
                avail = {
                    i: c for i, c in enumerate(full) if i not in erased
                }
                rec = code.decode(avail, erased)
                for idx in erased:
                    assert np.array_equal(rec[idx], full[idx])
        stats = kernels.cache_stats()
        assert len(patterns) > kernels._PATTERN_CACHE_MAX
        assert stats["pattern_evictions"] > 0

    def test_wide_fused_small_and_large_chunks_agree(self):
        code = WideConvertibleCode(6, 9)
        for size in (64, 50_000):  # reference path vs table path
            chunks = _stripes(6, 1, size, seed=13)[0]
            full = chunks + code.encode(chunks)
            erased = [0, 4, 7]
            avail = {i: c for i, c in enumerate(full) if i not in erased}
            rec = code.decode(avail, erased)
            for idx in erased:
                assert np.array_equal(rec[idx], full[idx])

    def test_wide_decode_odd_length_chunks(self):
        """A GF(2^16) chunk holds whole symbols. Padding an odd byte is
        lossless for data, but trimming a *parity* of padded symbols back
        to the chunk length drops the high byte the decode needs — every
        rebuilt chunk used to come back with a wrong last byte, silently.
        """
        code = WideConvertibleCode(6, 9)
        erased = [3, 4]

        def availables(stripes, parities):
            return [
                {i: c for i, c in enumerate(chunks + pars) if i not in erased}
                for chunks, pars in zip(stripes, parities)
            ]

        # 4096 bytes: every entry point round-trips.
        even = _stripes(6, 2, 4096, seed=14)
        parities = code.encode_batch(even)
        assert all(np.array_equal(g, w) for g, w in zip(parities[0], code.encode(even[0])))
        avail = availables(even, parities)
        for chunks, single, rec in zip(
            even,
            [code.decode(a, erased) for a in avail],
            code.decode_batch(avail, [erased, erased]),
        ):
            for idx in erased:
                assert np.array_equal(single[idx], chunks[idx])
                assert np.array_equal(rec[idx], chunks[idx])

        # 4097 bytes: every entry point refuses, naming the length.
        odd = _stripes(6, 2, 4097, seed=14)
        avail = availables(odd, [chunks[:3] for chunks in odd])  # right-length stand-ins
        for call in (
            lambda: code.encode(odd[0]),
            lambda: code.encode_batch(odd),
            lambda: code.decode(avail[0], erased),
            lambda: code.decode_batch(avail, [erased, erased]),
        ):
            with pytest.raises(ValueError, match="4097"):
                call()

    @pytest.mark.parametrize("size", [101, 4097])
    def test_wide_17_20_odd_length_raises_instead_of_corrupting(self, size):
        code = WideConvertibleCode(17, 20)
        chunks = _stripes(17, 1, size, seed=21)[0]
        with pytest.raises(ValueError, match=str(size)):
            code.encode(chunks)
        even = [np.append(c, np.uint8(0)) for c in chunks]
        full = even + code.encode(even)
        avail = {i: c for i, c in enumerate(full) if i not in (0, 5, 18)}
        rec = code.decode(avail, [0, 5, 18])
        assert all(np.array_equal(rec[i], full[i]) for i in (0, 5, 18))


def _local_group_codes():
    return [LocalReconstructionCode(12, 2, 2), LocallyRecoverableConvertibleCode(12, 2, 2)]


def _triples_and_some_quads(code):
    """Every 3-erasure pattern (560 for n = 16, all recoverable) and the
    70 4-erasure patterns over half the stripe's slots (some are not)."""
    from itertools import combinations

    slots = [0, 1, 2, code.group_size] + list(range(code.k, code.n))
    return [list(e) for e in combinations(range(code.n), 3)] + [
        list(e) for e in combinations(slots, 4)
    ]


class TestOneRecoveryPerPattern:
    """LRC-family codes used to answer one failure pattern two ways: decode
    picked rows greedily by rank under one cache key, decode_batch went
    through the base class's first-k-then-enumerate search under another.
    """

    @pytest.mark.parametrize("code", _local_group_codes(), ids=repr)
    def test_decode_and_decode_batch_agree_on_every_triple(self, code):
        stripes = _stripes(code.k, 2, 64, seed=22)
        fulls = [chunks + code.encode(chunks) for chunks in stripes]
        undecodable = []
        for erased in _triples_and_some_quads(code):
            availables = [
                {i: c for i, c in enumerate(full) if i not in erased} for full in fulls
            ]
            try:
                singles = [code.decode(avail, erased) for avail in availables]
            except DecodeError:
                undecodable.append(erased)
                with pytest.raises(DecodeError):
                    code.decode_batch(availables, [erased, erased])
                continue
            batched = code.decode_batch(availables, [erased, erased])
            for full, single, rec in zip(fulls, singles, batched):
                for idx in erased:
                    assert np.array_equal(single[idx], full[idx]), erased
                    assert np.array_equal(rec[idx], full[idx]), erased
        # Not MDS: four losses can leave group 0 with more unknowns than
        # its local parity and the two globals have equations for.
        assert all(len(e) == 4 for e in undecodable)
        assert [0, 1, 2, 12] in undecodable and [0, 1, 2, 6] not in undecodable

    @pytest.mark.parametrize("code", _local_group_codes(), ids=repr)
    def test_a_pattern_is_built_once_whichever_entry_point_asks(self, code):
        stripes = _stripes(code.k, 2, 64, seed=23)
        fulls = [chunks + code.encode(chunks) for chunks in stripes]
        erased = [0, 1, 15]  # two of one group: nothing to repair locally
        availables = [
            {i: c for i, c in enumerate(full) if i not in erased} for full in fulls
        ]
        kernels.clear_plan_caches()
        code.decode(availables[0], erased)
        code.decode_batch(availables, [erased, erased])
        code.decode(availables[1], erased)
        stats = kernels.cache_stats()
        assert (stats["pattern_misses"], stats["pattern_hits"]) == (1, 2)

    @pytest.mark.parametrize("code", _local_group_codes(), ids=repr)
    def test_fallback_rows_are_the_greedy_by_rank_selection(self, code):
        """When the first k survivors are dependent, the survivors are
        taken in index order, each one that adds rank."""
        fallbacks = 0
        for erased in _triples_and_some_quads(code):
            rows = [i for i in range(code.n) if i not in erased]
            if GF8.rank(code.generator[rows]) < code.k:
                with pytest.raises(DecodeError):
                    code._invert_survivors(rows)
                continue
            want = []
            for idx in rows:
                if GF8.rank(code.generator[want + [idx]]) > len(want):
                    want.append(idx)
            _, use = code._invert_survivors(rows)
            assert use == want[: code.k], erased
            fallbacks += use != rows[: code.k]
        assert fallbacks


class TestGf16ScaleXor:
    @pytest.mark.parametrize("c", [0, 1, 2, 0x1234, 0xFFFF])
    @pytest.mark.parametrize("n", [7, 2048, 70_000])
    def test_matches_mul_xor(self, c, n):
        # The one scale-xor takes its field from the accumulator's dtype.
        rng = np.random.default_rng(17)
        acc = rng.integers(0, 1 << 16, n, dtype=np.uint16)
        x = rng.integers(0, 1 << 16, n, dtype=np.uint16)
        want = acc ^ GF16.mul(np.uint16(c), x)
        got = acc.copy()
        kernels.gf_scale_xor(got, c, x)
        assert np.array_equal(got, want)


class TestWideMerge:
    def test_merge_matches_direct_encode(self):
        initial = WideConvertibleCode(4, 6)
        final = WideConvertibleCode(8, 10)
        stripes = _stripes(4, 2, 5000, seed=18)
        encoded = [initial.encode_stripe(chunks) for chunks in stripes]
        plan = plan_conversion(
            ECScheme(CodeKind.CC, 4, 6), 2, ECScheme(CodeKind.CC, 8, 10)
        )
        (merged,), _ = convert(initial, final, encoded, plan)
        direct = final.encode(stripes[0] + stripes[1])
        for got, want in zip(merged.parity_chunks, direct):
            assert np.array_equal(got, want)
