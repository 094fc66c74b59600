"""Bandwidth-optimal (vector / piggybacked) Convertible Codes."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.base import DecodeError, chunks_equal
from repro.codes.convertible import ConvertibleCode, plan_conversion
from repro.core.schemes import CodeKind, ECScheme


def make_stripes(code, n_stripes, chunk_len=32, seed=0):
    rng = np.random.default_rng(seed)
    stripes, alldata = [], []
    for _ in range(n_stripes):
        data = [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(code.k)]
        alldata.extend(data)
        stripes.append(code.encode_stripe(data))
    return stripes, alldata


def bwo_plan(k, r_i, r_f, lam):
    """The plan merging ``lam`` stripes coded anticipating ``r_f``
    parities into one CC with ``r_f``."""
    return plan_conversion(
        ECScheme(CodeKind.CC, k, k + r_i, anticipate_parities=r_f), lam,
        ECScheme(CodeKind.CC, lam * k, lam * k + r_f),
    )


class TestConstruction:
    def test_requires_parity_growth(self):
        with pytest.raises(ValueError):
            BandwidthOptimalCC(4, 2, 2)
        with pytest.raises(ValueError):
            BandwidthOptimalCC(4, 3, 2)
        with pytest.raises(ValueError):
            BandwidthOptimalCC(4, 0, 2)

    def test_chunk_size_must_divide(self):
        code = BandwidthOptimalCC(4, 1, 2)
        data = [np.zeros(33, np.uint8)] * 4  # 33 % 2 != 0
        with pytest.raises(ValueError):
            code.encode(data)

    def test_stores_r_initial_parities(self):
        code = BandwidthOptimalCC(6, 1, 2)
        stripes, _ = make_stripes(code, 1)
        assert stripes[0].n == 7
        assert len(stripes[0].parity_chunks) == 1


class TestDecode:
    @pytest.mark.parametrize("k,r_i,r_f", [(4, 1, 2), (6, 1, 2), (4, 2, 3), (6, 3, 4)])
    def test_tolerates_all_r_initial_erasures(self, k, r_i, r_f):
        code = BandwidthOptimalCC(k, r_i, r_f, family_width=4 * k)
        stripes, _ = make_stripes(code, 1, chunk_len=r_f * 8, seed=k + r_f)
        full = stripes[0]
        for erased in combinations(range(k + r_i), r_i):
            rec = code.decode_stripe(full.erase(*erased))
            assert chunks_equal(rec.chunks, full.chunks), erased

    def test_insufficient_chunks_raises(self):
        code = BandwidthOptimalCC(4, 1, 2)
        stripes, _ = make_stripes(code, 1)
        with pytest.raises(DecodeError):
            code.decode({0: stripes[0].chunks[0]}, [1])


class TestConversion:
    @pytest.mark.parametrize(
        "k,r_i,r_f,lam", [(4, 1, 2, 2), (6, 1, 2, 2), (4, 2, 3, 2), (4, 1, 2, 3)]
    )
    def test_merge_matches_direct_encode(self, k, r_i, r_f, lam):
        code = BandwidthOptimalCC(k, r_i, r_f, family_width=lam * k)
        final = ConvertibleCode(lam * k, lam * k + r_f, family_width=lam * k)
        stripes, alldata = make_stripes(code, lam, chunk_len=r_f * 12, seed=lam)
        (merged,), io = code.convert_merge(final, stripes, bwo_plan(k, r_i, r_f, lam))
        direct = final.encode_stripe(alldata)
        assert chunks_equal(merged.chunks, direct.chunks)

    def test_fig8_io_accounting(self):
        # CC(4,5) -> CC(8,10): read 2 parities + half of 8 data chunks = 6
        # chunk-equivalents vs 8 for RS: 25% less (paper Fig 8).
        code = BandwidthOptimalCC(4, 1, 2, family_width=8)
        final = ConvertibleCode(8, 10, family_width=8)
        stripes, _ = make_stripes(code, 2, chunk_len=16, seed=3)
        _, io = code.convert_merge(final, stripes, bwo_plan(4, 1, 2, 2))
        assert io.chunks_read == pytest.approx(6.0)
        assert io.data_read_fraction == pytest.approx(0.5)

    def test_plan_read_chunks_formula(self):
        """The plan prices the merge; the merge returns the plan's IO."""
        code = BandwidthOptimalCC(4, 2, 3, family_width=12)
        final = ConvertibleCode(12, 15, family_width=12)
        stripes, _ = make_stripes(code, 3, chunk_len=24, seed=6)
        plan = bwo_plan(4, 2, 3, 3)
        # Per stripe: 2 parities + 4 * (1/3) data.
        assert plan.io().chunks_read == pytest.approx(3 * (2 + 4 / 3))
        assert code.convert_merge(final, stripes, plan)[1] == plan.io()

    def test_merged_stripe_decodes(self):
        code = BandwidthOptimalCC(4, 1, 2, family_width=8)
        final = ConvertibleCode(8, 10, family_width=8)
        stripes, _ = make_stripes(code, 2, chunk_len=16, seed=5)
        (merged,), _ = code.convert_merge(final, stripes, bwo_plan(4, 1, 2, 2))
        rec = final.decode_stripe(merged.erase(1, 9))
        assert chunks_equal(rec.chunks, merged.chunks)

    def test_wrong_final_params_rejected(self):
        code = BandwidthOptimalCC(4, 1, 2)
        stripes, _ = make_stripes(code, 2, chunk_len=16)
        with pytest.raises(ValueError):
            # r_F mismatch
            code.convert_merge(ConvertibleCode(8, 9), stripes, bwo_plan(4, 1, 2, 2))

    def test_erased_chunk_blocks_conversion(self):
        code = BandwidthOptimalCC(4, 1, 2)
        final = ConvertibleCode(8, 10, family_width=8)
        stripes, _ = make_stripes(code, 2, chunk_len=16, seed=6)
        stripes[0] = stripes[0].erase(2)
        with pytest.raises(DecodeError):
            code.convert_merge(final, stripes, bwo_plan(4, 1, 2, 2))


class TestHopAndCouple:
    def test_conversion_reads_are_tail_contiguous(self):
        """The data fraction read during conversion is the chunk's tail.

        Hop-and-couple (§6.1): the pre-computed piggybacks cover the
        *early* substripes precisely so the conversion-time read is one
        contiguous range — substripes r_I..r_F-1, i.e. bytes
        [r_I/r_F * L, L) of every data chunk.
        """
        code = BandwidthOptimalCC(4, 1, 2, family_width=8)
        final = ConvertibleCode(8, 10, family_width=8)
        stripes, alldata = make_stripes(code, 2, chunk_len=16, seed=7)
        # Zero out the head (unread) halves of all data chunks; parities
        # and tails must suffice to produce correct *tail* substripes of
        # final parities, proving only the tail is consumed from data.
        (merged_ref,), _ = code.convert_merge(final, stripes, bwo_plan(4, 1, 2, 2))
        for s in stripes:
            for t in range(4):
                s.chunks[t] = s.chunks[t].copy()
                s.chunks[t][:8] = 0  # corrupt the head half
        (merged_corrupt,), _ = code.convert_merge(final, stripes, bwo_plan(4, 1, 2, 2))
        # Every final parity must be unaffected: the stored parities carry
        # the head information, so conversion never reads the heads.
        for j in (8, 9):
            assert np.array_equal(merged_ref.chunks[j], merged_corrupt.chunks[j])
