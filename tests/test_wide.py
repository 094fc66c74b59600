"""Wide convertible codes: the CC family over GF(2^16).

A wide code differs from :class:`ConvertibleCode` in its family only, so
it encodes, decodes and converts through the shared code — every regime
of :func:`repro.codes.convertible.convert` included. Each conversion
below is byte-identical to re-encoding with the final code and reads
nothing its plan does not name: the unplanned chunks are erased (a
parity) or replaced by garbage (a data chunk, which passes through to the
final stripe unread).
"""

import numpy as np
import pytest

from repro.codes.base import chunks_equal
from repro.codes.convertible import ConvertibleCode, convert, plan_conversion
from repro.codes.wide import MAX_WIDTH_16, WIDE_FAMILY, WideConvertibleCode
from repro.core.schemes import CodeKind, ECScheme
from repro.gf.field import GF16


def make_stripes(code, n_stripes, chunk_len, seed):
    rng = np.random.default_rng(seed)
    stripes, alldata = [], []
    for _ in range(n_stripes):
        data = [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(code.k)]
        alldata.extend(data)
        stripes.append(code.encode_stripe(data))
    return stripes, alldata


def blinded(initial, stripes, plan):
    """The stripes as a conversion may see them: only planned chunks real."""
    out = []
    for i, stripe in enumerate(stripes):
        chunks = []
        for t, chunk in enumerate(stripe.chunks):
            if t < initial.k:
                read = i * initial.k + t in plan.data_reads
                chunks.append(chunk if read else np.full_like(chunk, 0xA5))
            else:
                chunks.append(chunk if (i, t - initial.k) in plan.parity_reads else None)
        out.append(type(stripe)(stripe.k, stripe.n, chunks))
    return out


def plan_of(initial, n_stripes, final):
    """The plan of a CC -> CC conversion between these codes' shapes."""
    return plan_conversion(
        ECScheme(CodeKind.CC, initial.k, initial.n), n_stripes,
        ECScheme(CodeKind.CC, final.k, final.n),
    )


def assert_converts(initial, final, n_stripes, chunk_len=48, seed=0):
    stripes, alldata = make_stripes(initial, n_stripes, chunk_len, seed)
    plan = plan_of(initial, n_stripes, final)
    out, io = convert(initial, final, blinded(initial, stripes, plan), plan)
    assert len(out) == plan.n_final_stripes
    for m, stripe in enumerate(out):
        direct = final.encode_stripe(alldata[m * final.k : (m + 1) * final.k])
        assert chunks_equal(stripe.parity_chunks, direct.parity_chunks), m
    return plan, io


class TestWideConversions:
    def test_paper_17_to_34_merge_reads_parities_only(self):
        """EC(17,20) x2 -> EC(34,37): >80% read saving (paper Appendix A)."""
        small = WideConvertibleCode(17, 20, family_width=34)
        big = WideConvertibleCode(34, 37, family_width=34)
        plan, io = assert_converts(small, big, 2, seed=4)
        assert not plan.data_reads and len(plan.parity_reads) == 6
        assert 1 - io.chunks_read / 34 > 0.80

    def test_wide_r5_merge(self):
        small = WideConvertibleCode(16, 21, family_width=80)
        big = WideConvertibleCode(80, 85, family_width=80)
        plan, _ = assert_converts(small, big, 5, chunk_len=16, seed=5)
        assert len(plan.parity_reads) == 25

    def test_split_34_into_two_17s(self):
        big = WideConvertibleCode(34, 37, family_width=34)
        small = WideConvertibleCode(17, 20, family_width=34)
        plan, _ = assert_converts(big, small, 1, seed=6)
        assert len(plan.data_reads) == 17 and len(plan.parity_reads) == 3
        assert plan.derived_finals == {1: 0}

    def test_general_regime(self):
        # 5x EC(6,9) -> 2x EC(15,18): only the straddling stripe's data.
        plan, io = assert_converts(
            WideConvertibleCode(6, 9), WideConvertibleCode(15, 18), 5, seed=7
        )
        assert len(plan.data_reads) == 6 and io.chunks_read == 18

    def test_merge_dropping_a_parity(self):
        plan, _ = assert_converts(
            WideConvertibleCode(4, 6), WideConvertibleCode(8, 10), 2, seed=8
        )
        assert len(plan.parity_reads) == 4

    def test_odd_length_chunk_raises(self):
        small = WideConvertibleCode(4, 6)
        stripes, _ = make_stripes(small, 2, chunk_len=48, seed=9)
        stripes[0].chunks[4] = stripes[0].chunks[4][:47]
        final = WideConvertibleCode(8, 10)
        with pytest.raises(ValueError):
            convert(small, final, stripes, plan_of(small, 2, final))

    def test_fields_do_not_mix(self):
        narrow, wide = ConvertibleCode(6, 9), WideConvertibleCode(6, 9)
        plan = plan_of(narrow, 2, ConvertibleCode(12, 15))
        with pytest.raises(ValueError):
            convert(narrow, WideConvertibleCode(12, 15), make_stripes(narrow, 2, 48, 0)[0], plan)
        with pytest.raises(ValueError):
            convert(wide, ConvertibleCode(12, 15), make_stripes(wide, 2, 48, 0)[0], plan)


class TestWideConvertibleCode:
    def test_is_a_cc_over_gf16(self):
        code = WideConvertibleCode(6, 9)
        assert isinstance(code, ConvertibleCode)
        assert code.field is GF16 and code.family is WIDE_FAMILY
        assert code.generator.dtype == GF16.dtype
        assert code.family_width == 40
        assert code.shift_coefficient(1, 3) == GF16.pow(code.points[1], 3)

    def test_erasure_decode_wide(self):
        code = WideConvertibleCode(34, 37, family_width=34)
        stripes, alldata = make_stripes(code, 1, chunk_len=32, seed=2)
        rec = code.decode_stripe(stripes[0].erase(3, 20, 33))
        assert chunks_equal(rec.chunks, stripes[0].chunks)

    def test_parity_reconstruction(self):
        code = WideConvertibleCode(10, 14, family_width=40)
        stripes, _ = make_stripes(code, 1, chunk_len=32, seed=3)
        rec = code.decode_stripe(stripes[0].erase(10, 12, 13))
        assert chunks_equal(rec.chunks, stripes[0].chunks)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WideConvertibleCode(0, 4)
        with pytest.raises(ValueError):
            WideConvertibleCode(81, 86)  # past the r = 5 ceiling
        assert MAX_WIDTH_16[5] == 80
