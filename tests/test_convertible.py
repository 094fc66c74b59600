"""Convertible Codes: MDS, conversion correctness, and IO minimality.

The central invariant: for any supported (k_I, r_I) -> (k_F, r_F), the
converted stripes are *byte-identical* to re-encoding the concatenated
data with the final code from scratch, while touching only the chunks the
plan names.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes.base import DecodeError, chunks_equal
from repro.codes.convertible import ConvertibleCode, convert, plan_conversion
from repro.codes.rs import ReedSolomon
from repro.core.schemes import CodeKind, ECScheme


def cc(k, n):
    return ECScheme(CodeKind.CC, k, n)


def make_stripes(code, n_stripes, chunk_len=24, seed=0):
    rng = np.random.default_rng(seed)
    stripes, alldata = [], []
    for _ in range(n_stripes):
        data = [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(code.k)]
        alldata.extend(data)
        stripes.append(code.encode_stripe(data))
    return stripes, alldata


def assert_conversion_correct(k_i, n_i, k_f, n_f, n_stripes, seed=0):
    initial = ConvertibleCode(k_i, n_i)
    final = ConvertibleCode(k_f, n_f)
    stripes, alldata = make_stripes(initial, n_stripes, seed=seed)
    plan = plan_conversion(cc(k_i, n_i), n_stripes, cc(k_f, n_f))
    out, io = convert(initial, final, stripes, plan)
    assert len(out) == plan.n_final_stripes
    for m, stripe in enumerate(out):
        direct = final.encode_stripe(alldata[m * k_f : (m + 1) * k_f])
        assert chunks_equal(stripe.chunks, direct.chunks), (m, k_i, k_f)
    return plan, io


class TestMds:
    @pytest.mark.parametrize("k,n", [(4, 6), (6, 9), (6, 7), (12, 15), (12, 14)])
    def test_member_codes_are_mds(self, k, n):
        assert ConvertibleCode(k, n).is_mds()

    def test_all_erasure_patterns_decode(self):
        code = ConvertibleCode(6, 9)
        stripes, _ = make_stripes(code, 1, seed=5)
        for erased in combinations(range(9), 3):
            rec = code.decode_stripe(stripes[0].erase(*erased))
            assert chunks_equal(rec.chunks, stripes[0].chunks)

    def test_same_fault_tolerance_as_rs(self):
        cc = ConvertibleCode(6, 9)
        rs = ReedSolomon(6, 9)
        assert cc.r == rs.r
        assert cc.is_mds() and rs.is_mds()


class TestMergeRegime:
    def test_merge_two_stripes_reads_parities_only(self):
        plan, io = assert_conversion_correct(6, 9, 12, 15, 2, seed=1)
        assert len(plan.data_reads) == 0
        assert len(plan.parity_reads) == 6  # Fig 7: parities, not 12 data
        assert io.parity_chunks_written == 3

    def test_merge_three_stripes(self):
        plan, io = assert_conversion_correct(4, 6, 12, 14, 3, seed=2)
        assert len(plan.data_reads) == 0
        assert len(plan.parity_reads) == 6

    def test_merge_with_parity_decrease(self):
        plan, _ = assert_conversion_correct(6, 9, 12, 14, 2, seed=3)
        # Only the surviving r_F=2 parities are read per stripe.
        assert len(plan.parity_reads) == 4

    def test_merge_many_groups(self):
        plan, _ = assert_conversion_correct(4, 6, 8, 10, 6, seed=4)
        assert plan.n_final_stripes == 3
        assert len(plan.data_reads) == 0

    def test_merged_stripe_is_decodable(self):
        initial = ConvertibleCode(6, 9)
        final = ConvertibleCode(12, 15)
        stripes, alldata = make_stripes(initial, 2, seed=6)
        out, _ = convert(initial, final, stripes, plan_conversion(cc(6, 9), 2, cc(12, 15)))
        rec = final.decode_stripe(out[0].erase(0, 7, 13))
        assert chunks_equal(rec.chunks, out[0].chunks)


class TestSplitRegime:
    def test_split_reads_match_paper(self):
        # Fig 16: EC(12,14) -> 3x EC(4,6): 8 data + 2 parity reads, not 12.
        plan, io = assert_conversion_correct(12, 14, 4, 6, 1, seed=7)
        assert len(plan.data_reads) == 8
        assert len(plan.parity_reads) == 2
        assert len(plan.derived_finals) == 1

    def test_split_two_way(self):
        plan, _ = assert_conversion_correct(12, 15, 6, 9, 1, seed=8)
        assert len(plan.data_reads) == 6
        assert len(plan.parity_reads) == 3


class TestGeneralRegime:
    def test_paper_example_6_to_15(self):
        # 5x EC(6,9) -> 2x EC(15,18): 40% less IO than reading all 30.
        plan, io = assert_conversion_correct(6, 9, 15, 18, 5, seed=9)
        assert len(plan.data_reads) == 6  # only the straddling stripe
        assert len(plan.parity_reads) == 12
        assert io.chunks_read == 18  # vs 30 for RS

    def test_general_with_derivation(self):
        # k_i=6, k_f=4: each initial stripe contains one derivable final.
        plan, _ = assert_conversion_correct(6, 9, 4, 7, 2, seed=10)
        assert plan.derived_finals

    def test_non_tiling_raises(self):
        initial = ConvertibleCode(6, 9)
        final = ConvertibleCode(8, 11)
        stripes, _ = make_stripes(initial, 3)
        # Planned as a short tail: one final stripe of the group's width.
        plan = plan_conversion(cc(6, 9), 3, cc(8, 11))
        assert (plan.final, plan.n_final_stripes) == (cc(18, 21), 1)
        with pytest.raises(ValueError):
            convert(initial, final, stripes, plan)  # 18 % 8 != 0


class TestPlanEnforcement:
    def test_convert_never_touches_unplanned_chunks(self):
        """Erase everything outside the plan; conversion must still work."""
        initial = ConvertibleCode(6, 9)
        final = ConvertibleCode(12, 15)
        stripes, alldata = make_stripes(initial, 2, seed=11)
        plan = plan_conversion(cc(6, 9), 2, cc(12, 15))
        blinded = []
        for i, stripe in enumerate(stripes):
            chunks = []
            for t in range(stripe.n):
                is_data = t < stripe.k
                global_t = i * 6 + t
                keep = (
                    (is_data and global_t in plan.data_reads)
                    or (not is_data and (i, t - 6) in plan.parity_reads)
                    or is_data  # data chunks live on in the final stripe
                )
                chunks.append(stripe.chunks[t] if keep else None)
            blinded.append(type(stripe)(stripe.k, stripe.n, chunks))
        out, _ = convert(initial, final, blinded, plan)
        direct = final.encode_stripe(alldata)
        assert chunks_equal(out[0].chunks, direct.chunks)

    def test_convert_raises_on_missing_planned_parity(self):
        initial = ConvertibleCode(6, 9)
        final = ConvertibleCode(12, 15)
        stripes, _ = make_stripes(initial, 2, seed=12)
        stripes[0] = stripes[0].erase(6)  # parity 0 of stripe 0 is planned
        with pytest.raises(DecodeError):
            convert(initial, final, stripes, plan_conversion(cc(6, 9), 2, cc(12, 15)))

    def test_parity_increase_requires_vector_codes(self):
        initial = ConvertibleCode(6, 7)
        final = ConvertibleCode(12, 14)
        assert plan_conversion(cc(6, 7), 2, cc(12, 14)) is None
        # nor does a plan that keeps one parity run as one that adds one
        with pytest.raises(ValueError):
            convert(
                initial, final, make_stripes(initial, 2)[0],
                plan_conversion(cc(6, 7), 2, cc(12, 13)),
            )

    def test_incompatible_families_rejected(self):
        # Same r but a mismatched point family must be caught.
        a = ConvertibleCode(6, 9)
        b = ConvertibleCode(12, 15)
        b_points = list(b.points)
        stripes, _ = make_stripes(a, 2)
        try:
            b.points = [p ^ 1 or 1 for p in b_points]
            with pytest.raises(ValueError):
                convert(a, b, stripes, plan_conversion(cc(6, 9), 2, cc(12, 15)))
        finally:
            b.points = b_points


class TestShiftCoefficients:
    def test_shift_zero_is_identity(self):
        code = ConvertibleCode(6, 9)
        for j in range(3):
            assert code.shift_coefficient(j, 0) == 1

    def test_shift_additivity(self):
        code = ConvertibleCode(6, 9)
        for j in range(3):
            a = code.shift_coefficient(j, 5)
            b = code.shift_coefficient(j, 7)
            assert code.field.mul(a, b) == code.shift_coefficient(j, 12)

    def test_negative_shift_inverts(self):
        code = ConvertibleCode(6, 9)
        for j in range(3):
            assert code.field.mul(
                code.shift_coefficient(j, 9), code.shift_coefficient(j, -9)
            ) == 1
