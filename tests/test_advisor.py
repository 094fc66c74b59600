"""CC-friendly parameter advisor (§5.2 heuristics)."""

import pytest

from repro.codes.costmodel import convertible_cost, rrw_cost
from repro.core.advisor import SchemeAdvisor
from repro.core.schemes import CodeKind, ECScheme


class TestSuggestions:
    def test_paper_example_prefers_24_over_27(self):
        """EC(6,9) -> EC(27,30): the advisor should steer to EC(24,27)."""
        advisor = SchemeAdvisor()
        best = advisor.suggest(6, 3, 27, 3)
        assert best.k % 6 == 0  # integral multiple of the initial width
        assert best.transcode_io < convertible_cost(6, 3, 27, 3).disk_io
        # The paper quotes ~40% with a more conservative general-regime
        # cost; our general regime already exploits derivation, so the gap
        # narrows but the integral multiple still wins clearly.
        improvement = advisor.improvement_over_request(6, 3, 27, 3)
        assert improvement is not None and improvement > 0.05

    def test_request_without_a_native_conversion_is_priced_as_rrw(self):
        """r = 1 does not share the nested point chain: CC(6,9) -> CC(12,13)
        has no native conversion. The request is priced as the RRW the
        planner falls back to; the CC-friendly r = 2 candidates beat it."""
        with pytest.raises(ValueError):
            convertible_cost(6, 3, 12, 1)
        advisor = SchemeAdvisor()
        by_shape = {(s.k, s.r): s for s in advisor.candidates(6, 3, 12, 1)}
        assert by_shape[(12, 1)].transcode_io == rrw_cost(ECScheme(CodeKind.CC, 12, 13)).disk_io
        assert by_shape[(12, 2)].transcode_io == convertible_cost(6, 3, 12, 2).disk_io
        best = advisor.suggest(6, 3, 12, 1)
        assert best.r == 2 and advisor.improvement_over_request(6, 3, 12, 1) > 0.5

    def test_integral_multiple_always_wins_nearby(self):
        advisor = SchemeAdvisor()
        for k_req in (11, 13, 17, 25):
            best = advisor.suggest(6, 3, k_req, 3)
            assert best.k % 6 == 0

    def test_cc_friendly_request_stays_cc_friendly(self):
        advisor = SchemeAdvisor()
        best = advisor.suggest(6, 3, 12, 3)
        # Wider integral multiples amortize parity writes even better, so
        # the top pick may exceed the request — but it must stay a clean
        # merge target and never cost more than the request.
        assert best.k % 6 == 0
        assert best.transcode_io <= convertible_cost(6, 3, 12, 3).disk_io

    def test_keeps_parity_count_when_possible(self):
        advisor = SchemeAdvisor(max_extra_parities=1)
        best = advisor.suggest(6, 3, 18, 3)
        assert best.r == 3  # adding a parity would force vector codes

    def test_candidates_sorted_by_cost(self):
        advisor = SchemeAdvisor()
        cands = advisor.candidates(6, 3, 18, 3)
        costs = [c.transcode_io for c in cands]
        assert costs == sorted(costs)

    def test_candidate_metadata(self):
        advisor = SchemeAdvisor()
        cands = advisor.candidates(6, 3, 12, 3)
        requested = [c for c in cands if c.is_requested]
        assert len(requested) == 1
        assert requested[0].n == 15
        assert requested[0].storage_overhead == pytest.approx(15 / 12)

    def test_durability_never_silently_reduced_below_request_minus_one(self):
        advisor = SchemeAdvisor()
        for cand in advisor.candidates(6, 3, 24, 3):
            assert cand.fault_tolerance >= 2
