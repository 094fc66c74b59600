"""CC-friendly EC parameter suggestion (paper §5.2).

Applications choose *roughly* what redundancy they want (target width and
parity count); Morph suggests nearby parameters that make future
transcodes cheap without sacrificing durability or meaningfully hurting
space efficiency. The heuristics, in order:

1. Prefer a final width that is an **integral multiple** of the initial
   width (pure merge regime — parities-only transcode in the best case).
2. Prefer **keeping the parity count constant** (access-optimal codes).
3. When extra parities are required for reliability at larger widths,
   minimize the bandwidth-optimal read cost
   ``(k_I / k_F) * (r_I + k_I * (r_F - r_I) / r_F)``.

Suggestions are *advice*: the application keeps the final say (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.codes.costmodel import TranscodeCost, convertible_cost, rrw_cost
from repro.core.schemes import CodeKind, ECScheme

#: parities a suggestion may add beyond the request
MAX_EXTRA_PARITIES = 1


def _transition_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """What moving (k_i, r_i) stripes into (k_f, r_f) costs: the CC
    conversion, or — where none exists, as between parity counts whose
    point families do not nest (r = 1 stands apart) — the RRW the
    planner falls back to."""
    try:
        return convertible_cost(k_i, r_i, k_f, r_f)
    except ValueError:
        return rrw_cost(ECScheme(CodeKind.CC, k_f, k_f + r_f))


@dataclass(frozen=True)
class Suggestion:
    """One candidate final scheme with its predicted transcode cost."""

    k: int
    r: int
    #: predicted transcode disk IO per logical byte (read + parity write)
    transcode_io: float
    storage_overhead: float
    fault_tolerance: int
    #: True if (k, r) is exactly what the application asked for
    is_requested: bool

    @property
    def n(self) -> int:
        return self.k + self.r


class SchemeAdvisor:
    """Ranks CC-friendly final parameters near an application's request.

    Example from the paper: an application transcoding EC(6,9) files into
    EC(27,30) is told EC(24,27) is ~40% cheaper to transcode into, with
    better durability and a trivial space-efficiency decline.
    """

    def candidates(
        self, k_initial: int, r_initial: int, k_final: int, r_final: int
    ) -> List[Suggestion]:
        """All candidate (k, r) pairs near the request, best first.

        Durability is never reduced below the request (§5.2: suggestions
        must not sacrifice durability); space overhead may drift slightly
        — the application weighs that trade-off.
        """
        seen = set()
        out: List[Suggestion] = []
        # Widths within one initial width of the request.
        width_lo = max(k_initial, k_final - k_initial)
        width_hi = k_final + k_initial
        for k in range(width_lo, width_hi + 1):
            for r in range(r_final, r_final + MAX_EXTRA_PARITIES + 1):
                if (k, r) in seen:
                    continue
                seen.add((k, r))
                cost = _transition_cost(k_initial, r_initial, k, r)
                out.append(
                    Suggestion(
                        k=k,
                        r=r,
                        transcode_io=cost.disk_io,
                        storage_overhead=(k + r) / k,
                        fault_tolerance=r,
                        is_requested=(k == k_final and r == r_final),
                    )
                )
        out.sort(key=self._score(k_final, r_final))
        return out

    def _score(self, k_final: int, r_final: int):
        requested_overhead = (k_final + r_final) / k_final

        def score(s: Suggestion) -> Tuple[float, float, float]:
            # Primary: transcode IO. Secondary: how far the space overhead
            # drifts from the request. Tertiary: width distance.
            overhead_drift = abs(s.storage_overhead - requested_overhead)
            return (s.transcode_io, overhead_drift, abs(s.k - k_final))

        return score

    def suggest(
        self, k_initial: int, r_initial: int, k_final: int, r_final: int
    ) -> Suggestion:
        """Best CC-friendly final scheme for the requested transition."""
        return self.candidates(k_initial, r_initial, k_final, r_final)[0]

    def improvement_over_request(
        self, k_initial: int, r_initial: int, k_final: int, r_final: int
    ) -> Optional[float]:
        """Fractional transcode-IO saving of the suggestion vs the request.

        Returns None when the request already is the best candidate.
        """
        best = self.suggest(k_initial, r_initial, k_final, r_final)
        if best.is_requested:
            return None
        requested = _transition_cost(k_initial, r_initial, k_final, r_final)
        if requested.disk_io == 0:
            return None
        return 1.0 - best.transcode_io / requested.disk_io
