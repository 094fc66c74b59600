"""Log-linear histograms: percentiles without storing every sample.

The cluster runs millions of operations; keeping every latency sample to
sort at report time does not scale. A :class:`LogLinearHistogram` keeps
one counter per logarithmic bucket (HdrHistogram / DDSketch style): the
value axis is split into octaves and each octave into
``subbuckets_per_octave`` linear sub-buckets, so every recorded value
lands in a bucket whose width is a fixed *relative* fraction of the
value. With the default 128 sub-buckets per octave the bucket width is
``2**(1/128) - 1`` (~0.54%), so any reported percentile is within ~0.3%
of the exact answer — far inside the 1% tolerance the benchmarks hold
the old sorted-list math to.

``exact_percentile`` is the sorted-list linear-interpolation formula the
scheduler simulation used inline; it lives here so tests can compare the
two paths and callers with small sample sets can stay exact.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def exact_percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile over a full sample list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class LogLinearHistogram:
    """Fixed-relative-error histogram over positive floats.

    Values ``<= 0`` land in a dedicated zero bucket (reported as 0.0).
    Recorded min/max are kept exactly, so the tail percentiles clamp to
    real observations instead of bucket edges.
    """

    def __init__(self, subbuckets_per_octave: int = 128):
        if subbuckets_per_octave < 1:
            raise ValueError("subbuckets_per_octave must be >= 1")
        self.subbuckets = subbuckets_per_octave
        self._counts: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ----------------------------------------------------------
    def _index(self, value: float) -> int:
        return math.floor(math.log2(value) * self.subbuckets)

    def record(self, value: float, count: int = 1) -> None:
        value = float(value)
        self.count += count
        self.sum += value * count
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= 0.0:
            self.zero_count += count
            return
        idx = self._index(value)
        self._counts[idx] = self._counts.get(idx, 0) + count

    def merge(self, other: "LogLinearHistogram") -> None:
        if other.subbuckets != self.subbuckets:
            raise ValueError("cannot merge histograms with different resolutions")
        for idx, c in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + c
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    # -- reading ------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _bucket_value(self, idx: int) -> float:
        # Geometric midpoint of [2^(i/S), 2^((i+1)/S)).
        return 2.0 ** ((idx + 0.5) / self.subbuckets)

    def _value_at(self, i: int) -> float:
        """Approximate value of the ``i``-th order statistic."""
        if i <= 0:
            return 0.0 if self.zero_count else self.min
        if i >= self.count - 1:
            return self.max
        if i < self.zero_count:
            return 0.0
        seen = self.zero_count
        for idx in sorted(self._counts):
            seen += self._counts[idx]
            if i < seen:
                return min(max(self._bucket_value(idx), self.min), self.max)
        return self.max

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100), within the bucket error.

        Mirrors :func:`exact_percentile`: the rank interpolates linearly
        between adjacent order statistics, each approximated by its
        bucket's geometric midpoint (exact at the min/max endpoints), so
        the two paths agree to the bucket's relative width.
        """
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * (self.count - 1)
        lo = int(rank)
        frac = rank - lo
        v_lo = self._value_at(lo)
        if frac == 0.0:
            return v_lo
        v_hi = self._value_at(min(lo + 1, self.count - 1))
        return v_lo * (1.0 - frac) + v_hi * frac

    def bucket_bounds(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) per non-empty bucket, ascending."""
        out: List[Tuple[float, int]] = []
        if self.zero_count:
            out.append((0.0, self.zero_count))
        for idx in sorted(self._counts):
            out.append((2.0 ** ((idx + 1) / self.subbuckets), self._counts[idx]))
        return out

    # -- (de)serialisation for the exporters --------------------------------
    def to_dict(self) -> Dict:
        return {
            "subbuckets": self.subbuckets,
            "counts": {str(k): v for k, v in sorted(self._counts.items())},
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LogLinearHistogram":
        hist = cls(subbuckets_per_octave=int(payload["subbuckets"]))
        hist._counts = {int(k): int(v) for k, v in payload["counts"].items()}
        hist.zero_count = int(payload["zero_count"])
        hist.count = int(payload["count"])
        hist.sum = float(payload["sum"])
        hist.min = math.inf if payload["min"] is None else float(payload["min"])
        hist.max = -math.inf if payload["max"] is None else float(payload["max"])
        return hist

    def __repr__(self) -> str:
        if not self.count:
            return "<LogLinearHistogram empty>"
        return (
            f"<LogLinearHistogram n={self.count} p50={self.percentile(50):.3g} "
            f"p99={self.percentile(99):.3g}>"
        )
