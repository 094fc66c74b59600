"""Closed-form transcode IO accounting.

Every trace-driven result in the paper (Figs 1, 12) and the appendix
sweeps (Figs 17, 18) are IO arithmetic: how many chunk-reads and
chunk-writes does moving a file from scheme A to scheme B cost under each
strategy? This module provides that arithmetic, normalised per *logical
data chunk* so callers can scale by bytes.

Strategies:

* ``RRW`` — application-level read-re-encode-write (today's DFSs): read
  all data, write all data in the new layout plus new parities.
* ``NATIVE_RS`` — DFS-native transcode with traditional codes: read all
  data, write only the new parities (data chunks stay in place because
  the DFS forms stripes over sequential chunks, §5.3).
* ``CONVERTIBLE`` — access-optimal CC when ``r_F <= r_I``; bandwidth-
  optimal vector CC when ``r_F > r_I``. The access-optimal arithmetic is
  the same containment logic :func:`repro.codes.convertible.plan_conversion`
  executes on real stripes; the two are cross-checked by tests.
* ``STRIPEMERGE`` — the related-work baseline (one supported transition).

The ``lrcc_*`` helpers cover the LRC-targeted transitions (mid -> late and
late -> later life).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd


class Strategy(enum.Enum):
    RRW = "rrw"
    NATIVE_RS = "native_rs"
    CONVERTIBLE = "convertible"
    STRIPEMERGE = "stripemerge"


@dataclass(frozen=True)
class TranscodeCost:
    """Per-logical-chunk IO multipliers for one transcode step.

    ``read`` and ``write`` are in units of "chunk-reads per data chunk of
    the file": multiply by file bytes to get byte IO. ``disk_io`` is their
    sum (the paper's Figs 1/12/17 metric); ``network`` counts chunk
    transfers that cross servers (parity-local merges are free, §5.3).
    """

    read: float
    write: float
    network: float

    @property
    def disk_io(self) -> float:
        return self.read + self.write

    def scaled(self, data_bytes: float) -> "TranscodeCost":
        return TranscodeCost(
            self.read * data_bytes, self.write * data_bytes, self.network * data_bytes
        )


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def access_optimal_read_chunks(k_i: int, r_i: int, k_f: int, r_f: int) -> float:
    """Chunks read per lcm-span for an access-optimal CC conversion.

    Mirrors :func:`repro.codes.convertible.plan_conversion` arithmetic:
    contained initial stripes contribute parities; straddling stripes are
    read except that one fully-contained final stripe per initial stripe
    is derived by subtraction. Requires ``r_f <= r_i``.
    """
    if r_f > r_i:
        raise ValueError("access-optimal CC cannot add parities")
    span = _lcm(k_i, k_f)
    n_i = span // k_i
    reads = 0.0
    for i in range(n_i):
        i_lo, i_hi = i * k_i, (i + 1) * k_i
        if i_lo // k_f == (i_hi - 1) // k_f:
            reads += min(r_f, k_i)  # contained: parities, unless data wins
            continue
        contained = [
            m
            for m in range(i_lo // k_f, (i_hi - 1) // k_f + 1)
            if i_lo <= m * k_f and (m + 1) * k_f <= i_hi
        ]
        if contained and r_f < k_f:
            reads += r_f + (k_i - k_f)  # derive one final by subtraction
        else:
            reads += k_i
    return reads


def bandwidth_optimal_read_chunks(k_i: int, r_i: int, k_f: int, r_f: int) -> float:
    """Chunks read per lcm-span for BWO-CC when parities increase.

    Merge regime is exact (matches :class:`BandwidthOptimalCC`); split and
    general regimes use the read-parities-plus-data-fraction bound from
    the bandwidth-conversion literature (documented approximation).
    """
    if r_f <= r_i:
        raise ValueError("use access_optimal_read_chunks when r does not grow")
    frac = (r_f - r_i) / r_f
    span = _lcm(k_i, k_f)
    n_i = span // k_i
    if k_f % k_i == 0:
        # Merge: per initial stripe, r_I parities + data-tail fraction.
        return n_i * (r_i + k_i * frac)
    if k_i % k_f == 0:
        # Split: parities + fraction of all data (piggyback pre-computation).
        return r_i + k_i * frac
    # General: contained stripes behave like merge members; straddlers read.
    reads = 0.0
    for i in range(n_i):
        i_lo, i_hi = i * k_i, (i + 1) * k_i
        if i_lo // k_f == (i_hi - 1) // k_f:
            reads += r_i + k_i * frac
        else:
            reads += k_i
    return reads


def convertible_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """Per-data-chunk cost of a CC transcode from (k_i, r_i) to (k_f, r_f)."""
    span = _lcm(k_i, k_f)
    if r_f <= r_i:
        reads = access_optimal_read_chunks(k_i, r_i, k_f, r_f)
    else:
        reads = bandwidth_optimal_read_chunks(k_i, r_i, k_f, r_f)
    writes = (span // k_f) * r_f
    # Parity co-location (§5.3) makes same-r merges server-local: the only
    # network transfers are reads that cross to the computing server. With
    # placement planned, parity merges move no data; data reads do.
    if r_f <= r_i and k_f % k_i == 0:
        network = 0.0
    else:
        network = reads
    return TranscodeCost(reads / span, writes / span, network / span)


def rrw_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """Application-level read-re-encode-write (baseline DFSs)."""
    read = 1.0
    write = 1.0 + r_f / k_f
    return TranscodeCost(read, write, read + write)


def native_rs_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """DFS-native transcode with RS: read all data, write new parities."""
    read = 1.0
    write = r_f / k_f
    return TranscodeCost(read, write, read + write)


def stripemerge_cost(
    k_i: int, r_i: int, k_f: int, r_f: int, conflict_rate: float = 0.05
) -> TranscodeCost:
    """StripeMerge baseline; outside its one scenario it degrades to RRW."""
    from repro.codes.stripemerge import StripeMergeModel

    model = StripeMergeModel(conflict_rate=conflict_rate)
    if not model.supports(k_i, r_i, k_f, r_f):
        return rrw_cost(k_i, r_i, k_f, r_f)
    read = model.read_chunks(k_i, r_i, k_f, r_f) / k_f
    write = model.write_chunks(k_i, r_i, k_f, r_f) / k_f
    return TranscodeCost(read, write, read + write)


def lrcc_from_cc_cost(k_i: int, r_i: int, big_k: int, l: int, r_global: int) -> TranscodeCost:
    """CC(k_i, k_i + r_i) -> LRCC(big_k, l, r_global), parities only.

    Requires groups to be integral numbers of initial stripes and
    ``r_global <= r_i - 1``.
    """
    if big_k % k_i != 0:
        raise ValueError("LRCC width must be a multiple of the initial width")
    if (big_k // l) % k_i != 0:
        raise ValueError("LRCC groups must be integral numbers of initial stripes")
    if r_global > r_i - 1:
        raise ValueError("LRCC needs r_global <= r_I - 1")
    lam = big_k // k_i
    reads = lam * (r_global + 1)
    writes = l + r_global
    return TranscodeCost(reads / big_k, writes / big_k, 0.0)


def lrcc_merge_cost(
    k_i: int, l_i: int, rg_i: int, k_f: int, l_f: int, rg_f: int
) -> TranscodeCost:
    """LRCC(k_i, l_i, rg_i) -> LRCC(k_f, l_f, rg_f) merge, parities only."""
    if k_f % k_i != 0:
        raise ValueError("LRCC merge needs integral width ratio")
    if rg_f > rg_i:
        raise ValueError("LRCC merge cannot add global parities")
    lam = k_f // k_i
    reads = lam * (l_i + rg_f)
    writes = l_f + rg_f
    return TranscodeCost(reads / k_f, writes / k_f, 0.0)


def lrc_rrw_cost(k_i: int, k_f: int, l_f: int, rg_f: int) -> TranscodeCost:
    """Baseline RRW into an LRC target (what Services A/B do today)."""
    read = 1.0
    write = 1.0 + (l_f + rg_f) / k_f
    return TranscodeCost(read, write, read + write)


def transcode_cost(
    strategy: Strategy, k_i: int, r_i: int, k_f: int, r_f: int
) -> TranscodeCost:
    """Dispatch on strategy for plain (non-LRC) EC-to-EC transitions."""
    if strategy is Strategy.RRW:
        return rrw_cost(k_i, r_i, k_f, r_f)
    if strategy is Strategy.NATIVE_RS:
        return native_rs_cost(k_i, r_i, k_f, r_f)
    if strategy is Strategy.CONVERTIBLE:
        return convertible_cost(k_i, r_i, k_f, r_f)
    if strategy is Strategy.STRIPEMERGE:
        return stripemerge_cost(k_i, r_i, k_f, r_f)
    raise ValueError(f"unknown strategy {strategy}")
