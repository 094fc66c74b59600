"""Closed-form transcode IO accounting.

Every trace-driven result in the paper (Figs 1, 12) and the appendix
sweeps (Figs 17, 18) are IO arithmetic: how many chunk-reads and
chunk-writes does moving a file from scheme A to scheme B cost under each
strategy? This module provides that arithmetic, normalised per *logical
data chunk* so callers can scale by bytes:

* :func:`rrw_cost` — read-re-encode-write (today's DFSs, and Morph
  wherever no native conversion exists): read all data, write the
  target's whole footprint. The one price of a rewrite.
* :func:`native_rs_cost` — DFS-native transcode with traditional codes:
  read all data, write only the new parities (data chunks stay in place
  because the DFS forms stripes over sequential chunks, §5.3).
* :func:`native_cost` / :func:`convertible_cost` — a native conversion,
  priced from the plan the DFS executes
  (:func:`repro.codes.convertible.plan_conversion`): access-optimal CC,
  the bandwidth-optimal merge, CC -> LRCC and LRCC -> LRCC. Only the
  bandwidth-optimal split and general regimes, which have no code here,
  are closed-form bounds.
* :func:`stripemerge_cost` — the related-work baseline (one supported
  transition).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Optional

from repro.codes.convertible import plan_conversion

if TYPE_CHECKING:
    from repro.core.schemes import ECScheme, RedundancyScheme


@dataclass(frozen=True)
class TranscodeCost:
    """Per-logical-chunk IO multipliers for one transcode step.

    ``read`` and ``write`` are in units of "chunk-reads per data chunk of
    the file": multiply by file bytes to get byte IO. ``disk_io`` is their
    sum (the paper's Figs 1/12/17 metric).
    """

    read: float
    write: float

    @property
    def disk_io(self) -> float:
        return self.read + self.write


def bandwidth_optimal_read_chunks(k_i: int, r_i: int, k_f: int, r_f: int) -> float:
    """Chunks read per lcm-span by a parity-growing split or general
    conversion: the read-parities-plus-data-fraction bound from the
    bandwidth-conversion literature (documented approximation; the merge
    regime is priced from its plan)."""
    if r_f <= r_i:
        raise ValueError("a bound for conversions that add parities")
    frac = (r_f - r_i) / r_f
    if k_i % k_f == 0:
        # Split: parities + fraction of all data (piggyback pre-computation).
        return r_i + k_i * frac
    # General: contained stripes behave like merge members; straddlers read.
    reads = 0.0
    for i in range(lcm(k_i, k_f) // k_i):
        i_lo, i_hi = i * k_i, (i + 1) * k_i
        if i_lo // k_f == (i_hi - 1) // k_f:
            reads += r_i + k_i * frac
        else:
            reads += k_i
    return reads


def native_cost(source: "ECScheme", target: "ECScheme") -> Optional[TranscodeCost]:
    """Per-data-chunk cost of the native conversion of ``source`` stripes
    into ``target``, priced from the plan of one lcm span of them — or
    ``None`` where no native path exists."""
    span = lcm(source.k, target.k)
    plan = plan_conversion(source, span // source.k, target)
    if plan is None:
        return None
    io = plan.io()
    return TranscodeCost(io.chunks_read / span, io.parity_chunks_written / span)


def convertible_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """Per-data-chunk cost of a CC transcode from (k_i, r_i) to (k_f, r_f),
    stripes coded anticipating a parity growth: :func:`native_cost`, else
    the bound of a parity-growing split or general conversion."""
    from repro.core.schemes import CodeKind, ECScheme

    grows = r_f > r_i
    cost = native_cost(
        ECScheme(CodeKind.CC, k_i, k_i + r_i, anticipate_parities=r_f if grows else None),
        ECScheme(CodeKind.CC, k_f, k_f + r_f),
    )
    if cost is not None:
        return cost
    if not grows:
        raise ValueError(f"CC with {r_i} and {r_f} parities share no point family")
    span = lcm(k_i, k_f)
    reads = bandwidth_optimal_read_chunks(k_i, r_i, k_f, r_f)
    return TranscodeCost(reads / span, (span // k_f) * r_f / span)


def rrw_cost(target: "RedundancyScheme") -> TranscodeCost:
    """Read-re-encode-write into ``target``, whatever the source: read the
    data once, write the target's footprint — its replica copies plus
    its stripes' data and parities (``1 + r/k``, which is not always
    ``n/k`` to the last bit)."""
    ec = target.ec_part
    stripes = 0.0 if ec is None else 1.0 + ec.r / ec.k
    copies = 0 if ec is target else target.copies  # an EC scheme is its own ec_part
    return TranscodeCost(1.0, copies + stripes)


def native_rs_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """DFS-native transcode with RS: read all data, write new parities."""
    return TranscodeCost(1.0, r_f / k_f)


def stripemerge_cost(k_i: int, r_i: int, k_f: int, r_f: int) -> TranscodeCost:
    """StripeMerge baseline; outside its one scenario it degrades to RRW."""
    from repro.codes.stripemerge import StripeMergeModel
    from repro.core.schemes import CodeKind, ECScheme

    model = StripeMergeModel()
    if not model.supports(k_i, r_i, k_f, r_f):
        return rrw_cost(ECScheme(CodeKind.RS, k_f, k_f + r_f))
    read = model.read_chunks(k_i, r_i, k_f, r_f) / k_f
    write = model.write_chunks(k_i, r_i, k_f, r_f) / k_f
    return TranscodeCost(read, write)
