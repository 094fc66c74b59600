"""Transcode planning: map a scheme transition to a strategy and IO cost.

The planner is the policy brain shared by the DFS transcoder (which
executes plans on real chunks) and the trace analyzer (which only needs
the arithmetic). Given (from_scheme, to_scheme) it decides:

* **free** — hybrid -> its own embedded EC scheme: delete replicas,
  flip metadata (§4.5);
* **convertible** — a native conversion exists
  (:func:`repro.codes.convertible.plan_conversion`): CC/LRCC merge /
  split / general regime (§5), priced from its plan;
* **rrw** — anything else (the baseline read-re-encode-write).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.codes.costmodel import TranscodeCost, lrc_rrw_cost, native_cost, rrw_cost
from repro.core.schemes import (
    CodeKind,
    ECScheme,
    HybridScheme,
    RedundancyScheme,
    Replication,
)


class TranscodeKind(enum.Enum):
    FREE = "free"  # replica deletion + metadata flip
    CONVERTIBLE = "convertible"  # CC / LRCC parity-level conversion
    RRW = "rrw"  # read-re-encode-write


@dataclass(frozen=True)
class TranscodeStep:
    """A planned transition: how to get from one scheme to another."""

    source: RedundancyScheme
    target: RedundancyScheme
    kind: TranscodeKind
    cost: TranscodeCost  # per logical byte

    @property
    def is_free(self) -> bool:
        return self.kind is TranscodeKind.FREE


def _ec_of(scheme: RedundancyScheme) -> Optional[ECScheme]:
    if isinstance(scheme, ECScheme):
        return scheme
    if isinstance(scheme, HybridScheme):
        return scheme.ec
    return None


class TranscodePlanner:
    """Chooses the cheapest supported strategy for each transition."""

    def plan(
        self, source: RedundancyScheme, target: RedundancyScheme
    ) -> TranscodeStep:
        # Hybrid -> its embedded EC: free (delete replicas).
        if isinstance(source, HybridScheme) and source.ec == target:
            return TranscodeStep(
                source, target, TranscodeKind.FREE, TranscodeCost(0.0, 0.0, 0.0)
            )
        src_ec = _ec_of(source)
        tgt_ec = _ec_of(target)
        # Replication -> anything, or anything -> replication: RRW.
        if isinstance(source, Replication) or isinstance(target, Replication):
            cost = self._rrw(source, target)
            return TranscodeStep(source, target, TranscodeKind.RRW, cost)
        if src_ec is None or tgt_ec is None:
            raise ValueError(f"cannot plan {source} -> {target}")
        cost = native_cost(src_ec, tgt_ec)
        if cost is not None:
            return TranscodeStep(source, target, TranscodeKind.CONVERTIBLE, cost)
        return TranscodeStep(source, target, TranscodeKind.RRW, self._rrw(source, target))

    # -- helpers -----------------------------------------------------------
    def _rrw(self, source: RedundancyScheme, target: RedundancyScheme) -> TranscodeCost:
        tgt_ec = _ec_of(target)
        if isinstance(target, Replication):
            return TranscodeCost(1.0, float(target.copies), 1.0 + target.copies)
        assert tgt_ec is not None
        if tgt_ec.kind in (CodeKind.LRC, CodeKind.LRCC):
            return lrc_rrw_cost(
                _ec_of(source).k if _ec_of(source) else 1,
                tgt_ec.k, tgt_ec.local_groups, tgt_ec.r_global,
            )
        src_ec = _ec_of(source)
        src_k = src_ec.k if src_ec else 1
        src_r = src_ec.r if src_ec else 0
        return rrw_cost(src_k, src_r, tgt_ec.k, tgt_ec.r)
