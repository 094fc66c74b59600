"""Transcode planning: map a scheme transition to a strategy and IO cost.

The planner is the policy brain shared by the DFS transcoder (which
executes plans on real chunks) and the trace analyzer (which only needs
the arithmetic). Given (from_scheme, to_scheme) it decides:

* **free** — hybrid -> its own embedded EC scheme: delete replicas,
  flip metadata (§4.5);
* **convertible** — a native conversion exists
  (:func:`repro.codes.convertible.plan_conversion`): CC/LRCC merge /
  split / general regime (§5), priced from its plan;
* **rrw** — anything else (the baseline read-re-encode-write), into a
  replicated or hybrid target in particular: only ingest lays replica
  blocks. Priced by :func:`repro.codes.costmodel.rrw_cost` of the target.

The kind is per scheme. A file whose stripes do not tile the plan's
spans (a DFS file's own groups, :meth:`repro.dfs.MorphFS._open_transcode`)
goes by RRW instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.codes.costmodel import TranscodeCost, native_cost, rrw_cost
from repro.core.schemes import ECScheme, HybridScheme, RedundancyScheme


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


class TranscodePlanner:
    """Chooses the cheapest supported strategy for each transition."""

    def plan(
        self, source: RedundancyScheme, target: RedundancyScheme
    ) -> TranscodeStep:
        # Hybrid -> its embedded EC: free (delete replicas).
        if isinstance(source, HybridScheme) and source.ec == target:
            return TranscodeStep(
                source, target, TranscodeKind.FREE, TranscodeCost(0.0, 0.0)
            )
        # Into a replicated or hybrid target it is a rewrite: only ingest
        # lays replica blocks.
        if source.ec_part is not None and isinstance(target, ECScheme):
            cost = native_cost(source.ec_part, target)
            if cost is not None:
                return TranscodeStep(source, target, TranscodeKind.CONVERTIBLE, cost)
        return TranscodeStep(source, target, TranscodeKind.RRW, rrw_cost(target))
