"""Erasure codes used by Morph and its baselines.

* :class:`ReedSolomon` — systematic Cauchy-based RS(k, n), the baseline
  code used by today's DFSs (HDFS-EC style).
* :class:`ConvertibleCode` — access-optimal Convertible Codes: RS-equivalent
  fault tolerance, but transcode (merge/split/general regime) reads far less
  data (Maturana & Rashmi; Morph §5).
* :class:`BandwidthOptimalCC` — vector-code (piggybacked) Convertible Codes
  for conversions that *add* parities (Morph Appendix A, case 2a).
* :class:`LocalReconstructionCode` — LRC(k, l, r) with local groups.
* :class:`LocallyRecoverableConvertibleCode` — LRCC: LRCs whose local and
  global parities are CC-mergeable (Morph §5.1).
* :mod:`repro.codes.stripemerge` — StripeMerge baseline (related work).
* :mod:`repro.codes.costmodel` — transcode IO accounting for every
  strategy, native conversions priced from their plan
  (:func:`repro.codes.convertible.plan_conversion`); drives the trace
  analyses and Figs 17/18.
"""

from repro.codes.base import (
    DecodeError,
    ErasureCode,
    Stripe,
    chunks_equal,
)
from repro.codes.rs import ReedSolomon
from repro.codes.convertible import ConvertibleCode, ConversionPlan
from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.codes.costmodel import (
    TranscodeCost,
    rrw_cost,
    native_rs_cost,
    convertible_cost,
    stripemerge_cost,
)

__all__ = [
    "ErasureCode",
    "Stripe",
    "DecodeError",
    "chunks_equal",
    "ReedSolomon",
    "ConvertibleCode",
    "ConversionPlan",
    "BandwidthOptimalCC",
    "LocalReconstructionCode",
    "LocallyRecoverableConvertibleCode",
    "TranscodeCost",
    "rrw_cost",
    "native_rs_cost",
    "convertible_cost",
    "stripemerge_cost",
]
