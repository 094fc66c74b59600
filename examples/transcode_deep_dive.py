#!/usr/bin/env python3
"""Convertible Codes deep dive: every conversion regime, byte-verified.

Walks through the paper's §5 / Appendix A machinery at the codes layer:

1. merge (Fig 7): 2x CC(6,9) -> CC(12,15), parities only;
2. split (Fig 16): CC(12,14) -> 3x CC(4,6), 10 reads instead of 12;
3. general: 5x CC(6,9) -> 2x CC(15,18), 40% fewer reads;
4. bandwidth-optimal vector codes (Fig 8): CC(4,5) -> CC(8,10) with
   piggybacked pre-computation, 25% fewer bytes read;
5. CC -> LRCC (the warm -> cool transition): first parities become local
   parities verbatim;
6. the §5.2 parameter advisor steering EC(6,9) -> EC(27,30) to a
   CC-friendly alternative.

Every conversion is checked byte-for-byte against a from-scratch encode.

Run:  python examples/transcode_deep_dive.py
"""

import numpy as np

from repro.codes import (
    BandwidthOptimalCC,
    ConvertibleCode,
    LocallyRecoverableConvertibleCode,
)
from repro.codes.base import chunks_equal
from repro.codes.convertible import convert, plan_conversion
from repro.codes.lrcc import convert_cc_to_lrcc
from repro.core.advisor import SchemeAdvisor
from repro.core.schemes import CodeKind, ECScheme

rng = np.random.default_rng(7)


def cc(k, n, anticipate_parities=None):
    return ECScheme(CodeKind.CC, k, n, anticipate_parities=anticipate_parities)


def stripes_of(code, count, chunk_len=64):
    stripes, alldata = [], []
    for _ in range(count):
        data = [rng.integers(0, 256, chunk_len, dtype=np.uint8) for _ in range(code.k)]
        alldata.extend(data)
        stripes.append(code.encode_stripe(data))
    return stripes, alldata


def show(title, io, rs_reads):
    print(f"{title}")
    print(f"  reads: {io.chunks_read:g} chunk-equivalents (RS would read {rs_reads})"
          f" -> {1 - io.chunks_read / rs_reads:.0%} less")


def main():
    # 1. Merge.
    cc6, cc12 = ConvertibleCode(6, 9), ConvertibleCode(12, 15)
    stripes, alldata = stripes_of(cc6, 2)
    out, io = convert(cc6, cc12, stripes, plan_conversion(cc(6, 9), 2, cc(12, 15)))
    assert chunks_equal(out[0].chunks, cc12.encode_stripe(alldata).chunks)
    show("1. merge 2x CC(6,9) -> CC(12,15) [Fig 7]", io, 12)

    # 2. Split.
    cc12b, cc4 = ConvertibleCode(12, 14), ConvertibleCode(4, 6)
    stripes, alldata = stripes_of(cc12b, 1)
    out, io = convert(cc12b, cc4, stripes, plan_conversion(cc(12, 14), 1, cc(4, 6)))
    for m in range(3):
        assert chunks_equal(out[m].chunks,
                            cc4.encode_stripe(alldata[m * 4 : (m + 1) * 4]).chunks)
    show("2. split CC(12,14) -> 3x CC(4,6) [Fig 16]", io, 12)

    # 3. General regime.
    cc15 = ConvertibleCode(15, 18)
    stripes, alldata = stripes_of(cc6, 5)
    out, io = convert(cc6, cc15, stripes, plan_conversion(cc(6, 9), 5, cc(15, 18)))
    for m in range(2):
        assert chunks_equal(out[m].chunks,
                            cc15.encode_stripe(alldata[m * 15 : (m + 1) * 15]).chunks)
    show("3. general 5x CC(6,9) -> 2x CC(15,18)", io, 30)

    # 4. Bandwidth-optimal vector codes.
    bwo = BandwidthOptimalCC(4, 1, 2, family_width=8)
    final = ConvertibleCode(8, 10, family_width=8)
    stripes, alldata = stripes_of(bwo, 2)
    plan = plan_conversion(cc(4, 5, anticipate_parities=2), 2, cc(8, 10))
    (merged,), io = bwo.convert_merge(final, stripes, plan)
    assert chunks_equal(merged.chunks, final.encode_stripe(alldata).chunks)
    show("4. BWO-CC merge CC(4,5) -> CC(8,10) [Fig 8, piggybacked]", io, 8)

    # 5. CC -> LRCC.
    lrcc = LocallyRecoverableConvertibleCode(24, 4, 2)
    stripes, alldata = stripes_of(cc6, 4)
    plan = plan_conversion(cc(6, 9), 4, ECScheme(CodeKind.LRCC, 24, 30, 4, 2))
    (merged,), io = convert_cc_to_lrcc(cc6, lrcc, stripes, plan)
    assert chunks_equal(merged.chunks, lrcc.encode_stripe(alldata).chunks)
    for g in range(4):
        assert np.array_equal(merged.chunks[24 + g], stripes[g].chunks[6])
    show("5. 4x CC(6,9) -> LRCC(24,4,2): first parities become locals", io, 24)

    # 6. Parameter advice.
    advisor = SchemeAdvisor()
    best = advisor.suggest(6, 3, 27, 3)
    improvement = advisor.improvement_over_request(6, 3, 27, 3)
    print(f"6. advisor: EC(6,9) -> EC(27,30) requested; suggests "
          f"EC({best.k},{best.n}) — {improvement:.0%} cheaper transcode, "
          f"overhead {best.storage_overhead:.3f} vs {30/27:.3f} [§5.2]")


if __name__ == "__main__":
    main()
