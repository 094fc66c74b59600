#!/usr/bin/env python3
"""Wide stripes: late-life economics and the GF(2^16) field.

Late-life data lives in very wide stripes (the paper cites 80- and even
150-wide deployments) because storage overhead shrinks as 1 + r/k. This
demo walks the width ladder:

1. the overhead / durability / repair-cost trade as stripes widen;
2. why GF(2^8) cannot host wide *convertible* codes (verified MDS point
   families run out) and how GF(2^16) fixes it;
3. the paper's own wide example — merging two EC(17,20) stripes into
   EC(34,37) — executed functionally with >80% read savings;
4. wide LRCC: local repair keeps wide stripes operable.

Run:  python examples/wide_stripes.py
"""

import numpy as np

from repro.bench.reporting import print_table
from repro.codes.convertible import convert, plan_conversion
from repro.codes.pointsearch import MAX_FEASIBLE_WIDTH
from repro.codes.wide import MAX_WIDTH_16, WideConvertibleCode
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.core.durability import FailureEnvironment, annual_loss_probability, nines
from repro.core.schemes import CodeKind, ECScheme


def width_ladder():
    env = FailureEnvironment()
    rows = []
    for (k, n) in [(6, 9), (12, 15), (24, 27), (48, 52), (72, 80)]:
        if n - k <= 3:
            scheme = ECScheme(CodeKind.RS, k, n)
        else:
            scheme = ECScheme(CodeKind.LRC, k, n, local_groups=n - k - 2, r_global=2)
        p = annual_loss_probability(scheme, env, groups=100_000)
        rows.append((
            str(scheme),
            f"{scheme.storage_overhead:.3f}x",
            scheme.fault_tolerance,
            k,  # chunks read for a plain RS repair
            f"{nines(p):.1f}",
        ))
    print_table(
        "The width ladder: overhead falls, repair widens",
        ["scheme", "overhead", "tolerates", "RS repair reads", "nines (100k groups)"],
        rows,
    )


def field_ceilings():
    rows = []
    for r in (2, 3, 4, 5):
        rows.append((r, MAX_FEASIBLE_WIDTH[r], MAX_WIDTH_16[r]))
    print_table(
        "Verified convertible-family width ceilings (MDS-safe points)",
        ["parities r", "GF(2^8) max width", "GF(2^16) max width"],
        rows,
    )


def paper_wide_merge():
    rng = np.random.default_rng(5)
    small = WideConvertibleCode(17, 20, family_width=34)
    big = WideConvertibleCode(34, 37, family_width=34)
    stripes, alldata = [], []
    for _ in range(2):
        data = [rng.integers(0, 256, 32 * 1024, dtype=np.uint8) for _ in range(17)]
        alldata.extend(data)
        stripes.append(small.encode_stripe(data))
    plan = plan_conversion(ECScheme(CodeKind.CC, 17, 20), 2, ECScheme(CodeKind.CC, 34, 37))
    (merged,), io = convert(small, big, stripes, plan)
    direct = big.encode(alldata)
    assert all(np.array_equal(a, b) for a, b in zip(merged.parity_chunks, direct))
    print("\nEC(17,20) x2 -> EC(34,37) over GF(2^16): byte-identical to a "
          "direct encode;")
    print(f"reads {io.chunks_read:.0f} parity chunks instead of 34 data chunks "
          f"({1 - io.chunks_read / 34:.0%} less — paper: 'saves > 80% of bandwidth').")


def wide_lrcc_repair():
    code = LocallyRecoverableConvertibleCode(72, 6, 2)
    rng = np.random.default_rng(6)
    data = [rng.integers(0, 256, 4096, dtype=np.uint8) for _ in range(72)]
    stripe = code.encode_stripe(data)
    failed = 40
    peers = [m for m in code.group_members(code.group_of(failed)) if m != failed]
    repaired = code.local_repair(
        failed, {m: stripe.chunks[m] for m in peers}
    )
    assert np.array_equal(repaired, stripe.chunks[failed])
    print(f"\nLRCC(72,6,2): repairing chunk {failed} read {len(peers)} group "
          f"chunks instead of 72 — locality is what makes wide stripes "
          f"operable (paper §2).")


if __name__ == "__main__":
    width_ladder()
    field_ceilings()
    paper_wide_merge()
    wide_lrcc_repair()
