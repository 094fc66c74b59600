"""Parity-computation options (§6.1) and wide-stripe conversions.

The paper offers three parity options for hybrid writes — synchronous
(client waits), asynchronous (Datanode striper, the default), and
disabled (pure replication). This bench quantifies the latency spread
and, separately, exercises the GF(2^16) wide-stripe merge the paper
cites (EC(17,20) -> EC(34,37), >80% bandwidth saving).
"""

import numpy as np

from repro.bench.reporting import print_table
from repro.sim import protocols as P
from repro.sim.cluster import SimCluster
from repro.sim.workload import ClosedLoopWorkload

MB = 1024 * 1024


def _run(op, t=12, ops=60, size=8 * MB, seed=42):
    sim = SimCluster(seed=seed)
    wl = ClosedLoopWorkload(sim, op, n_threads=t, ops_per_thread=ops, op_bytes=size)
    return wl.run()


def test_parity_computation_options(once):
    async_ = once(lambda: _run(lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 1)))
    sync = _run(lambda s: P.write_hybrid_sync_parity(s, 8 * MB, 6, 9, 1))
    # Parities disabled, Hy(1) is 2-way replication.
    none = _run(lambda s: P.write_replicated(s, 8 * MB, 2))
    rows = [
        ("async (default)", async_.p(50) * 1e3, async_.p(90) * 1e3),
        ("synchronous", sync.p(50) * 1e3, sync.p(90) * 1e3),
        ("disabled", none.p(50) * 1e3, none.p(90) * 1e3),
    ]
    print_table("§6.1 parity options: 8 MB hybrid write latency",
                ["option", "p50 (ms)", "p90 (ms)"], rows)

    # Async keeps the 3-r profile; sync pays encode + parity persistence;
    # disabled is fastest (fewest in-memory copies to wait on).
    assert sync.p(50) > 1.3 * async_.p(50)
    assert none.p(50) <= async_.p(50) * 1.05


def test_wide_stripe_merge_17_to_34(once):
    """Functional GF(2^16) version of the paper's EC(17,20)->EC(34,37)."""
    from repro.codes.convertible import convert, plan_conversion
    from repro.codes.wide import WideConvertibleCode
    from repro.core.schemes import CodeKind, ECScheme

    def run():
        rng = np.random.default_rng(4)
        small = WideConvertibleCode(17, 20, family_width=34)
        big = WideConvertibleCode(34, 37, family_width=34)
        stripes, alldata = [], []
        for _ in range(2):
            data = [rng.integers(0, 256, 64 * 1024, dtype=np.uint8) for _ in range(17)]
            alldata.extend(data)
            stripes.append(small.encode_stripe(data))
        plan = plan_conversion(
            ECScheme(CodeKind.CC, 17, 20), 2, ECScheme(CodeKind.CC, 34, 37)
        )
        (merged,), io = convert(small, big, stripes, plan)
        direct = big.encode(alldata)
        assert all(np.array_equal(a, b) for a, b in zip(merged.parity_chunks, direct))
        return {"reads": io.chunks_read, "rs_reads": 34}

    result = once(run)
    saving = 1 - result["reads"] / result["rs_reads"]
    print(f"\nEC(17,20) x2 -> EC(34,37): {result['reads']:.0f} parity reads vs "
          f"{result['rs_reads']} data reads ({saving:.0%} saving; paper: >80%)")
    assert saving > 0.80
