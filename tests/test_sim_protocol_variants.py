"""Unit coverage for the remaining sim protocol variants (§6.1)."""

import pytest

from repro.sim import protocols as P
from repro.sim.cluster import SimCluster
from repro.sim.workload import ClosedLoopWorkload

MB = 1024 * 1024


def run(op, t=8, ops=30, size=8 * MB, seed=42):
    sim = SimCluster(seed=seed)
    wl = ClosedLoopWorkload(sim, op, n_threads=t, ops_per_thread=ops, op_bytes=size)
    return wl.run()


class TestParityOptionProtocols:
    def test_sync_parity_slower_than_async(self):
        asyn = run(lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 1))
        sync = run(lambda s: P.write_hybrid_sync_parity(s, 8 * MB, 6, 9, 1))
        assert sync.p(50) > 1.2 * asyn.p(50)

    def test_no_parity_fastest(self):
        # Parities disabled, Hy(c) is (c + 1)-way replication.
        asyn = run(lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 1))
        none = run(lambda s: P.write_replicated(s, 8 * MB, 2))
        assert none.p(50) <= asyn.p(50) * 1.05

    def test_no_parity_copies_scale_latency(self):
        one = run(lambda s: P.write_replicated(s, 8 * MB, 2))
        three = run(lambda s: P.write_replicated(s, 8 * MB, 4))
        # More in-memory receivers -> deeper max; strictly not faster.
        assert three.p(90) >= one.p(90) * 0.9


class TestHedgedReadMechanics:
    def test_dead_primary_falls_through(self):
        """With every replica down, the stripe serves the read."""

        def op(sim):
            for node in sim.nodes:
                node.is_alive = False
            for node in sim.nodes[:9]:
                node.is_alive = True
            return P.read_replica_hedged(
                sim, 8 * MB, 0, stripe_k=6, stripe_n=9
            )

        result = run(op, t=2, ops=10)
        assert len(result.latencies) == 20
        assert all(l > 0 for l in result.latencies)

    def test_hedge_deadline_bounds_tail(self):
        """Hedging caps the single-copy tail: p99 of hedged 3-r stays
        below deadline + a second read's typical time."""
        sim = SimCluster(seed=7)
        wl = ClosedLoopWorkload(
            sim, lambda s: P.read_replica_hedged(s, 8 * MB, 3),
            n_threads=4, ops_per_thread=100, op_bytes=8 * MB)
        res = wl.run()
        assert res.p(99) < sim.cal.hedge_deadline_s + 1.0


class TestTranscodeReadOps:
    def test_cc_reads_fewer_nodes(self):
        rs = run(lambda s: P.transcode_read_rs(s, 96 * MB, 12, 6), t=10, ops=4, size=96 * MB)
        cc = run(lambda s: P.transcode_read_cc(s, 96 * MB, 12, 6), t=10, ops=4, size=96 * MB)
        assert cc.p(50) < rs.p(50)

    def test_vector_read_with_fraction(self):
        res = run(
            lambda s: P.transcode_read_cc(
                s, 96 * MB, 12, 2, data_fraction=0.5, n_data_reads=12
            ),
            t=10, ops=4, size=96 * MB)
        assert res.p(50) > 0

    def test_compute_scales_with_vector_overhead(self):
        plain = run(lambda s: P.transcode_compute(s, 96 * MB, 12, 6, 3), t=5, ops=5, size=96 * MB)
        vector = run(lambda s: P.transcode_compute(s, 96 * MB, 12, 6, 3, 1.8), t=5, ops=5, size=96 * MB)
        assert vector.p(50) == pytest.approx(1.8 * plain.p(50), rel=0.05)
