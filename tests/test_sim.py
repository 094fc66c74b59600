"""Performance-simulation shape properties (Figs 3, 13, 14, 15)."""

import pytest

from repro.sim import protocols as P
from repro.cluster.failure import FailureInjector
from repro.sim.cluster import SimCluster
from repro.sim.workload import ClosedLoopWorkload, percentile

MB = 1024 * 1024


def run(op, t=12, ops=40, size=8 * MB, seed=42, fail=0.0):
    sim = SimCluster(seed=seed)
    if fail:
        FailureInjector(sim, seed=sim.rng).fail_fraction(fail)
    wl = ClosedLoopWorkload(sim, op, n_threads=t, ops_per_thread=ops, op_bytes=size)
    return wl.run()


class TestWriteShapes:
    def test_hybrid_matches_3r(self):
        """Identical client path; tolerance covers seed-to-seed noise."""
        r3 = run(lambda s: P.write_replicated(s, 8 * MB, 3), ops=80)
        hy = run(lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 1), ops=80)
        assert hy.p(50) == pytest.approx(r3.p(50), rel=0.08)
        assert hy.p(90) == pytest.approx(r3.p(90), rel=0.15)

    def test_rs_write_much_slower(self):
        r3 = run(lambda s: P.write_replicated(s, 8 * MB, 3))
        rs = run(lambda s: P.write_rs(s, 8 * MB, 6, 9))
        assert rs.p(50) > 3 * r3.p(50)  # paper: ~6x at median
        assert rs.p(90) > 3 * r3.p(90)  # paper: ~4x at p90

    def test_3r_p90_near_paper_anchor(self):
        r3 = run(lambda s: P.write_replicated(s, 8 * MB, 3), ops=80)
        assert 0.120 < r3.p(90) < 0.280  # paper: 191 ms

    def test_rs_p90_near_paper_anchor(self):
        rs = run(lambda s: P.write_rs(s, 8 * MB, 6, 9), ops=80)
        assert 0.500 < rs.p(90) < 1.000  # paper: 732 ms

    def test_hy2_same_shape_as_hy1(self):
        h1 = run(lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 1))
        h2 = run(lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 2))
        assert h2.p(50) == pytest.approx(h1.p(50), rel=0.05)


class TestWriteThroughput:
    def test_hybrid_streaming_tput_matches_3r(self):
        r3 = run(lambda s: P.write_replicated(s, 120 * MB, 3), ops=20, size=120 * MB)
        hy = run(lambda s: P.write_hybrid(s, 120 * MB, 6, 9, 1), ops=20, size=120 * MB)
        assert hy.throughput_mb_s == pytest.approx(r3.throughput_mb_s, rel=0.05)

    def test_rs_streaming_tput_slightly_lower(self):
        hy = run(lambda s: P.write_hybrid(s, 120 * MB, 6, 9, 1), ops=20, size=120 * MB)
        rs = run(lambda s: P.write_rs_streaming(s, 120 * MB, 6, 9), ops=20, size=120 * MB)
        assert rs.throughput_mb_s < hy.throughput_mb_s
        assert rs.throughput_mb_s > 0.7 * hy.throughput_mb_s  # paper: ~6%


class TestReadShapes:
    def test_hybrid_read_close_to_3r(self):
        r3 = run(lambda s: P.read_replica_hedged(s, 8 * MB, 3))
        hy = run(lambda s: P.read_replica_hedged(s, 8 * MB, 1, stripe_k=6, stripe_n=9))
        assert hy.p(50) == pytest.approx(r3.p(50), rel=0.15)

    def test_load_increases_latency(self):
        low = run(lambda s: P.read_replica_hedged(s, 8 * MB, 3), t=12)
        high = run(lambda s: P.read_replica_hedged(s, 8 * MB, 3), t=40)
        assert high.p(90) > low.p(90)

    def test_degraded_cluster_hurts_rs_most(self):
        r3 = run(lambda s: P.read_replica_hedged(s, 8 * MB, 3), t=25)
        r3d = run(lambda s: P.read_replica_hedged(s, 8 * MB, 3), t=25, fail=0.1)
        rs = run(lambda s: P.read_striped(s, 8 * MB, 6, 9), t=25)
        rsd = run(
            lambda s: P.read_striped(s, 8 * MB, 6, 9, unavailable_fraction=0.1),
            t=25, fail=0.1)
        r3_hit = r3d.p(90) / r3.p(90)
        rs_hit = rsd.p(90) / rs.p(90)
        assert rs_hit > r3_hit  # RS suffers more in degraded mode

    def test_striped_scan_beats_replica_scan(self):
        rep = run(lambda s: P.read_large_scan(s, 48 * MB, 6, 9, False), ops=20, size=48 * MB)
        stp = run(lambda s: P.read_large_scan(s, 48 * MB, 6, 9, True), ops=20, size=48 * MB)
        assert stp.throughput_mb_s > 1.2 * rep.throughput_mb_s  # paper: +46-71%


class TestTranscodeShapes:
    def test_cc_merge_read_faster_than_rs(self):
        rs = run(lambda s: P.transcode_read_rs(s, 96 * MB, 12, 6), t=20, ops=5, size=96 * MB)
        cc = run(lambda s: P.transcode_read_cc(s, 96 * MB, 12, 6), t=20, ops=5, size=96 * MB)
        assert cc.p(50) < 0.75 * rs.p(50)  # paper: ~40% lower

    def test_cc_compute_half_of_rs(self):
        rs = run(lambda s: P.transcode_compute(s, 96 * MB, 12, 12, 3), t=20, ops=5, size=96 * MB)
        cc = run(lambda s: P.transcode_compute(s, 96 * MB, 12, 6, 3), t=20, ops=5, size=96 * MB)
        assert cc.p(50) == pytest.approx(0.5 * rs.p(50), rel=0.2)

    def test_vector_cc_compute_slower(self):
        rs = run(lambda s: P.transcode_compute(s, 96 * MB, 12, 12, 2), t=20, ops=5, size=96 * MB)
        cc = run(lambda s: P.transcode_compute(s, 96 * MB, 12, 14, 2, 1.8), t=20, ops=5, size=96 * MB)
        assert cc.p(50) > rs.p(50)  # paper: separating piggybacks costs


class TestHybridParityPersist:
    def test_95_percent_under_500ms(self):
        log = []
        sim = SimCluster(seed=42)
        wl = ClosedLoopWorkload(
            sim,
            lambda s: P.write_hybrid(s, 8 * MB, 6, 9, 1, parity_persist_log=log),
            n_threads=12, ops_per_thread=60, op_bytes=8 * MB)
        wl.run()
        assert log, "no parity persists logged"
        under = sum(1 for x in log if x < 0.5) / len(log)
        assert under >= 0.90  # paper: 95% within 500 ms


class TestWorkloadMachinery:
    def test_percentile_basics(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_cdf_is_monotone(self):
        res = run(lambda s: P.write_replicated(s, 8 * MB, 3), ops=20)
        xs, ys = res.cdf(points=50)
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        a = run(lambda s: P.write_replicated(s, 8 * MB, 3), seed=7, ops=20)
        b = run(lambda s: P.write_replicated(s, 8 * MB, 3), seed=7, ops=20)
        assert a.latencies == b.latencies
