"""Experiment drivers: one function per paper figure/table.

Every function is deterministic (seeded) and returns a plain dict of
series/rows so benchmarks and examples can print or assert on them
without re-deriving anything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.failure import FailureInjector
from repro.codes.costmodel import (
    convertible_cost,
    native_rs_cost,
    rrw_cost,
    stripemerge_cost,
)
from repro.codes.convertible import plan_conversion
from repro.core.schemes import CodeKind, ECScheme, Replication, degraded_read_probability
from repro.sim import protocols as P
from repro.sim.cluster import SimCluster
from repro.sim.workload import ClosedLoopWorkload

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# Figs 1 & 12 — production-trace IO
# ---------------------------------------------------------------------------

def fig01_service_week(hours: int = 24 * 7) -> Dict:
    """Fig 1: one week of Service A under baseline vs Morph."""
    from repro.traces import compare_systems, service_a

    comp = compare_systems(service_a(), hours=hours)
    return {
        "hours": hours,
        "baseline_total": comp.baseline.total_io,
        "baseline_transcode": comp.baseline.transcode_total,
        "morph_total": comp.morph.total_io,
        "morph_transcode": comp.morph.transcode_total,
        "total_reduction": comp.total_reduction,
        "transcode_reduction": comp.transcode_reduction,
        "ingest_reduction": comp.ingest_reduction,
        "baseline_by_flow": comp.baseline.transcode_io,
        "morph_by_flow": comp.morph.transcode_io,
    }


def fig12_production(hours: int = 24 * 30) -> Dict:
    """Fig 12: month-long traces of Services A and B."""
    from repro.traces import compare_systems, service_a, service_b

    out = {}
    for svc in (service_a(), service_b()):
        comp = compare_systems(svc, hours=hours)
        out[svc.name] = {
            "total_reduction": comp.total_reduction,
            "transcode_reduction": comp.transcode_reduction,
            "ingest_reduction": comp.ingest_reduction,
            "baseline_mean_total": comp.baseline.mean_total(),
            "morph_mean_total": comp.morph.mean_total(),
            "baseline_transcode_share": comp.baseline.mean_transcode()
            / comp.baseline.mean_total(),
        }
    return out


# ---------------------------------------------------------------------------
# Fig 3 / Fig 13 / Fig 14 — latency & throughput
# ---------------------------------------------------------------------------

def _run_workload(op_factory, n_threads: int, ops: int, op_bytes: float, seed: int = 42,
                  fail_fraction: float = 0.0):
    sim = SimCluster(seed=seed)
    if fail_fraction:
        FailureInjector(sim, seed=sim.rng).fail_fraction(fail_fraction)
    workload = ClosedLoopWorkload(
        sim, op_factory, n_threads=n_threads, ops_per_thread=ops, op_bytes=op_bytes
    )
    return workload.run()


def fig03_write_baseline(n_threads: int = 12, ops: int = 80, seed: int = 42) -> Dict:
    """Fig 3: 8 MB create latency + throughput, 3-r vs RS(6,9)."""
    size = 8 * MB
    r3 = _run_workload(lambda s: P.write_replicated(s, size, 3), n_threads, ops, size, seed)
    rs = _run_workload(lambda s: P.write_rs(s, size, 6, 9), n_threads, ops, size, seed)
    return {
        "3r": {"p50_ms": r3.p(50) * 1e3, "p90_ms": r3.p(90) * 1e3,
               "cdf": r3.cdf(), "throughput_mb_s": r3.throughput_mb_s},
        "RS(6,9)": {"p50_ms": rs.p(50) * 1e3, "p90_ms": rs.p(90) * 1e3,
                    "cdf": rs.cdf(), "throughput_mb_s": rs.throughput_mb_s},
    }


def fig13_write_latency(n_threads: int = 12, ops: int = 80, seed: int = 42) -> Dict:
    """Fig 13a: 8 MB write latency for 3-r, Hy(2), Hy(1), RS(6,9)."""
    size = 8 * MB
    runs = {
        "3-r": _run_workload(lambda s: P.write_replicated(s, size, 3), n_threads, ops, size, seed),
        "Hy(2,CC(6,9))": _run_workload(lambda s: P.write_hybrid(s, size, 6, 9, 2), n_threads, ops, size, seed),
        "Hy(1,CC(6,9))": _run_workload(lambda s: P.write_hybrid(s, size, 6, 9, 1), n_threads, ops, size, seed),
        "RS(6,9)": _run_workload(lambda s: P.write_rs(s, size, 6, 9), n_threads, ops, size, seed),
    }
    return {
        name: {"p50_ms": r.p(50) * 1e3, "p90_ms": r.p(90) * 1e3, "cdf": r.cdf()}
        for name, r in runs.items()
    }


def fig13_write_tput(threads: Sequence[int] = (12, 25), ops: int = 30, seed: int = 42) -> Dict:
    """Fig 13b: 120 MB streaming-write throughput across ingest options."""
    size = 120 * MB
    out: Dict = {}
    for t in threads:
        out[t] = {
            "3-r": _run_workload(lambda s: P.write_replicated(s, size, 3), t, ops, size, seed).throughput_mb_s,
            "Hy(2,CC(6,9))": _run_workload(lambda s: P.write_hybrid(s, size, 6, 9, 2), t, ops, size, seed).throughput_mb_s,
            "Hy(1,CC(6,9))": _run_workload(lambda s: P.write_hybrid(s, size, 6, 9, 1), t, ops, size, seed).throughput_mb_s,
            "RS(6,9)": _run_workload(lambda s: P.write_rs_streaming(s, size, 6, 9), t, ops, size, seed).throughput_mb_s,
        }
    return out


def fig13_parity_persist(n_threads: int = 12, ops: int = 80, seed: int = 42) -> Dict:
    """Fig 13c: time from client ack to async parity persistence."""
    size = 8 * MB
    log: List[float] = []
    sim = SimCluster(seed=seed)
    workload = ClosedLoopWorkload(
        sim,
        lambda s: P.write_hybrid(s, size, 6, 9, 1, parity_persist_log=log),
        n_threads=n_threads,
        ops_per_thread=ops,
        op_bytes=size,
    )
    workload.run()
    arr = np.asarray(log)
    return {
        "samples": arr,
        "p50_ms": float(np.percentile(arr, 50)) * 1e3,
        "p95_ms": float(np.percentile(arr, 95)) * 1e3,
        "fraction_under_500ms": float(np.mean(arr < 0.5)),
    }


def fig14_read_latency(loads: Sequence[int] = (12, 25, 40), ops: int = 80, seed: int = 42) -> Dict:
    """Fig 14a-c: 8 MB read latency across cluster loads."""
    size = 8 * MB
    out: Dict = {}
    for t in loads:
        out[t] = {}
        runs = {
            "3-r": _run_workload(lambda s: P.read_replica_hedged(s, size, 3), t, ops, size, seed),
            "Hy(2,CC(6,9))": _run_workload(
                lambda s: P.read_replica_hedged(s, size, 2, stripe_k=6, stripe_n=9), t, ops, size, seed),
            "Hy(1,CC(6,9))": _run_workload(
                lambda s: P.read_replica_hedged(s, size, 1, stripe_k=6, stripe_n=9), t, ops, size, seed),
            "RS(6,9)": _run_workload(lambda s: P.read_striped(s, size, 6, 9), t, ops, size, seed),
        }
        for name, r in runs.items():
            out[t][name] = {"p50_ms": r.p(50) * 1e3, "p90_ms": r.p(90) * 1e3, "cdf": r.cdf()}
    return out


def fig14_degraded(n_threads: int = 25, ops: int = 80, seed: int = 42,
                   down_fraction: float = 0.10) -> Dict:
    """Fig 14d: read latency with 10% of the cluster down."""
    size = 8 * MB
    runs = {
        "3-r": _run_workload(lambda s: P.read_replica_hedged(s, size, 3),
                             n_threads, ops, size, seed, fail_fraction=down_fraction),
        "Hy(2,CC(6,9))": _run_workload(
            lambda s: P.read_replica_hedged(s, size, 2, stripe_k=6, stripe_n=9),
            n_threads, ops, size, seed, fail_fraction=down_fraction),
        "Hy(1,CC(6,9))": _run_workload(
            lambda s: P.read_replica_hedged(s, size, 1, stripe_k=6, stripe_n=9),
            n_threads, ops, size, seed, fail_fraction=down_fraction),
        "RS(6,9)": _run_workload(
            lambda s: P.read_striped(s, size, 6, 9, unavailable_fraction=down_fraction),
            n_threads, ops, size, seed, fail_fraction=down_fraction),
    }
    return {
        name: {"p50_ms": r.p(50) * 1e3, "p90_ms": r.p(90) * 1e3}
        for name, r in runs.items()
    }


def fig14_read_tput(threads: Sequence[int] = (12, 25), ops: int = 30, seed: int = 42) -> Dict:
    """Fig 14e: 48 MB stripe-spanning scans, replica vs striped."""
    size = 48 * MB
    out: Dict = {}
    for t in threads:
        replica = _run_workload(
            lambda s: P.read_large_scan(s, size, 6, 9, from_stripe=False), t, ops, size, seed)
        striped = _run_workload(
            lambda s: P.read_large_scan(s, size, 6, 9, from_stripe=True), t, ops, size, seed)
        out[t] = {
            "replica_mb_s": replica.throughput_mb_s,
            "striped_mb_s": striped.throughput_mb_s,
            "improvement": striped.throughput_mb_s / replica.throughput_mb_s - 1.0,
        }
    return out


# ---------------------------------------------------------------------------
# Fig 15 — transcode read / compute latency
# ---------------------------------------------------------------------------

#: Fig 15's conversions: ``(label, initial scheme, stripes, final scheme,
#: CC compute width, CC vector overhead)``. What each reads, its parities
#: and the RS side's widths come from its plan, and so does the
#: bandwidth-optimal merge's compute width (``None``): ``plan.width``, 14.
#: The two merges keep a typed width of 6, the paper's dense encode:
#: their ``plan.width``, 2, counts the chunks one parity node combines
#: per step — the DFS ledger's price of this repo's parity-local merge.
FIG15_SCENARIOS = [
    ("EC(6,9)->EC(12,15)", ECScheme(CodeKind.CC, 6, 9), 2,
     ECScheme(CodeKind.CC, 12, 15), 6, 1.0),
    ("EC(6,7)->EC(12,14)", ECScheme(CodeKind.CC, 6, 7, anticipate_parities=2), 2,
     ECScheme(CodeKind.CC, 12, 14), None, 1.8),
    ("EC(6,9)->LRC(12,2,2)", ECScheme(CodeKind.CC, 6, 9), 2,
     ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2), 6, 1.0),
]


def fig15_transcode(n_files: int = 20, file_mb: int = 96, seed: int = 42) -> Dict:
    """Fig 15: per-file transcode read and compute latency, CC vs RS."""
    size = file_mb * MB
    out: Dict = {}
    for label, initial, n_stripes, final, cc_width, cc_vector_overhead in FIG15_SCENARIOS:
        plan = plan_conversion(initial, n_stripes, final)
        k_final = plan.final.k
        results = {}
        for codec in ("rs", "cc"):
            read_sim = SimCluster(seed=seed)
            if codec == "rs":
                def op(s):
                    return P.transcode_read_rs(s, size, k_final, plan.initial.k)
            else:
                def op(s):
                    return P.transcode_read_cc(
                        s, size, k_final, len(plan.parity_reads),
                        plan.data_read_fraction, len(plan.data_reads),
                    )
            wl = ClosedLoopWorkload(read_sim, op, n_threads=n_files, ops_per_thread=5, op_bytes=size)
            read_res = wl.run()
            comp_sim = SimCluster(seed=seed + 1)
            width = k_final if codec == "rs" else cc_width or plan.width
            overhead = 1.0 if codec == "rs" else cc_vector_overhead
            wl2 = ClosedLoopWorkload(
                comp_sim,
                lambda s: P.transcode_compute(s, size, k_final, width, plan.final.r, overhead),
                n_threads=n_files, ops_per_thread=5, op_bytes=size)
            comp_res = wl2.run()
            results[codec] = {
                "read_p50_ms": read_res.p(50) * 1e3,
                "compute_p50_ms": comp_res.p(50) * 1e3,
            }
        out[label] = results
    return out


# ---------------------------------------------------------------------------
# Figs 17 & 18 — conversion cost sweeps
# ---------------------------------------------------------------------------

FIG17_CASES = [
    ("8-of-12 -> 16-of-19", 8, 4, 16, 3),
    ("8-of-12 -> 16-of-20", 8, 4, 16, 4),
    ("8-of-12 -> 24-of-27", 8, 4, 24, 3),
    ("8-of-12 -> 32-of-36", 8, 4, 32, 4),
    ("8-of-12 -> 32-of-37", 8, 4, 32, 5),
    ("32-of-36 -> 16-of-19", 32, 4, 16, 3),
    ("32-of-36 -> 16-of-20", 32, 4, 16, 4),
    ("32-of-36 -> 8-of-12", 32, 4, 8, 4),
    ("16-of-19 -> 8-of-12", 16, 3, 8, 4),
]


def fig17_regimes(file_mb: int = 1024) -> Dict:
    """Fig 17: disk IO to transcode a 1 GB file, RRW vs RS vs CC."""
    rows = []
    for label, k_i, r_i, k_f, r_f in FIG17_CASES:
        rrw = rrw_cost(ECScheme(CodeKind.CC, k_f, k_f + r_f)).disk_io * file_mb
        rs = native_rs_cost(k_i, r_i, k_f, r_f).disk_io * file_mb
        cc = convertible_cost(k_i, r_i, k_f, r_f).disk_io * file_mb
        rows.append({"case": label, "rrw_mb": rrw, "rs_mb": rs, "cc_mb": cc,
                     "cc_vs_rs": 1.0 - cc / rs})
    return {"file_mb": file_mb, "rows": rows}


def fig18_general_sweep(k_initial: int = 6, r_initial: int = 3,
                        k_range: Optional[Sequence[int]] = None) -> Dict:
    """Fig 18: 6-of-9 -> k-of-n sweep, CC vs StripeMerge, normalised to RS."""
    ks = list(k_range or range(7, 31))
    out = {"same_r": [], "plus_one": []}
    from repro.codes.stripemerge import StripeMergeModel

    sm_model = StripeMergeModel()
    for k_f in ks:
        rs_same = native_rs_cost(k_initial, r_initial, k_f, r_initial).disk_io
        cc_same = convertible_cost(k_initial, r_initial, k_f, r_initial).disk_io
        if sm_model.supports(k_initial, r_initial, k_f, r_initial):
            sm_norm = stripemerge_cost(k_initial, r_initial, k_f, r_initial).disk_io / rs_same
        else:
            sm_norm = 1.0  # StripeMerge degrades to the RS baseline
        out["same_r"].append({
            "k": k_f,
            "cc_norm": cc_same / rs_same,
            "stripemerge_norm": sm_norm,
        })
        rs_plus = native_rs_cost(k_initial, r_initial, k_f, r_initial + 1).disk_io
        cc_plus = convertible_cost(k_initial, r_initial, k_f, r_initial + 1).disk_io
        out["plus_one"].append({"k": k_f, "cc_norm": cc_plus / rs_plus, "stripemerge_norm": 1.0})
    same = [row["cc_norm"] for row in out["same_r"]]
    plus = [row["cc_norm"] for row in out["plus_one"]]
    out["same_r_mean_saving"] = 1.0 - float(np.mean(same))
    out["same_r_worst_saving"] = 1.0 - float(np.max(same))
    out["plus_one_mean_saving"] = 1.0 - float(np.mean(plus))
    out["plus_one_worst_saving"] = 1.0 - float(np.max(plus))
    return out


# ---------------------------------------------------------------------------
# Appendix B — degraded-read probability
# ---------------------------------------------------------------------------

def appendix_b(f: float = 0.01, k: int = 6, n: int = 9, copies: int = 1,
               trials: int = 400_000, seed: int = 42) -> Dict:
    """Closed form vs Monte-Carlo estimate of P(degraded stripe read)."""
    analytic = degraded_read_probability(f, k, n, copies)
    rng = np.random.default_rng(seed)
    # A read is degraded iff every replica of the range is unavailable AND
    # the covering data chunk is unavailable AND the rest of the stripe is
    # healthy enough to decode (the dominant term assumes it is intact).
    replica_down = rng.random((trials, copies)) < f
    chunk_down = rng.random(trials) < f
    others_down = rng.random((trials, n - 2)) < f
    degraded = replica_down.all(axis=1) & chunk_down & (~others_down).all(axis=1)
    return {
        "analytic": analytic,
        "monte_carlo": float(degraded.mean()),
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# Fig 4 & Fig 5 — motivation data
# ---------------------------------------------------------------------------

def fig04_transitions(hours: int = 24 * 7) -> Dict:
    """Fig 4: millions of file transitions per hour in four clusters."""
    from repro.traces.generator import four_cluster_rates

    series = four_cluster_rates(hours=hours)
    return {
        "hours": hours,
        "clusters": series,
        "peak_millions": [float(s.max()) for s in series],
        "mean_millions": [float(s.mean()) for s in series],
    }


def fig05_hdd_trend() -> Dict:
    """Fig 5: HDD bandwidth-per-capacity decline and HAMR projection."""
    from repro.traces.hdd import HddTrendModel

    model = HddTrendModel()
    years, measured = model.measured_series()
    spec_years, speculated = model.speculated_series()
    return {
        "years": years,
        "measured_mb_s_per_tb": measured,
        "speculated_years": spec_years,
        "speculated_mb_s_per_tb": speculated,
        "annual_decay": model.ratio_decay,
        "fitted_decay": model.fitted_decay_from_anchors(),
    }


# ---------------------------------------------------------------------------
# Fig 11 — micro / macro cluster benchmarks (functional DFS)
# ---------------------------------------------------------------------------

def fig11_micro(file_mb: int = 8, chunk_kb: int = 16, seed: int = 5) -> Dict:
    """Fig 11a/b: one file through its lifetime on both systems.

    The paper's 8 GB file is scaled to ``file_mb`` (IO *ratios* are scale
    free); phases are ingest -> EC(6,9) -> EC(12,15), the stages of
    :func:`~repro.core.lifecycle.baseline_microbench_policy` and
    :func:`~repro.core.lifecycle.morph_microbench_policy`.
    """
    from repro.core.lifecycle import baseline_microbench_policy, morph_microbench_policy
    from repro.dfs import BaselineDFS, MorphFS
    from repro.obs import Observability

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, file_mb * MB, dtype=np.uint8)

    def snapshot(fs):
        # Reported numbers come from the metrics registry — the same
        # series the Prometheus/JSON exporters publish — not from ad-hoc
        # ledger reads, so telemetry and benchmark output cannot diverge.
        registry = fs.obs.registry
        return {
            "disk_read": registry.value("dfs_disk_read_bytes"),
            "disk_write": registry.value("dfs_disk_write_bytes"),
            "network": registry.value("dfs_net_bytes"),
            "capacity": registry.value("dfs_capacity_bytes"),
        }

    def lifetime(fs, policy) -> Dict:
        fs.write_file("f", data, policy.stages[0].scheme)
        phases = {"ingest": snapshot(fs)}
        for stage in policy.stages[1:]:
            fs.transcode("f", stage.scheme)
            phases[f"to_ec_{stage.scheme.k}_{stage.scheme.n}"] = snapshot(fs)
        return phases

    results: Dict = {"file_bytes": float(len(data))}
    baseline = BaselineDFS(chunk_size=chunk_kb * 1024, obs=Observability())
    phases_b = results["baseline"] = lifetime(baseline, baseline_microbench_policy())
    policy = morph_microbench_policy()
    morph = MorphFS(
        chunk_size=chunk_kb * 1024, future_widths=policy.ec_widths(), obs=Observability()
    )
    phases_m = results["morph"] = lifetime(morph, policy)

    b, m = phases_b["to_ec_12_15"], phases_m["to_ec_12_15"]
    b_disk = b["disk_read"] + b["disk_write"]
    m_disk = m["disk_read"] + m["disk_write"]
    results["disk_reduction"] = 1.0 - m_disk / b_disk
    results["network_reduction"] = 1.0 - m["network"] / b["network"]
    results["ingest_capacity_reduction"] = 1.0 - (
        phases_m["ingest"]["capacity"] / phases_b["ingest"]["capacity"]
    )
    results["baseline_amplification"] = (b_disk + b["network"]) / len(data)
    results["morph_amplification"] = (m_disk + m["network"]) / len(data)
    # Verify integrity after the full lifetime.
    assert np.array_equal(baseline.read_file("f"), data)
    assert np.array_equal(morph.read_file("f"), data)
    return results


def fig11_macro(
    n_files: int = 24,
    file_kb: int = 160,
    chunk_kb: int = 4,
    seed: int = 6,
    disk_mb_s: float = 120.0,
    transcode_fraction: float = 0.20,
) -> Dict:
    """Fig 11c-f: steady-state ingest+transcode on both systems.

    The paper drives ~1100 MB/s of ingest with ~300 MB/s of transcode
    traffic — within the measurement window only a fraction of ingested
    data reaches each lifetime step. Here every file is ingested and the
    first ``transcode_fraction`` of files advance through each step of
    the chain EC(5,8) -> EC(10,13) -> EC(20,23) (CC + native transcode on
    Morph, the stages of :func:`~repro.core.lifecycle.morph_macrobench_policy`;
    RS + client RRW on baseline). Both systems execute the exact same
    logical work.
    """
    from repro.core.lifecycle import morph_macrobench_policy
    from repro.dfs import BaselineDFS, MorphFS
    from repro.obs import Observability

    rng = np.random.default_rng(seed)
    datasets = [
        rng.integers(0, 256, file_kb * 1024, dtype=np.uint8) for _ in range(n_files)
    ]
    policy = morph_macrobench_policy()
    n_advance = max(1, int(round(transcode_fraction * n_files)))

    def run(system: str) -> Dict:
        if system == "baseline":
            fs = BaselineDFS(chunk_size=chunk_kb * 1024, obs=Observability())
            ingest = Replication(3)
            # The RS chain has no lifetime policy of its own.
            chain = [ECScheme(CodeKind.RS, k, k + 3) for k in (5, 10, 20)]
        else:
            fs = MorphFS(
                chunk_size=chunk_kb * 1024,
                future_widths=policy.ec_widths(),
                obs=Observability(),
            )
            ingest = policy.stages[0].scheme
            chain = [stage.scheme for stage in policy.stages[1:]]
        capacity_series = []
        for i, data in enumerate(datasets):
            fs.write_file(f"f{i:03d}", data, ingest)
            capacity_series.append(fs.capacity_used())
        for step, scheme in enumerate(chain):
            # Files deep enough into their lifetime advance one step.
            for i in range(min(n_advance * (len(chain) - step), n_files)):
                fs.transcode(f"f{i:03d}", scheme)
            capacity_series.append(fs.capacity_used())
        registry = fs.obs.registry
        total_disk = registry.value("dfs_disk_read_bytes") + registry.value(
            "dfs_disk_write_bytes"
        )
        n_disks = len(fs.cluster.nodes)
        per_node = fs.metrics.nodes
        datanode_cpu = sum(m.cpu_seconds for nid, m in per_node.items() if nid != "client")
        client_cpu = per_node["client"].cpu_seconds if "client" in per_node else 0.0
        peak_mem = max((m.memory_peak_bytes for m in per_node.values()), default=0.0)
        for i, data in enumerate(datasets):
            assert np.array_equal(fs.read_file(f"f{i:03d}"), data)
        logical = float(sum(len(d) for d in datasets))
        capacity_final = registry.value("dfs_capacity_bytes")
        return {
            "disk_total": total_disk,
            "network_total": registry.value("dfs_net_bytes"),
            "capacity_final": capacity_final,
            "capacity_overhead": capacity_final / logical,
            "capacity_series": capacity_series,
            "client_cpu_s": client_cpu,
            "datanode_cpu_s": datanode_cpu,
            "peak_memory": peak_mem,
            "completion_s": total_disk / (disk_mb_s * MB * n_disks),
        }

    base = run("baseline")
    morph = run("morph")
    base_over = base["capacity_overhead"] - 1.0
    morph_over = morph["capacity_overhead"] - 1.0
    return {
        "baseline": base,
        "morph": morph,
        "disk_reduction": 1.0 - morph["disk_total"] / base["disk_total"],
        "capacity_reduction": 1.0 - morph["capacity_final"] / base["capacity_final"],
        "capacity_overhead_reduction": 1.0 - morph_over / base_over if base_over else 0.0,
        "speedup": base["completion_s"] / morph["completion_s"],
        "client_cpu_reduction": 1.0 - morph["client_cpu_s"] / base["client_cpu_s"]
        if base["client_cpu_s"] else 0.0,
    }
