"""Command-line entry point: regenerate any experiment from the shell.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig01                # one experiment
    python -m repro fig12 fig17 fig18    # several
    python -m repro all                  # everything (takes a while)
    python -m repro report               # cluster health report (obs demo)
    python -m repro report --selftest    # verify observability invariants
    python -m repro bench                # codec perf -> BENCH_codec.json
    python -m repro bench --quick --check --diff  # CI: schema, ratio gates, delta
    python -m repro profile              # cProfile the failure-burst sim
    python -m repro scenarios            # adversarial scenario suite
    python -m repro scenarios --quick --check  # CI scenario smoke
"""

from __future__ import annotations

import sys
from typing import Callable, Dict

import numpy as np


def _fig01() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import series_plot

    r = E.fig01_service_week()
    print("Fig 1 — Service A, one week (PB/h):")
    print(series_plot("baseline total", r["baseline_total"]))
    print(series_plot("morph total", r["morph_total"]))
    print(series_plot("baseline transcode", r["baseline_transcode"]))
    print(series_plot("morph transcode", r["morph_transcode"]))
    print(f"total -{r['total_reduction']:.0%}  transcode -{r['transcode_reduction']:.0%}"
          f"  ingest -{r['ingest_reduction']:.0%}  (paper: -42%, -96%, -20%)")


def _fig03() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import cdf_plot

    r = E.fig03_write_baseline()
    print("Fig 3 — 8 MB create latency CDF:")
    print(cdf_plot({name: v["cdf"] for name, v in r.items()}))
    for name, v in r.items():
        print(f"  {name}: p50 {v['p50_ms']:.0f} ms, p90 {v['p90_ms']:.0f} ms, "
              f"tput {v['throughput_mb_s']:.0f} MB/s")


def _fig04() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import series_plot

    r = E.fig04_transitions()
    print("Fig 4 — transitions per hour (millions), four clusters:")
    for i, series in enumerate(r["clusters"]):
        print(series_plot(f"cluster {i}", series))


def _fig05() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import bar_chart

    r = E.fig05_hdd_trend()
    print("Fig 5 — HDD MB/s per TB by model year:")
    rows = list(zip(map(str, r["years"].tolist()), r["measured_mb_s_per_tb"].tolist()))
    rows += [
        (f"{y} (HAMR)", v)
        for y, v in zip(r["speculated_years"].tolist(), r["speculated_mb_s_per_tb"].tolist())
    ]
    print(bar_chart(rows, unit=" MB/s/TB"))
    print(f"fitted decay: {r['fitted_decay']:.1%}/yr (paper: ~8.5%)")


def _fig11() -> None:
    from repro.bench import experiments as E

    micro = E.fig11_micro()
    print(f"Fig 11 micro — disk -{micro['disk_reduction']:.0%}, "
          f"network -{micro['network_reduction']:.0%}, amplification "
          f"{micro['baseline_amplification']:.1f}x -> {micro['morph_amplification']:.1f}x")
    macro = E.fig11_macro()
    print(f"Fig 11 macro — disk -{macro['disk_reduction']:.0%}, capacity overhead "
          f"-{macro['capacity_overhead_reduction']:.0%}, speedup {macro['speedup']:.2f}x")


def _fig12() -> None:
    from repro.bench import experiments as E

    r = E.fig12_production()
    print("Fig 12 — month-long services:")
    for name, v in r.items():
        print(f"  {name}: total -{v['total_reduction']:.0%}, "
              f"transcode -{v['transcode_reduction']:.0%}, "
              f"ingest -{v['ingest_reduction']:.0%}")


def _fig13() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import cdf_plot, histogram

    lat = E.fig13_write_latency()
    print("Fig 13a — 8 MB write latency CDF:")
    print(cdf_plot({name: v["cdf"] for name, v in lat.items()}))
    tput = E.fig13_write_tput()
    for t, by_scheme in tput.items():
        row = "  ".join(f"{k}={v:.0f}" for k, v in by_scheme.items())
        print(f"Fig 13b (t={t}): {row} MB/s")
    persist = E.fig13_parity_persist()
    print(f"Fig 13c — parity persist: {persist['fraction_under_500ms']:.0%} < 500 ms")
    print(histogram(np.asarray(persist["samples"]) * 1e3, bins=12))


def _fig14() -> None:
    from repro.bench import experiments as E

    lat = E.fig14_read_latency()
    for t, by_scheme in lat.items():
        row = "  ".join(f"{k}={v['p90_ms']:.0f}" for k, v in by_scheme.items())
        print(f"Fig 14 (t={t}) p90 ms: {row}")
    deg = E.fig14_degraded()
    row = "  ".join(f"{k}={v['p90_ms']:.0f}" for k, v in deg.items())
    print(f"Fig 14d (10% down) p90 ms: {row}")
    tput = E.fig14_read_tput()
    for t, v in tput.items():
        print(f"Fig 14e (t={t}): replica {v['replica_mb_s']:.0f} -> "
              f"striped {v['striped_mb_s']:.0f} MB/s ({v['improvement']:+.0%})")


def _fig15() -> None:
    from repro.bench import experiments as E

    r = E.fig15_transcode()
    print("Fig 15 — transcode latency (p50 ms):")
    for label, res in r.items():
        print(f"  {label}: read RS {res['rs']['read_p50_ms']:.0f} / CC "
              f"{res['cc']['read_p50_ms']:.0f}; compute RS "
              f"{res['rs']['compute_p50_ms']:.0f} / CC {res['cc']['compute_p50_ms']:.0f}")


def _fig17() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import bar_chart

    r = E.fig17_regimes()
    print("Fig 17 — disk IO to transcode 1 GB (MB):")
    for row in r["rows"]:
        print(f"  {row['case']}: RRW {row['rrw_mb']:.0f}, RS {row['rs_mb']:.0f}, "
              f"CC {row['cc_mb']:.0f} ({row['cc_vs_rs']:.0%} less than RS)")


def _fig18() -> None:
    from repro.bench import experiments as E
    from repro.bench.ascii_plots import sparkline

    r = E.fig18_general_sweep()
    same = [row["cc_norm"] for row in r["same_r"]]
    plus = [row["cc_norm"] for row in r["plus_one"]]
    print("Fig 18 — normalised IO, 6-of-9 -> k in 7..30:")
    print(f"  same r : |{sparkline(same, 48)}| mean saving {r['same_r_mean_saving']:.0%}")
    print(f"  +1 par : |{sparkline(plus, 48)}| mean saving {r['plus_one_mean_saving']:.0%}")


def _appendix_b() -> None:
    from repro.bench import experiments as E

    r = E.appendix_b()
    print(f"Appendix B — P(degraded read): analytic {r['analytic']:.2e}, "
          f"monte-carlo {r['monte_carlo']:.2e} (paper: ~9e-5)")


def _maintenance() -> None:
    from repro.sched.simulate import SimConfig, compare_budgets, format_report

    cfg = SimConfig()
    print(format_report(compare_budgets(cfg), cfg))


COMMANDS: Dict[str, Callable[[], None]] = {
    "maintenance": _maintenance,
    "fig01": _fig01,
    "fig03": _fig03,
    "fig04": _fig04,
    "fig05": _fig05,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig17": _fig17,
    "fig18": _fig18,
    "appendix_b": _appendix_b,
}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("experiments:", " ".join(COMMANDS), "report")
        return 0
    if args[0] == "report":
        # Subcommands that take their own flags.
        from repro.obs.report import main as report_main

        return report_main(args[1:])
    if args[0] == "bench":
        from repro.bench.micro import main as bench_main

        return bench_main(args[1:])
    if args[0] == "profile":
        from repro.bench.profile import main as profile_main

        return profile_main(args[1:])
    if args[0] == "scenarios":
        from repro.cluster.scenarios import main as scenarios_main

        return scenarios_main(args[1:])
    targets = list(COMMANDS) if args == ["all"] else args
    unknown = [t for t in targets if t not in COMMANDS]
    if unknown:
        print(f"unknown experiment(s): {' '.join(unknown)}", file=sys.stderr)
        print("available:", " ".join(COMMANDS), file=sys.stderr)
        return 2
    for i, target in enumerate(targets):
        if i:
            print()
        COMMANDS[target]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
