"""cProfile harness for the control-plane hot paths.

``python -m repro profile`` runs the failure-burst maintenance
simulation (the workload that drives the event engine, the scheduler and
the resource layer together) under :mod:`cProfile` and prints the top-N
functions by cumulative time.  This is the loop the control-plane fast
path was tuned against; when a regression lands, the table points at the
layer that regressed before anyone has to bisect.

The metadata half of the control plane is timed per layer by
``benchmarks/e2e/run.py --trace`` (``dfs.namenode``, ``dfs.shards``,
``dfs.journal``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
from typing import List, Optional


def profile_failure_burst(scale: float = 1.0) -> cProfile.Profile:
    """Profile one unthrottled + one throttled burst run."""
    from repro.sched.simulate import SimConfig, compare_budgets

    cfg = SimConfig(
        n_repairs=int(96 * scale),
        duration_s=30.0 * max(1.0, scale),
        read_interarrival_s=0.04 / max(1.0, scale),
    )
    prof = cProfile.Profile()
    prof.enable()
    compare_budgets(cfg)
    prof.disable()
    return prof


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile", description=__doc__
    )
    parser.add_argument(
        "--top", type=int, default=25, help="rows to print (default 25)"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="burst load multiplier (repairs and read rate)",
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
    )
    args = parser.parse_args(argv)

    stats = pstats.Stats(profile_failure_burst(scale=args.scale))
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
