#!/usr/bin/env python3
"""Compare two ``morph-e2e`` result files (``run.py --json``).

    python benchmarks/e2e/compare.py A.json B.json

For each (metric, workload) prints both medians with quartiles, the
relative change, the bound and a verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``regression``  B is worse than A by more than the bound;
* ``unresolved``  the spread is wider than the bound, so the runs cannot
                  tell — unless every run of B reads better than every
                  run of A, which is ``ok``;
* ``info``        per-layer metrics carry no bound.

A file made with ``--repeat N`` holds N result sets; medians and
quartiles are then taken across the sets (the run-to-run spread). With
a single set per file the spread is estimated from the set's own rounds
as ``(q3 - q1) / sqrt(n)``. Count metrics must be bit-equal whenever the
two files share a seed. Exits 1 on a regression or a count mismatch.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import List, Optional, Tuple

from derive import END_TO_END, EXACT


def _side(runs: List[dict], workload: str, section: str, name: str) -> Optional[Tuple]:
    """(median, q1, q3, relative spread, per-run values) of one file."""
    cells = [run[workload].get(section, {}).get(name) for run in runs if workload in run]
    cells = [c for c in cells if c is not None]
    if not cells:
        return None
    values = [c["value"] for c in cells]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        median, q1, q3 = values[0], cells[0]["q1"], cells[0]["q3"]
        iqr = (q3 - q1) / math.sqrt(cells[0]["n"])
    return median, q1, q3, (iqr / abs(median) if median else 0.0), values


def compare(a: dict, b: dict) -> int:
    same_seed = a["seed"] == b["seed"] and a.get("quick") == b.get("quick")
    bad = 0
    print(f"{'workload':20s} {'metric':36s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    workloads = [w for w in a["runs"][0] if w in b["runs"][0]]
    for workload in workloads:
        for section in ("e2e", "per_layer"):
            for name in a["runs"][0][workload].get(section, {}):
                sa = _side(a["runs"], workload, section, name)
                sb = _side(b["runs"], workload, section, name)
                if sa is None or sb is None:
                    continue
                change = (sb[0] - sa[0]) / abs(sa[0]) if sa[0] else 0.0
                if name in EXACT and same_seed and sa[4][0] != sb[4][0]:
                    verdict = "COUNT MISMATCH"
                    bound_text = "exact"
                    bad += 1
                elif name in END_TO_END:
                    _unit, better, bound = END_TO_END[name]
                    worse = -change if better == "higher" else change
                    if better == "higher":
                        b_wins_all = min(sb[4]) > max(sa[4])
                    else:
                        b_wins_all = max(sb[4]) < min(sa[4])
                    if max(sa[3], sb[3]) > bound and not b_wins_all:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "regression"
                        bad += 1
                    else:
                        verdict = "ok"
                    bound_text = f"{bound:.1%}"
                else:
                    verdict, bound_text = "info", "-"
                print(f"{workload:20s} {name:36s} "
                      f"{sa[0]:12.5g} [{sa[1]:9.4g},{sa[2]:9.4g}] "
                      f"{sb[0]:12.5g} [{sb[1]:9.4g},{sb[2]:9.4g}] "
                      f"{change:+8.1%} {bound_text:>6s}  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    return compare(*docs)


if __name__ == "__main__":
    sys.exit(main())
