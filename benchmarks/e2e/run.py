#!/usr/bin/env python3
"""``morph-e2e``: file-lifetime wall-clock benchmark with a per-layer breakdown.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace]
                                 [--quick] [--json OUT] [--repeat N]
                                 [--seconds S | --rounds R]

Each workload runs in fresh child interpreters, one after another, so
peak RSS, the GF kernel LRUs and ``CODEC_STATS`` are per workload. A
child imports the program, generates its inputs from ``--seed``, runs
one discarded warm-up round (its cost is part of ``setup_s``) and then measured rounds of fixed work: as many as fit in
its share of ``--seconds``, or a fixed ``--rounds`` count. Untraced
runs split the budget over three identical children (three set-up
samples); ``--trace`` runs one plain child (the untraced reference and
the journal/shard comparators), one traced child and one child with
``Observability`` on.

Prints every metric by name with its unit, then one JSON object on the
last line; exits non-zero on any correctness failure. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import derive
from workloads import DEFAULT_ROUNDS, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
FLUSH_POLICY = "journal: flush() per record, no fsync"
#: Children run with str hashing pinned (dict layout and peak RSS repeat)
#: and glibc malloc pinned: large arrays stay on the heap and freed heap
#: is never trimmed, so a round does not re-fault the pages the previous
#: one freed (in this VM that fault cost swings 5x).
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
}


# -- the child: one interpreter, one workload ---------------------------------

def child_main(args) -> int:
    import resource

    sys.path.insert(0, str(SRC))
    from repro.gf import kernels

    import harness
    from reference import NOMINAL_S, reference_seconds
    from trace import Tracer

    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.quick()
    inputs = generate(spec, args.seed)
    tmp_root = Path(args.tmp)
    tmp_root.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    common = dict(tracer=tracer, obs=args.mode == "obs")

    if not args.quick:
        # The warm-up is a full round on the measured inputs: it fills the
        # code constructions and the process-wide GF plan and table LRUs
        # with exactly what the measured rounds will look up.
        warm = harness.run_round(spec, inputs, tmp_root, **common)
        if warm["failed"]:
            print("\n".join(warm["errors"]), file=sys.stderr)
            return 1
        if tracer is not None:
            tracer.by_phase = {}
    gc.collect()
    setup_raw_s = time.time() - args.t0
    # like every time reported, at reference speed (see reference.py)
    setup_s = setup_raw_s * NOMINAL_S / reference_seconds()

    rounds = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.keep_spans = not rounds
        rd = harness.run_round(
            spec, inputs, tmp_root, comparators=args.mode == "plain+",
            inject=args.inject if not rounds else None, **common,
        )
        ops = rd.pop("ops")
        if tracer is not None:
            rd["trace"] = tracer.totals()
            tracer.by_phase = {}
            if tracer.keep_spans:
                OUT.mkdir(exist_ok=True)
                tracer.write_spans(OUT / f"trace-{spec.name}.json", ops)
                tracer.spans = []
        rounds.append(rd)
        gc.collect()  # cyclic GC stays on inside rounds; users pay it
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
        else:
            elapsed = time.perf_counter() - started
            typical = statistics.median(r["wall"] for r in rounds)
            if elapsed + typical > args.seconds:
                break

    doc = {
        "mode": args.mode,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": rounds,
        "input_digest": inputs.digest(),
        "cache_stats": kernels.cache_stats(),
        "layer_of": tracer.layer_of() if tracer is not None else None,
    }
    print(json.dumps(doc, separators=(",", ":")))
    return 0


# -- the parent: spawn children, summarise ------------------------------------

def spawn(workload: str, mode: str, args, tmp: Path, seconds, rounds) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(args.seed), "--mode", mode, "--tmp", str(tmp),
        "--t0", repr(time.time()),
    ]
    cmd += ["--rounds", str(rounds)] if rounds else ["--seconds", repr(seconds)]
    if args.quick:
        cmd.append("--quick")
    if args.inject:
        cmd += ["--inject", args.inject]
    # subprocess.run kills and reaps the child on timeout or interrupt.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          env={**os.environ, **CHILD_ENV})
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, args, tmp: Path) -> dict:
    """Run one workload's children and derive its metrics."""
    spec = WORKLOADS[workload]
    if args.trace:
        modes = ["plain+", "traced", "obs"]
    else:
        modes = ["plain"] * (1 if args.quick else 3)
    if args.quick:
        seconds, rounds = None, 1
    elif args.seconds is not None:
        seconds, rounds = args.seconds / len(modes), None
    else:
        seconds, rounds = None, -(-(args.rounds or DEFAULT_ROUNDS) // len(modes))
    children = [spawn(workload, m, args, tmp, seconds, rounds) for m in modes]
    for child in children:
        child["rounds"] = [derive.at_reference_speed(rd) for rd in child["rounds"]]

    all_rounds = [rd for child in children for rd in child["rounds"]]
    result = {
        "seed": args.seed,
        "input_digest": children[0]["input_digest"],
        "attempted": sum(rd["attempted"] for rd in all_rounds),
        "failed": sum(rd["failed"] for rd in all_rounds),
        "errors": [e for rd in all_rounds for e in rd["errors"]][:5],
        "rounds": [[child["mode"], len(child["rounds"])] for child in children],
        "policy": {
            "load": "closed loop, 1 client, 1 thread",
            "flush": FLUSH_POLICY,
            "compact_every": spec.compact_every,
            "gc": "cyclic GC on in timed ops, gc.collect() between rounds",
            "warmup": "none (--quick)" if args.quick else "one discarded round",
        },
    }
    plain = [c for c in children if c["mode"].startswith("plain")]
    result["e2e"] = derive.e2e_summary(plain)
    if args.trace:
        traced, obs = children[1], children[2]
        result["per_layer"] = derive.per_layer_summary(plain[0], traced, obs)
        result["phase_shares"] = derive.phase_shares(traced)
    return result


def report(workload: str, result: dict) -> None:
    rounds = " ".join(f"{mode}:{n}" for mode, n in result["rounds"])
    print(f"== {workload}  seed={result['seed']}  rounds={rounds}  "
          f"ops={result['attempted']}  failed={result['failed']}")
    print(f"   {result['policy']['flush']}, compact_every="
          f"{result['policy']['compact_every']}; {result['policy']['gc']}; "
          f"warm-up: {result['policy']['warmup']}")
    share = result["failed"] / max(result["attempted"], 1)
    print(f"   {'failed_op_share':38s} {share:14.6g} ratio")
    for section in ("e2e", "per_layer"):
        for name, m in result.get(section, {}).items():
            if m is None:
                print(f"   {name:38s} {'MISSING':>14s}")
                continue
            print(f"   {name:38s} {m['value']:14.6g} {m['unit']:6s} "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    for error in result["errors"]:
        print("   ERROR " + error.strip().replace("\n", "\n         "), file=sys.stderr)


def is_correct(result: dict, trace: bool) -> bool:
    sections = ["per_layer"] if trace else ["e2e"]
    complete = all(m is not None for s in sections for m in result[s].values())
    return result["failed"] == 0 and result["attempted"] > 0 and complete


def assert_counts_repeat(runs: list) -> None:
    """Counts must be bit-equal between same-seed result sets."""
    for workload, first in runs[0].items():
        for other in runs[1:]:
            for section in ("e2e", "per_layer"):
                for name in derive.EXACT:
                    a = first.get(section, {}).get(name)
                    b = other[workload].get(section, {}).get(name)
                    if a is not None and b is not None and a["value"] != b["value"]:
                        raise AssertionError(
                            f"{workload} {name}: count differs between same-seed "
                            f"runs ({a['value']!r} vs {b['value']!r})"
                        )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   help="per-layer run: plain + traced + Observability children")
    p.add_argument("--seconds", type=float,
                   help="measure for this long (rounds that fit); default: fixed rounds")
    p.add_argument("--rounds", type=int, help="fixed number of measured rounds")
    p.add_argument("--quick", action="store_true", help="one tiny round, no warm-up")
    p.add_argument("--repeat", type=int, default=1, help="result sets to produce")
    p.add_argument("--json", metavar="OUT", help="write the full result document")
    p.add_argument("--inject", choices=["readback"],
                   help="corrupt one readback before it is checked (self-test)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--mode", default="plain", help=argparse.SUPPRESS)
    p.add_argument("--tmp", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"morph-e2e: program source not found at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    # A terminated run still kills its child (subprocess.run does, on any
    # exception) and removes its temp dirs (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else list(WORKLOADS)
    tmp = OUT / f"tmp-{os.getpid()}"
    runs = []
    try:
        for _ in range(args.repeat):
            run = {}
            for name in names:
                run[name] = measure(name, args, tmp)
                report(name, run[name])
            runs.append(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert_counts_repeat(runs)

    if args.json:
        doc = {"schema": "morph-e2e/1", "seed": args.seed, "trace": bool(args.trace),
               "quick": args.quick, "runs": runs}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
    last = runs[-1]
    section = "per_layer" if args.trace else "e2e"
    correct = all(is_correct(r, bool(args.trace)) for run in runs for r in run.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in last.values()),
        "failed": sum(r["failed"] for r in last.values()),
    }
    slim = lambda ms: {  # noqa: E731
        k: {"value": m["value"], "unit": m["unit"]} for k, m in ms.items() if m is not None
    }
    if args.workload:
        line["metrics"] = slim(last[args.workload][section])
    else:
        line["metrics"] = {name: slim(r[section]) for name, r in last.items()}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
