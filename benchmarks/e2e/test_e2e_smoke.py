"""Smoke test of the ``morph-e2e`` benchmark (outside tier-1's testpaths).

    python -m pytest benchmarks/e2e -q

Drives ``run.py --quick`` (one tiny round per workload, no warm-up) as
the driver would — through the command line — and checks the contract
between the runner, ``BENCHMARK.json`` and ``compare.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args, check=True):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if check:
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two same-seed quick result sets of every workload, traced."""
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = run("--quick", "--trace", "1", "--repeat", "2", "--json", str(out))
    return json.loads(out.read_text()), json.loads(proc.stdout.splitlines()[-1])


def test_names_and_units_match_benchmark_json(traced):
    doc, last_line = traced
    first = doc["runs"][0]
    assert list(first) == WORKLOADS
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    for section, key in (("e2e", "end_to_end"), ("per_layer", "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in WORKLOADS:
            got = {name: m["unit"] for name, m in first[workload][section].items()}
            assert got == want, (workload, section)
    assert last_line["correct"] is True and last_line["failed"] == 0
    assert set(last_line["metrics"]) == set(WORKLOADS)


def test_driver_invocation_prints_exactly_the_contract_keys():
    proc = run("--workload", "failure_repair", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--quick")
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(set(m) == {"value", "unit"} and m["value"] != 0
               for m in line["metrics"].values())


def test_layer_shares_sum_to_one(traced):
    doc, _ = traced
    for workload, result in doc["runs"][0].items():
        shares = [m["value"] for name, m in result["per_layer"].items()
                  if name.endswith(".self_share")]
        assert len(shares) == 15
        assert sum(shares) == pytest.approx(1.0, abs=0.05), workload
        assert (HERE / "out" / f"trace-{workload}.json").exists()


def test_same_seed_counts_are_identical(traced, tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        from derive import EXACT
    finally:
        sys.path.remove(str(HERE))
    doc, _ = traced
    first, second = doc["runs"]
    for workload in WORKLOADS:
        for section in ("e2e", "per_layer"):
            for name in EXACT:
                if name in first[workload][section]:
                    assert (first[workload][section][name]["value"]
                            == second[workload][section][name]["value"]), (workload, name)
        assert first[workload]["input_digest"] == second[workload]["input_digest"]
    # compare.py agrees: a result file against itself has no regression
    path = tmp_path / "same.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(path), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "COUNT MISMATCH" not in proc.stdout and "regression" not in proc.stdout


def test_other_seed_gives_other_payloads(traced, tmp_path):
    doc, _ = traced
    out = tmp_path / "seed1.json"
    run("--quick", "--workload", "smallfile_lifetime", "--seed", "1", "--json", str(out))
    other = json.loads(out.read_text())["runs"][0]["smallfile_lifetime"]
    assert other["seed"] == 1 and other["failed"] == 0
    assert other["input_digest"] != doc["runs"][0]["smallfile_lifetime"]["input_digest"]


def test_corrupted_readback_fails_the_run():
    proc = run("--quick", "--workload", "smallfile_lifetime", "--inject", "readback",
               check=False)
    assert proc.returncode != 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] / line["attempted"] > 0
    assert "readback digest mismatch" in proc.stderr
