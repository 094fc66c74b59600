"""One cluster model: each fact about a server has one owner.

Source scans that pin the structure — a second liveness flag, victim
sampler, slowdown table or inline reachability test is how the DFS, the
latency simulator and the burst simulator drifted apart before — plus
the check that moving Fig 14d's failures onto the shared injector did
not move its victims.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.cluster.failure import FailureInjector
from repro.sim.cluster import SimCluster

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SOURCES = {path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")}


def files_matching(pattern: str, under: str = "") -> list:
    regex = re.compile(pattern)
    return sorted(
        name for name, text in SOURCES.items()
        if name.startswith(under) and regex.search(text)
    )


def test_one_class_stores_liveness():
    owners = set()
    for name, text in SOURCES.items():
        for klass in ast.walk(ast.parse(text)):
            if not isinstance(klass, ast.ClassDef):
                continue
            for node in ast.walk(klass):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(getattr(t, "attr", getattr(t, "id", None)) == "is_alive" for t in targets):
                    owners.add(f"{name}:{klass.name}")
    assert owners == {"cluster/topology.py:Node"}


def test_one_victim_sampler():
    assert files_matching(r"def fail_fraction\(") == ["cluster/failure.py"]
    assert SOURCES["cluster/failure.py"].count("def fail_fraction(") == 1


def test_mask_consulted_only_through_the_seam():
    assert files_matching(r"\.reachable\(") == ["dfs/filesystem.py"]
    assert not files_matching(r"getattr\(\s*(self\.)?fs,\s*\"partition\"")


@pytest.mark.parametrize("package", ["dfs/", "sched/"])
def test_no_inline_readable_test(package):
    # "up and holds the chunk" is spelled once, in MorphFS.chunk_readable.
    assert not files_matching(r"is_alive\s+and\s+\w+(\.\w+)*\.has_chunk", under=package)
    assert not files_matching(r"not\s+\w+\.is_alive\s+or\s+not\s+\w+\.has_chunk", under=package)


def test_duplicates_stay_deleted():
    assert "cluster/latency.py" not in SOURCES
    assert not files_matching(r"SimNode")
    assert not files_matching(r"net_multiplier")
    assert not files_matching(r"node_disk_multipliers", under="sched/")
    assert '"sim0' not in SOURCES["cluster/scenarios.py"]


def test_slowdown_read_from_the_node():
    for name in ("dfs/client.py", "sim/cluster.py", "sched/simulate.py"):
        assert re.search(r"\.disk_multiplier\b(?!\()", SOURCES[name]), name


# Victims (in draw order) and the simulation rng's next draw after
# ``SimCluster(seed=s).fail_fraction(0.10)`` at the commit that deleted it.
FIG14D_VICTIMS = {
    0: (["dn018", "dn014"], 0.04097352393619469),
    1: (["dn010", "dn011"], 0.14415961271963373),
    2: (["dn006", "dn018"], 0.8142257405942803),
    3: (["dn001", "dn017"], 0.8012744652063969),
    4: (["dn015", "dn021"], 0.9762437057077041),
}


@pytest.mark.parametrize("seed", sorted(FIG14D_VICTIMS))
def test_injector_on_sim_rng_reproduces_fig14d_victims(seed):
    sim = SimCluster(seed=seed)
    victims = FailureInjector(sim, seed=sim.rng).fail_fraction(0.10)
    expected, next_draw = FIG14D_VICTIMS[seed]
    assert victims == expected
    assert [n.node_id for n in sim.nodes if not n.is_alive] == sorted(expected)
    assert sim.rng.random() == next_draw
