"""Trace-driven replay: run a service's trace through the functional DFS.

Figs 1/12 cost traces analytically; this module *executes* a scaled-down
version of the same workload against :class:`MorphFS` / `BaselineDFS`,
closing the loop between the trace layer and the system layer: every
ingest writes real files, every scheduled transition runs the real
transcode machinery, deletions reclaim real capacity, and the resulting
hourly IO ledger can be compared against the analytical prediction.

Scaling: one simulated "hour" ingests a handful of small files (width-
reduced schemes so a 23-node cluster suffices); per-byte IO *multipliers*
are scale-free, so reductions measured here should echo the analytical
Fig 1 numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, RedundancyScheme, Replication
from repro.dfs import BaselineDFS, MorphFS

KB = 1024

# Width-reduced stand-ins for the production schemes (same overhead
# class, fits a 23-node cluster; see EXPERIMENTS.md substitutions).
NARROW_RS_S = ECScheme(CodeKind.RS, 6, 9)
NARROW_CC_S = ECScheme(CodeKind.CC, 6, 9)
MED_LRC_S = ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2)
MED_LRCC_S = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


@dataclass
class FileClass:
    """One file class: its lifetime chain and population weights."""

    name: str
    #: fraction of ingested files in this class
    ingest_fraction: float
    #: (age_hours, scheme) chain; the first entry is the ingest scheme
    chain: List[Tuple[int, RedundancyScheme]]
    #: probability a file of this class survives to each later stage
    survival: List[float]


def baseline_classes() -> List[FileClass]:
    """Service-A-like classes under the baseline system."""
    return [
        FileClass(
            name="rs-class",
            ingest_fraction=0.6,
            chain=[(0, Replication(3)), (2, NARROW_RS_S), (5, MED_LRC_S)],
            survival=[0.5, 0.4],
        ),
        FileClass(
            name="lrc-class",
            ingest_fraction=0.4,
            chain=[(0, Replication(3)), (3, MED_LRC_S)],
            survival=[0.5],
        ),
    ]


def morph_classes() -> List[FileClass]:
    """The same classes under Morph (hybrid ingest + CC/LRCC)."""
    return [
        FileClass(
            name="rs-class",
            ingest_fraction=0.6,
            chain=[(0, HybridScheme(1, NARROW_CC_S)), (2, NARROW_CC_S), (5, MED_LRCC_S)],
            survival=[0.5, 0.4],
        ),
        FileClass(
            name="lrc-class",
            ingest_fraction=0.4,
            chain=[(0, HybridScheme(1, MED_LRCC_S)), (3, MED_LRCC_S)],
            survival=[0.5],
        ),
    ]


@dataclass
class ReplayResult:
    """Hourly ledger of one replay run."""

    hours: int
    files_written: int = 0
    files_deleted: int = 0
    transitions: int = 0
    disk_io_series: List[float] = field(default_factory=list)
    capacity_series: List[float] = field(default_factory=list)
    total_disk_io: float = 0.0
    total_network_io: float = 0.0
    logical_bytes: float = 0.0


#: every replayed file's size, and the chunk size both systems use
FILE_KB = 48
CHUNK_KB = 4


@dataclass
class TraceReplayer:
    """Drives a class-structured workload hour by hour through a DFS."""

    system: str  # "baseline" | "morph"
    hours: int = 12
    files_per_hour: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.system not in ("baseline", "morph"):
            raise ValueError("system must be 'baseline' or 'morph'")

    def run(self) -> ReplayResult:
        rng = np.random.default_rng(self.seed)
        if self.system == "baseline":
            fs = BaselineDFS(chunk_size=CHUNK_KB * KB, seed=self.seed)
            classes = baseline_classes()
        else:
            fs = MorphFS(
                chunk_size=CHUNK_KB * KB,
                future_widths=[6, 12],
                seed=self.seed,
            )
            classes = morph_classes()
        result = ReplayResult(hours=self.hours)
        weights = np.array([c.ingest_fraction for c in classes])
        weights = weights / weights.sum()
        live: Dict[str, dict] = {}
        counter = 0
        expected: Dict[str, np.ndarray] = {}
        for hour in range(self.hours):
            io_before = fs.metrics.disk_bytes_total
            # Ingest.
            for _ in range(self.files_per_hour):
                cls = classes[int(rng.choice(len(classes), p=weights))]
                name = f"f{counter:05d}"
                counter += 1
                data = rng.integers(0, 256, FILE_KB * KB, dtype=np.uint8)
                fs.write_file(name, data, cls.chain[0][1])
                live[name] = {"class": cls, "born": hour, "stage": 0}
                expected[name] = data
                result.files_written += 1
                result.logical_bytes += len(data)
            # Age-driven transitions / deletions.
            for name, state in list(live.items()):
                cls = state["class"]
                age = hour - state["born"]
                next_stage = state["stage"] + 1
                if next_stage >= len(cls.chain):
                    continue
                stage_age, scheme = cls.chain[next_stage]
                if age < stage_age:
                    continue
                survives = rng.random() < cls.survival[next_stage - 1]
                if not survives:
                    fs.delete_file(name)
                    del live[name]
                    del expected[name]
                    result.files_deleted += 1
                    continue
                fs.transcode(name, scheme)
                state["stage"] = next_stage
                result.transitions += 1
            result.disk_io_series.append(fs.metrics.disk_bytes_total - io_before)
            result.capacity_series.append(fs.capacity_used())
        # Byte-exact verification of every surviving file.
        for name, data in expected.items():
            out = fs.read_file(name)
            if not np.array_equal(out, data):
                raise AssertionError(f"replay diverged on {name}")
        result.total_disk_io = fs.metrics.disk_bytes_total
        result.total_network_io = fs.metrics.net_bytes_total
        return result


def compare_replay(hours: int = 12, files_per_hour: int = 2, seed: int = 0):
    """Run both systems over the identical workload; report reductions."""
    base = TraceReplayer("baseline", hours, files_per_hour, seed=seed).run()
    morph = TraceReplayer("morph", hours, files_per_hour, seed=seed).run()
    return {
        "baseline": base,
        "morph": morph,
        "disk_reduction": 1.0 - morph.total_disk_io / base.total_disk_io,
        "network_reduction": 1.0 - morph.total_network_io / base.total_network_io,
    }
