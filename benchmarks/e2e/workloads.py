"""Workload shapes and seeded input generation for ``morph-e2e``.

Every workload runs the same round — a file lifetime (set A), a
two-node failure drill (set B) and a metadata churn + namenode restart
(trace M) — at a different shape, so each stresses different layers:

==================== ========= ============== ============== =============
workload             chunk     A (lifetime)   B (failure)    M (metadata)
==================== ========= ============== ============== =============
bulk_lifetime        1 MiB     4 x 12 MiB     6 x 12 MiB     1k + 2k ops
smallfile_lifetime   4 KiB     200 x 48 KiB   60 x 48 KiB    1k + 2k ops
failure_repair       64 KiB    4 x 3 MiB      12 x 3 MiB     1k + 2k ops
meta_churn_recover   4 KiB     40 x 48 KiB    30 x 48 KiB    2k + 4k ops
==================== ========= ============== ============== =============

Everything the program is fed — payload bytes, file names, the metadata
op mix, which bytes rot — is drawn here from ``--seed``; the same seed
gives the same inputs. The harness resolves the draws that need system
state: the two nodes that fail are the pair of median severity, and the
seeded draw only breaks ties (see ``harness._pick_victims``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

KiB = 1024
MiB = 1024 * 1024
N_DATANODES = 23
N_SHARDS = 4
#: metas per ``register_files`` call in the metadata phase
META_BATCH = 1000
#: an all-node ``chunks_on_node`` sweep is issued every this many ops
SWEEP_EVERY = 5000
#: measured rounds of a fixed-count run (``--rounds`` overrides; the
#: driver's ``--seconds`` runs as many rounds as fit instead)
DEFAULT_ROUNDS = 24
#: op mix of the metadata churn (shares sum to 1)
META_MIX = (
    ("register", 0.30),
    ("lookup", 0.25),
    ("mint", 0.15),
    ("rename", 0.10),
    ("note", 0.10),
    ("unregister", 0.10),
)


@dataclass(frozen=True)
class Spec:
    """One workload's shape. Sizes are per round."""

    name: str
    why: str
    chunk_size: int
    a_files: int
    a_size: int
    b_files: int
    b_size: int
    meta_files: int
    meta_ops: int
    #: journal snapshot compaction threshold (0 = never), per shard
    compact_every: int

    def quick(self) -> "Spec":
        """The smallest round of this shape (``--quick``): two A files
        (one per merge target), three B files (one per redundancy state),
        each just the twelve chunks one CC(12,15) stripe needs."""
        size = 12 * self.chunk_size
        return replace(
            self, a_files=2, a_size=size, b_files=3, b_size=size,
            meta_files=max(50, self.meta_files // 20),
            meta_ops=max(100, self.meta_ops // 20),
        )


WORKLOADS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="bulk_lifetime",
            why="byte-heavy: 1 MiB chunks, few journal records; codes and "
                "dfs.integrity do the work, metadata changes must not show",
            chunk_size=MiB, a_files=4, a_size=12 * MiB, b_files=6,
            b_size=12 * MiB, meta_files=1000, meta_ops=2000,
            compact_every=0,
        ),
        Spec(
            name="smallfile_lifetime",
            why="op-heavy: 48 KiB files at 4 KiB chunks, ~18 journal records "
                "per file; journal, namenode, placement and glue dominate",
            chunk_size=4 * KiB, a_files=200, a_size=48 * KiB, b_files=60,
            b_size=48 * KiB, meta_files=1000, meta_ops=2000,
            compact_every=0,
        ),
        Spec(
            name="failure_repair",
            why="decode-heavy: 64 KiB chunks, two dead nodes over three "
                "redundancy states; many failure patterns against the LRUs",
            chunk_size=64 * KiB, a_files=4, a_size=3 * MiB, b_files=12,
            b_size=3 * MiB, meta_files=1000, meta_ops=2000,
            compact_every=0,
        ),
        Spec(
            name="meta_churn_recover",
            why="control-plane-heavy: 10x namespace, journal compaction and "
                "replay; data phases are small so metadata cost dominates",
            chunk_size=4 * KiB, a_files=40, a_size=48 * KiB, b_files=30,
            b_size=48 * KiB, meta_files=2000, meta_ops=4000,
            compact_every=1000,
        ),
    )
}


@dataclass
class DataFile:
    name: str
    data: np.ndarray
    sha256: str


@dataclass
class MetaTrace:
    """A replayable metadata op sequence.

    ``initial`` and every ``register`` op carry ``(name, start, stride)``:
    the file's nine chunks sit on nodes ``(start + j * stride) % 23``
    (23 is prime, so any stride gives nine distinct nodes).
    """

    initial: List[Tuple[str, int, int]]
    ops: List[tuple]
    #: ops as a user counts them: batch-registered files + churn ops +
    #: one per node visited by a sweep
    n_ops: int


@dataclass
class Inputs:
    a: List[DataFile]
    b: List[DataFile]
    #: seeded draw resolved by the harness into a victim node pair
    victim_draw: int
    #: per B file: (chunk draw, byte draw) for the injected corruption
    corruption_draws: List[Tuple[int, int]]
    meta: MetaTrace

    def digest(self) -> str:
        """sha256 over every payload digest (proves the seed took)."""
        h = hashlib.sha256()
        for f in self.a + self.b:
            h.update(f.sha256.encode())
        return h.hexdigest()


def _files(rng: np.random.Generator, prefix: str, count: int, size: int) -> List[DataFile]:
    out = []
    for i in range(count):
        data = rng.integers(0, 256, size, dtype=np.uint8)
        out.append(
            DataFile(f"{prefix}/{i:05d}", data, hashlib.sha256(data.tobytes()).hexdigest())
        )
    return out


def _meta_trace(rng: np.random.Generator, n_files: int, n_ops: int) -> MetaTrace:
    """Seeded churn over a live-name model, so every op is valid."""
    total = n_files + n_ops
    starts = rng.integers(0, N_DATANODES, total).tolist()
    strides = rng.integers(1, N_DATANODES, total).tolist()
    kinds = [k for k, _ in META_MIX]
    shares = np.array([p for _, p in META_MIX])
    kind_draws = rng.choice(len(kinds), size=n_ops, p=shares).tolist()
    picks = rng.integers(0, 1 << 30, n_ops).tolist()
    node_draws = rng.integers(0, N_DATANODES, n_ops).tolist()

    initial = [(f"m/{i:06d}", starts[i], strides[i]) for i in range(n_files)]
    live = [name for name, _, _ in initial]
    next_id = n_files
    ops: List[tuple] = []
    counted = n_files
    for i in range(n_ops):
        kind = kinds[kind_draws[i]]
        if kind != "register" and not live:
            kind = "register"
        if kind == "register":
            name = f"m/{next_id:06d}"
            ops.append(("register", name, starts[next_id], strides[next_id]))
            live.append(name)
            next_id += 1
        elif kind == "lookup":
            ops.append(("lookup", live[picks[i] % len(live)]))
        elif kind == "mint":
            ops.append(("mint", live[picks[i] % len(live)] + "/s0d"))
        elif kind == "note":
            ops.append(("note", f"dn{node_draws[i]:03d}", live[picks[i] % len(live)]))
        else:
            slot = picks[i] % len(live)
            old = live[slot]
            if kind == "rename":
                new = f"m/r{i:06d}"
                ops.append(("rename", old, new))
                live[slot] = new
            else:
                ops.append(("unregister", old))
                live[slot] = live[-1]
                live.pop()
        counted += 1
        if (i + 1) % SWEEP_EVERY == 0 or i + 1 == n_ops:
            ops.append(("sweep",))
            counted += N_DATANODES
    return MetaTrace(initial=initial, ops=ops, n_ops=counted)


def generate(spec: Spec, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 0x6D6F7270])
    a = _files(rng, "a", spec.a_files, spec.a_size)
    b = _files(rng, "b", spec.b_files, spec.b_size)
    victim_draw = int(rng.integers(0, 1 << 30))
    corruption_draws = [
        (int(c), int(y)) for c, y in rng.integers(0, 1 << 30, (spec.b_files, 2))
    ]
    meta = _meta_trace(rng, spec.meta_files, spec.meta_ops)
    return Inputs(a, b, victim_draw, corruption_draws, meta)
