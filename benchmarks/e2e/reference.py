"""Machine-speed reference: a fixed kernel timed beside every round.

The sandbox this benchmark runs in drifts: the same interpreter-bound or
memory-bound code runs up to ~35 % slower for minutes at a time (noisy
neighbours; no steal time is reported). Raw wall-clock medians of
back-to-back identical runs differed by 25-65 %, far beyond any useful
regression bound, and everything slowed together. So each round times
this reference — fixed work that never touches the program — at the
boundaries of its three parts, and every wall the round reports is
scaled by ``NOMINAL_S / reference time``: rates read as *at reference
speed*. The same identical runs then agree within 1-7 %.

The kernel mixes what the program mixes: interpreter work (dict, list,
tuple, slotted-object method calls, string formatting) and memory-bound
numpy work (a GF-table-like gather, a 4 MiB copy, a CRC32 over 1 MiB).
It is part of the benchmark's definition: changing it, or ``NOMINAL_S``,
re-bases every timed metric.
"""

from __future__ import annotations

import statistics
import zlib
from time import perf_counter

import numpy as np

#: reference time of this box in its fast state; fixes the unit only
NOMINAL_S = 0.0103
REPS = 3

_rng = np.random.default_rng(0x5EED)
_TABLE = _rng.integers(0, 256, (65536, 3), dtype=np.uint8)
_INDEX = _rng.integers(0, 65536, 1 << 20).astype(np.uint16)
_BUFFER = _rng.integers(0, 256, 4 << 20, dtype=np.uint8)


class _Cell:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def bump(self, x: int) -> int:
        self.total += x
        return self.total


def _interpreter_bound() -> None:
    table = {}
    pairs = []
    cell = _Cell()
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
        cell.bump(i)
        if not i & 255:
            f"m/{i:06d}#{key:08d}"
            pairs = []


def _memory_bound() -> None:
    np.take(_TABLE, _INDEX, axis=0, mode="clip")
    _BUFFER.copy()
    zlib.crc32(_BUFFER[: 1 << 20].tobytes())


def _median_time(fn) -> float:
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def reference_seconds() -> float:
    """Seconds the reference kernel takes right now (median of REPS)."""
    return _median_time(_interpreter_bound) + _median_time(_memory_bound)
