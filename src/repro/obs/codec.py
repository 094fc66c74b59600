"""Process-global codec throughput counters.

Every encode/decode in :mod:`repro.codes` (and the wide GF(2^16) code)
records the bytes it processed and the wall seconds it took into
:data:`CODEC_STATS`. The counters are process-global — codecs are
library calls with no observability handle of their own — and an
:class:`~repro.obs.core.Observability` exposes them as registry series
via ``attach_codec()``, so ``python -m repro report`` can show codec
MB/s next to cluster health and the bench harness reads the same cells
it commits to ``BENCH_codec.json``.

Accounting convention: ``encode`` bytes are the data bytes encoded
(``k * chunk_len`` per stripe); ``decode`` bytes are the bytes
reconstructed (``len(erased) * chunk_len``). Wall seconds come from
``time.perf_counter`` — two calls per codec operation, negligible next
to any real chunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple


@dataclass
class CodecStats:
    """Byte and wall-second odometers per codec operation kind."""

    bytes: Dict[str, float] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    ops: Dict[str, float] = field(default_factory=dict)

    def record(self, op: str, nbytes: float, seconds: float) -> None:
        self.bytes[op] = self.bytes.get(op, 0.0) + nbytes
        self.seconds[op] = self.seconds.get(op, 0.0) + seconds
        self.ops[op] = self.ops.get(op, 0.0) + 1

    def reset(self) -> None:
        self.bytes.clear()
        self.seconds.clear()
        self.ops.clear()


#: The process-global ledger every codec records into.
CODEC_STATS = CodecStats()


class record_codec:
    """Context manager: time one codec operation into a stats ledger.

    >>> with record_codec("encode", nbytes=6 * 1024):
    ...     pass  # the actual matmul
    """

    __slots__ = ("op", "nbytes", "stats", "_t0")

    def __init__(self, op: str, nbytes: float, stats: CodecStats = CODEC_STATS):
        self.op = op
        self.nbytes = nbytes
        self.stats = stats

    def __enter__(self) -> "record_codec":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stats.record(self.op, self.nbytes, time.perf_counter() - self._t0)


def codec_samples(
    stats: CodecStats = CODEC_STATS,
) -> Iterable[Tuple[str, str, Dict, float]]:
    """Registry-collector samples over a codec stats ledger."""
    for op in sorted(stats.bytes):
        yield "codec_bytes", "counter", {"op": op}, stats.bytes[op]
        yield "codec_seconds", "counter", {"op": op}, stats.seconds[op]
        yield "codec_ops", "counter", {"op": op}, stats.ops[op]
