"""Span tracing keyed on simulated time.

A span brackets one logical operation (``with trace.span("repair",
file=name):``). Spans nest: entering a span while another is open makes
it a child, so a transcode request shows the conversion-group executions
and any degraded reads it triggered underneath it. Time comes from an
injectable clock — the event engine's ``env.now`` in simulations, a
cost-model clock over the IO ledger in the functional DFS — never the
wall clock, so traces stay deterministic.

Every finished span lands in ``tracer.finished`` (bounded) and its
duration is recorded into the registry histogram
``op_latency_seconds{op=<name>}``, which is where the report CLI reads
per-operation p50/p95/p99 from.

The default tracer on every filesystem is :data:`NOOP_TRACER`: one
shared span object, no clock reads, no allocation, no samples — tracing
costs nothing unless explicitly enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.registry import MetricsRegistry

OP_LATENCY_METRIC = "op_latency_seconds"
#: finished spans a tracer keeps; later ones are only counted (``dropped``)
MAX_FINISHED_SPANS = 100_000


@dataclass
class Span:
    """One traced operation; usable as a context manager."""

    tracer: "Tracer"
    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    attrs: Dict[str, object] = field(default_factory=dict)
    end: Optional[float] = field(default=None, init=False)
    error: bool = field(default=False, init=False)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.error = exc_type is not None
        self.tracer._finish(self)
        return False


class Tracer:
    """Records nested spans against an injectable simulated clock."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock or (lambda: 0.0)
        self.registry = registry
        self.finished: List[Span] = []
        self.dropped = 0
        self._stack: List[Span] = []
        self._next_id = 0

    def span(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            start=float(self.clock()),
            attrs=attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = float(self.clock())
        # Close abandoned children too (exception unwound past them).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if len(self.finished) < MAX_FINISHED_SPANS:
            self.finished.append(span)
        else:
            self.dropped += 1
        if self.registry is not None:
            self.registry.histogram(OP_LATENCY_METRIC, op=span.name).record(
                span.duration
            )


class _NoopSpan:
    """Shared do-nothing span; the cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every span is the same inert object."""

    enabled = False
    finished: List[Span] = []
    dropped = 0

    def span(self, name: str, **attrs) -> _NoopSpan:
        return _NOOP_SPAN


NOOP_TRACER = NoopTracer()
