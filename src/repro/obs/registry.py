"""The metrics registry: named counters, gauges and histograms.

One registry holds every metric a component exposes. Metrics are keyed
by ``(name, sorted label pairs)`` so the same name can carry several
label series (``op_latency_seconds{op="ingest"}`` vs ``{op="repair"}``),
exactly like Prometheus. Besides statically registered metrics, a
*collector* — a callable returning ``(name, kind, labels, value)``
samples — can be attached to surface live values from an existing ledger
(e.g. :class:`~repro.cluster.metrics.IOMetrics`) without copying them:
the registry then *is* a view over the ledger, so exported telemetry and
benchmark numbers can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.histogram import LogLinearHistogram

LabelPairs = Tuple[Tuple[str, str], ...]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _label_key(labels: Dict[str, object]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A settable value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Sample:
    """One collected metric series, ready for an exporter."""

    name: str
    kind: str
    labels: LabelPairs = ()
    value: Optional[float] = None
    hist: Optional[LogLinearHistogram] = None

    @property
    def key(self) -> Tuple[str, LabelPairs]:
        return (self.name, self.labels)


class MetricsRegistry:
    """Holds every named metric; the single source of reported numbers."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}
        self._kinds: Dict[str, str] = {}
        self._collectors: List[Callable[[], Iterable[Tuple[str, str, Dict, float]]]] = []

    # -- registration -------------------------------------------------------
    def _get_or_create(self, name: str, kind: str, labels: Dict, factory):
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(f"metric {name!r} already registered as {known}")
        self._kinds[name] = kind
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(name, COUNTER, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, GAUGE, labels, Gauge)

    def histogram(
        self, name: str, subbuckets_per_octave: int = 128, **labels
    ) -> LogLinearHistogram:
        return self._get_or_create(
            name,
            HISTOGRAM,
            labels,
            lambda: LogLinearHistogram(subbuckets_per_octave),
        )

    def add_collector(
        self, fn: Callable[[], Iterable[Tuple[str, str, Dict, float]]]
    ) -> None:
        """Attach a live sampler: yields (name, kind, labels, value)."""
        self._collectors.append(fn)

    # -- reading ------------------------------------------------------------
    def collect(self) -> List[Sample]:
        """Every current series, deterministically ordered."""
        out: List[Sample] = []
        for (name, labels), metric in self._metrics.items():
            if isinstance(metric, LogLinearHistogram):
                out.append(Sample(name, HISTOGRAM, labels, hist=metric))
            else:
                out.append(Sample(name, self._kinds[name], labels, value=metric.value))
        for collector in self._collectors:
            for name, kind, labels, value in collector():
                out.append(Sample(name, kind, _label_key(labels), value=float(value)))
        out.sort(key=lambda s: s.key)
        return out

    def value(self, name: str, **labels) -> float:
        """Current scalar value of one series (counter or gauge)."""
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None and not isinstance(metric, LogLinearHistogram):
            return metric.value
        for sample in self.collect():
            if sample.key == key and sample.value is not None:
                return sample.value
        raise KeyError(f"no scalar metric {name!r} with labels {labels}")

    def histogram_series(self, name: str) -> List[Tuple[LabelPairs, LogLinearHistogram]]:
        """All label series of one histogram name, sorted by labels."""
        out = [
            (labels, metric)
            for (metric_name, labels), metric in self._metrics.items()
            if metric_name == name and isinstance(metric, LogLinearHistogram)
        ]
        out.sort(key=lambda pair: pair[0])
        return out
