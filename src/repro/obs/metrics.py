"""Metrics registry: counters, gauges and fixed-bucket histograms.

Instruments register by name and are shared by reference, so the
pipeline, adapters, retriever and confidence stages all write into one
registry per :class:`~repro.obs.context.Observability` bundle.

Histograms use *fixed* bucket boundaries (no adaptive resizing, no
reservoir sampling) so a snapshot is a deterministic function of the
observed values — two seeded runs produce identical snapshots as long as
only deterministic quantities (token counts, candidate counts, simulated
latency) are recorded.  Wall-clock durations belong in span timing
fields, never in metrics.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigError

#: default bucket boundaries — generic powers-of-ten-ish scale that fits
#: counts (0–10k) and simulated latencies (fractional seconds) alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 5000.0, 10000.0,
)


@dataclass(slots=True)
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up).

        Raises:
            ConfigError: on a negative increment.
        """
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass(slots=True)
class Gauge:
    """Last-observed value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass(slots=True)
class Histogram:
    """Fixed-boundary histogram with deterministic percentile estimates.

    Percentiles are read from the bucket boundaries (the upper edge of the
    bucket containing the target rank), so ``p50/p95/p99`` are stable
    across runs whenever the recorded values are.
    """

    name: str
    boundaries: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if list(self.boundaries) != sorted(self.boundaries):
            raise ConfigError(
                f"histogram {self.name}: boundaries must be sorted"
            )
        if not self.counts:
            # one bucket per boundary plus the +Inf overflow bucket.
            self.counts = [0] * (len(self.boundaries) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Bucket-boundary estimate of the ``q``-th percentile.

        Raises:
            ConfigError: when ``q`` is outside [0, 100] or no values were
                observed.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigError(f"percentile must lie in [0, 100], got {q}")
        if self.total == 0:
            raise ConfigError(f"histogram {self.name} has no observations")
        rank = q / 100.0 * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self.max  # overflow bucket: report the true max
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Bucket counts add elementwise, so merging per-worker histograms
        in submit order reproduces the sequential run's snapshot.

        Raises:
            ConfigError: when the bucket boundaries differ.
        """
        if other.boundaries != self.boundaries:
            raise ConfigError(
                f"histogram {self.name}: cannot merge histograms with "
                f"different boundaries"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def snapshot(self) -> dict[str, float]:
        if self.total == 0:
            return {"count": 0}
        return {
            "count": self.total,
            "sum": round(self.sum, 9),
            "min": round(self.min, 9),
            "max": round(self.max, 9),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, boundaries: Sequence[float] | None = None
    ) -> Histogram:
        """Get-or-create; ``boundaries`` only applies on first creation.

        Raises:
            ConfigError: when re-registering with different boundaries.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name,
                tuple(boundaries) if boundaries is not None else DEFAULT_BUCKETS,
            )
        elif boundaries is not None and tuple(boundaries) != histogram.boundaries:
            raise ConfigError(
                f"histogram {name} already registered with different "
                f"boundaries"
            )
        return histogram

    def names(self) -> list[str]:
        """Every registered instrument name, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        This is the worker-boundary propagation path of the exec engine:
        each worker records into a private registry, and the engine
        merges them back in submit order.  Counters add, gauges take the
        incoming value (submit-order last-write-wins), histograms combine
        bucket counts.

        Raises:
            ConfigError: when a histogram exists in both registries with
                different bucket boundaries.
        """
        for name in sorted(other._counters):
            self.counter(name).inc(other._counters[name].value)
        for name in sorted(other._gauges):
            self.gauge(name).set(other._gauges[name].value)
        for name in sorted(other._histograms):
            source = other._histograms[name]
            self.histogram(name, source.boundaries).merge(source)

    def snapshot(self) -> dict[str, Any]:
        """Deterministic JSON-ready export of every instrument."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)


class _NoopInstrument:
    """Counter/gauge/histogram stand-in that swallows every write."""

    __slots__ = ()

    value = 0.0
    total = 0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopMetrics:
    """Disabled registry: one shared inert instrument for every name."""

    enabled = False

    def counter(self, name: str) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name: str) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(
        self, name: str, boundaries: Sequence[float] | None = None
    ) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)


NOOP_METRICS = NoopMetrics()


def format_metrics(snapshot: dict[str, Any]) -> str:
    """Render a snapshot as the aligned summary table reports embed."""
    rows: list[tuple[str, str, str]] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append((name, "counter", _num(value)))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append((name, "gauge", _num(value)))
    for name, stats in snapshot.get("histograms", {}).items():
        if stats.get("count", 0) == 0:
            rows.append((name, "histogram", "count=0"))
            continue
        rows.append((
            name, "histogram",
            f"count={stats['count']} p50={_num(stats['p50'])} "
            f"p95={_num(stats['p95'])} p99={_num(stats['p99'])} "
            f"max={_num(stats['max'])}",
        ))
    if not rows:
        return "(no metrics recorded)"
    rows.sort()
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    return "\n".join(
        f"{name.ljust(name_w)}  {kind.ljust(kind_w)}  {value}"
        for name, kind, value in rows
    )


def _num(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.6g}"
