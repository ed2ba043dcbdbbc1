"""Metrics registry tests: determinism, fixed buckets, rendering."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, format_metrics


def record_workload(metrics: MetricsRegistry) -> None:
    for i in range(10):
        metrics.counter("queries").inc()
        metrics.histogram("candidates").observe(float(i))
    metrics.gauge("triples").set(123.0)
    metrics.counter("tokens").inc(42.0)


class TestInstruments:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.counter("c").inc(2.0)
        assert metrics.counter("c").value == 3.0

    def test_counter_rejects_negative(self):
        metrics = MetricsRegistry()
        with pytest.raises(ConfigError):
            metrics.counter("c").inc(-1.0)

    def test_gauge_keeps_last_value(self):
        metrics = MetricsRegistry()
        metrics.gauge("g").set(1.0)
        metrics.gauge("g").set(7.0)
        assert metrics.gauge("g").value == 7.0

    def test_instruments_shared_by_name(self):
        metrics = MetricsRegistry()
        assert metrics.histogram("h") is metrics.histogram("h")

    def test_histogram_boundary_mismatch_raises(self):
        metrics = MetricsRegistry()
        metrics.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ConfigError):
            metrics.histogram("h", boundaries=(1.0, 3.0))

    def test_histogram_unsorted_boundaries_raise(self):
        metrics = MetricsRegistry()
        with pytest.raises(ConfigError):
            metrics.histogram("h", boundaries=(2.0, 1.0))


class TestHistogramPercentiles:
    def test_percentile_reads_bucket_upper_edge(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h", boundaries=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 4.0, 9.0):
            hist.observe(value)
        assert hist.percentile(50.0) == 1.0
        assert hist.percentile(99.0) == 10.0

    def test_overflow_bucket_reports_true_max(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h", boundaries=(1.0,))
        hist.observe(250.0)
        assert hist.percentile(99.0) == 250.0

    def test_percentile_out_of_range_raises(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h")
        hist.observe(1.0)
        with pytest.raises(ConfigError):
            hist.percentile(101.0)

    def test_percentile_without_observations_raises(self):
        metrics = MetricsRegistry()
        with pytest.raises(ConfigError):
            metrics.histogram("h").percentile(50.0)


class TestSnapshotDeterminism:
    def test_identical_workloads_produce_identical_json(self):
        snapshots = []
        for _ in range(2):
            metrics = MetricsRegistry()
            record_workload(metrics)
            snapshots.append(metrics.to_json())
        assert snapshots[0] == snapshots[1]

    def test_snapshot_sections_and_sorted_names(self):
        metrics = MetricsRegistry()
        record_workload(metrics)
        snap = metrics.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert snap["counters"]["queries"] == 10.0
        assert snap["histograms"]["candidates"]["count"] == 10

    def test_empty_histogram_snapshots_as_count_zero(self):
        metrics = MetricsRegistry()
        metrics.histogram("empty")
        assert metrics.snapshot()["histograms"]["empty"] == {"count": 0}


class TestFormatting:
    def test_table_lists_every_instrument(self):
        metrics = MetricsRegistry()
        record_workload(metrics)
        table = format_metrics(metrics.snapshot())
        for name in ("queries", "candidates", "triples", "tokens"):
            assert name in table
        assert "p95=" in table

    def test_empty_snapshot_renders_placeholder(self):
        assert format_metrics(MetricsRegistry().snapshot()) == (
            "(no metrics recorded)"
        )
