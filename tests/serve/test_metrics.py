"""Metrics tests: percentile math and snapshot shape."""

import pytest

from repro.metrics import LATENCY_WINDOW, percentile
from repro.serve.metrics import ServiceMetrics


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([0.25], 0.5) == 0.25
        assert percentile([0.25], 0.95) == 0.25

    def test_order_independent(self):
        samples = [0.5, 0.1, 0.9, 0.3, 0.7]
        assert percentile(samples, 0.5) == 0.5
        assert percentile(list(reversed(samples)), 0.5) == 0.5
        assert percentile(samples, 0.95) == 0.9

    def test_p95_tracks_tail(self):
        samples = [0.01] * 95 + [1.0] * 5
        assert percentile(samples, 0.95) == 1.0
        assert percentile(samples, 0.50) == 0.01


class TestServiceMetrics:
    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot()
        for field in (
            "requests",
            "schedule_requests",
            "computed",
            "cache_hits",
            "coalesced",
            "rejected",
            "errors",
            "batches",
            "in_flight",
            "queue_depth",
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_samples",
        ):
            assert field in snapshot, field
        assert snapshot["latency_samples"] == 0

    def test_latency_window_bounded(self):
        metrics = ServiceMetrics()
        for _ in range(LATENCY_WINDOW + 100):
            metrics.observe_latency(0.002)
        snapshot = metrics.snapshot()
        assert snapshot["latency_samples"] == LATENCY_WINDOW
        assert abs(snapshot["latency_p50_ms"] - 2.0) < 1e-9

    def test_latency_in_milliseconds(self):
        metrics = ServiceMetrics()
        metrics.observe_latency(0.010)
        metrics.observe_latency(0.030)
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50_ms"] in (10.0, 30.0)
        assert snapshot["latency_p95_ms"] == 30.0


    def test_record_scenario_counts_declared_modes_only(self):
        metrics = ServiceMetrics()
        metrics.record_scenario("io")
        metrics.record_scenario("bogus")
        snapshot = metrics.snapshot()
        assert snapshot["scenario_io_jobs"] == 1
        assert "scenario_bogus_jobs" not in snapshot
        assert not hasattr(metrics, "scenario_bogus_jobs")


class TestComputeAccounting:
    def test_record_compute_totals_and_breakdown(self):
        metrics = ServiceMetrics()
        metrics.record_compute("force-directed", 0.2)
        metrics.record_compute("force-directed", 0.2)
        metrics.record_compute("force-directed", 0.4)
        metrics.record_compute("list(ready)", 0.1)
        snapshot = metrics.snapshot()
        assert snapshot["compute_seconds_total"] == pytest.approx(0.9)
        fds = snapshot["algorithms"]["force-directed"]
        assert fds["computed"] == 3
        assert fds["seconds_total"] == pytest.approx(0.8)
        assert fds["compute_p50_ms"] == pytest.approx(200.0)
        assert fds["compute_p95_ms"] == pytest.approx(400.0)
        assert snapshot["algorithms"]["list(ready)"]["computed"] == 1

    def test_empty_breakdown(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["compute_seconds_total"] == 0.0
        assert snapshot["algorithms"] == {}

    def test_snapshot_is_json_safe(self):
        import json

        metrics = ServiceMetrics()
        metrics.record_compute("exact", 0.05)
        json.dumps(metrics.snapshot())
