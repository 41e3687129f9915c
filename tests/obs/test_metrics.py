"""Counters, gauges, histograms, the registry, and the report reader."""

import threading

import pytest

from repro.core.ops.base import Location
from repro.core.ops.combine import JoinStatistics
from repro.core.program.executor import ExecutionReport, OperationTiming
from repro.obs.metrics import (
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    observe_report,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.add()
        counter.add(5)
        assert counter.value == 6
        assert counter.snapshot() == {"type": "counter", "value": 6}

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").add(-1)

    def test_thread_safe(self):
        counter = Counter("c")

        def burst():
            for _ in range(1000):
                counter.add()

        threads = [threading.Thread(target=burst) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestGauge:
    def test_moves_both_ways_and_tracks_peak(self):
        gauge = Gauge("queue")
        gauge.add(3)
        gauge.add(2)
        gauge.add(-4)
        assert gauge.value == 1
        assert gauge.peak == 5
        gauge.set(0.5)
        assert gauge.snapshot()["peak"] == 5


class TestHistogram:
    def test_buckets_and_stats(self):
        histogram = Histogram("h")
        for value in (0.3, 5.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 505.3
        assert histogram.min == 0.3 and histogram.max == 500.0
        # Bounds are inclusive upper edges; the last bucket overflows.
        expected = [0] * (len(SECONDS_BUCKETS) + 1)
        expected[SECONDS_BUCKETS.index(0.5)] = 1
        expected[SECONDS_BUCKETS.index(5.0)] = 1
        expected[-1] = 1
        assert histogram.counts == expected

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.snapshot()["min"] == 0.0

    def test_snapshot_skips_empty_buckets(self):
        histogram = Histogram("h")
        histogram.observe(3.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"5.0": 1}
        assert snapshot["overflow"] == 0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("x")

    def test_names_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("b").add(2)
        registry.gauge("a").set(1.5)
        assert registry.names() == ["a", "b"]
        snapshot = registry.snapshot()
        assert snapshot["b"]["value"] == 2

    def test_render_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("ship.messages").add(3)
        registry.gauge("parallel.inflight").set(2)
        registry.histogram("op.scan.seconds").observe(0.1)
        text = registry.render()
        assert "ship.messages" in text and "3" in text
        assert "parallel.inflight" in text
        assert "op.scan.seconds" in text and "n=1" in text


def _report() -> ExecutionReport:
    """Two scans, a hash and an aligned join, two edges of two and
    one messages."""
    return ExecutionReport(
        op_timings=[
            OperationTiming("scan a", "scan", Location.SOURCE, 0.25, 100),
            OperationTiming("scan b", "scan", Location.SOURCE, 0.75, 50),
            OperationTiming(
                "combine", "combine", Location.SOURCE, 0.5, 100,
                strategy="hash",
                join=JoinStatistics("hash", 50, 100, 0.125, 0.25, 40),
            ),
            OperationTiming(
                "combine", "combine", Location.SOURCE, 0.5, 20,
                strategy="aligned",
                join=JoinStatistics("aligned", 10, 20, 0.125, 0.25),
            ),
        ],
        comm_bytes=1500,
        shipment_bytes={(1, 0): 1000, (2, 0): 500},
        shipment_seconds={(1, 0): 0.1, (2, 0): 0.2},
        shipment_batches={(1, 0): 2, (2, 0): 1},
    )


class TestHelpers:
    def test_observe_operation_populates_standard_names(self):
        registry = MetricsRegistry()
        observe_report(registry, _report())
        assert registry.counter("op.scan.count").value == 2
        assert registry.counter("op.scan.rows").value == 150
        histogram = registry.histogram("op.scan.seconds")
        assert histogram.count == 2
        assert histogram.total == 1.0
        assert registry.counter("op.combine.count").value == 2

    def test_observe_shipment_counts_bytes_and_batches(self):
        registry = MetricsRegistry()
        observe_report(registry, _report())
        assert registry.counter("ship.messages").value == 3
        assert registry.counter("ship.bytes").value == 1500
        shipped = registry.histogram("ship.seconds")
        assert shipped.count == 2
        assert shipped.total == pytest.approx(0.3)

    def test_observe_join_counts_sides_and_strategies(self):
        registry = MetricsRegistry()
        observe_report(registry, _report())
        assert registry.counter("join.strategy.hash").value == 1
        assert registry.counter("join.strategy.aligned").value == 1
        assert registry.counter("join.build_rows").value == 60
        assert registry.counter("join.probe_rows").value == 120
        assert registry.counter("join.hash_table_rows").value == 40
        for phase, seconds in (("build", 0.25), ("probe", 0.5)):
            histogram = registry.histogram(f"join.{phase}_seconds")
            assert (histogram.count, histogram.total) == (2, seconds)

    def test_none_registry_is_noop(self):
        observe_report(None, _report())


class TestTimer:
    def test_unbound_timer_just_measures(self):
        with Timer() as timer:
            pass
        assert timer.seconds >= 0.0
