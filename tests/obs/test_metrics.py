"""Counters, gauges, histograms, the registry, and the helpers."""

import threading
import time

import pytest

from repro.obs.metrics import (
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    observe_operation,
    observe_shipment,
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
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 55.5
        assert histogram.min == 0.5 and histogram.max == 50.0
        assert histogram.counts == [1, 1, 1]  # last is overflow

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.snapshot()["min"] == 0.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", bounds=())

    def test_snapshot_skips_empty_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"10.0": 1}
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


class TestHelpers:
    def test_observe_operation_populates_standard_names(self):
        registry = MetricsRegistry()
        observe_operation(registry, "scan", 0.25, 100)
        observe_operation(registry, "scan", 0.75, 50)
        assert registry.counter("op.scan.count").value == 2
        assert registry.counter("op.scan.rows").value == 150
        histogram = registry.histogram("op.scan.seconds")
        assert histogram.count == 2
        assert histogram.total == 1.0

    def test_observe_shipment_counts_bytes_and_batches(self):
        registry = MetricsRegistry()
        observe_shipment(registry, 1000, 0.1)
        observe_shipment(registry, 500, 0.2, batch=True)
        assert registry.counter("ship.messages").value == 2
        assert registry.counter("ship.bytes").value == 1500
        batches = registry.histogram("ship.batch_bytes", SIZE_BUCKETS)
        assert batches.count == 1

    def test_none_registry_is_noop(self):
        observe_operation(None, "scan", 0.1, 1)
        observe_shipment(None, 10, 0.1)


class TestTimer:
    def test_feeds_bound_histogram(self):
        registry = MetricsRegistry()
        with Timer(registry, "publish.seconds") as timer:
            time.sleep(0.005)
        assert timer.seconds >= 0.004
        histogram = registry.histogram("publish.seconds")
        assert histogram.count == 1
        assert histogram.total == timer.seconds

    def test_unbound_timer_just_measures(self):
        with Timer() as timer:
            pass
        assert timer.seconds >= 0.0
