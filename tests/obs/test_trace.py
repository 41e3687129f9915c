"""The tracing core: spans, nesting, the null fast path, exporters."""

import io
import json
import threading
import time

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl_trace,
)


class TestRecord:
    def test_records_measured_seconds_verbatim(self):
        tracer = Tracer()
        start = time.perf_counter()
        span = tracer.record(
            "Scan(site)", "op", start=start, seconds=0.125,
            op_id=3, rows=42,
        )
        assert span.seconds == 0.125
        assert span.attrs == {"op_id": 3, "rows": 42}
        assert span.parent_id is None
        assert tracer.spans == [span]

    def test_default_start_is_now_minus_seconds(self):
        tracer = Tracer()
        span = tracer.record("late", "op", seconds=0.5)
        # The span ends roughly "now": start + seconds ~ current offset.
        now = time.perf_counter() - tracer._epoch
        assert span.start + span.seconds <= now + 0.05

    def test_ids_are_unique_and_increasing(self):
        tracer = Tracer()
        ids = [
            tracer.record(f"s{i}", "op").span_id for i in range(5)
        ]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_thread_safe_recording(self):
        tracer = Tracer()

        def burst():
            for _ in range(200):
                tracer.record("x", "op", seconds=0.0)

        threads = [threading.Thread(target=burst) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.spans) == 800
        ids = [span.span_id for span in tracer.spans]
        assert len(set(ids)) == 800


class TestSpanContextManager:
    def test_measures_wall_time(self):
        tracer = Tracer()
        with tracer.span("step", "step"):
            time.sleep(0.01)
        (span,) = tracer.spans
        assert span.seconds >= 0.009
        assert span.category == "step"

    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer", "step"):
            with tracer.span("inner", "step"):
                pass
        inner, outer = tracer.spans  # inner closes first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_record_inside_open_span_nests(self):
        tracer = Tracer()
        with tracer.span("run", "run"):
            child = tracer.record("op", "op", seconds=0.0)
        assert child.parent_id == tracer.spans[-1].span_id

    def test_nesting_is_per_thread(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["span"] = tracer.record("other-thread", "op")

        with tracer.span("main-only", "step"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["span"].parent_id is None
        assert seen["span"].thread != "MainThread"

    def test_annotate_attaches_late_attributes(self):
        tracer = Tracer()
        with tracer.span("step", "step", fixed=1) as span:
            span.annotate(rows=7)
        assert tracer.spans[0].attrs == {"fixed": 1, "rows": 7}


class TestQueries:
    def test_spans_of_and_total_seconds(self):
        tracer = Tracer()
        tracer.record("a", "op", seconds=1.0)
        tracer.record("b", "ship", seconds=2.0)
        tracer.record("c", "op", seconds=4.0)
        assert tracer.total_seconds("op") == 5.0
        assert tracer.total_seconds() == 7.0


class TestNullTracer:
    def test_record_is_a_noop(self):
        tracer = NullTracer()
        assert tracer.record("x", "op", seconds=1.0) is None
        assert tracer.spans == []
        assert tracer.enabled is False

    def test_span_is_shared_noop_context(self):
        with NULL_TRACER.span("a", "step") as one:
            one.annotate(ignored=True)
        assert NULL_TRACER.span("b", "step") is one
        assert NULL_TRACER.spans == []

    def test_or_idiom_yields_null(self):
        assert (None or NULL_TRACER) is NULL_TRACER
        real = Tracer()
        assert (real or NULL_TRACER) is real


class TestExporters:
    def _traced(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("outer", "step"):
            tracer.record("op", "op", start=None, seconds=0.25,
                          op_id=1, rows=3)
        return tracer

    def test_jsonl_round_trips(self):
        tracer = self._traced()
        stream = io.StringIO()
        count = write_jsonl_trace(tracer, stream)
        lines = stream.getvalue().strip().splitlines()
        assert count == len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["cat"] == "op"
        assert records[0]["attrs"] == {"op_id": 1, "rows": 3}
        assert records[0]["parent"] == records[1]["id"]

    def test_jsonl_accepts_bare_span_iterable(self):
        spans = [Span("x", "op", 0.0, 1.0, 1)]
        stream = io.StringIO()
        assert write_jsonl_trace(spans, stream) == 1

    def test_chrome_events_shape(self):
        tracer = self._traced()
        document = chrome_trace_events(tracer)
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        op = next(e for e in complete if e["cat"] == "op")
        assert op["dur"] == 250000.0  # 0.25 s in microseconds
        assert op["args"]["op_id"] == 1
        assert meta and meta[0]["name"] == "thread_name"
        assert document["displayTimeUnit"] == "ms"

    def test_chrome_file_loads_as_json(self):
        tracer = self._traced()
        stream = io.StringIO()
        count = write_chrome_trace(tracer, stream)
        assert count == 2
        document = json.loads(stream.getvalue())
        assert {e["ph"] for e in document["traceEvents"]} == {"X", "M"}

    def test_threads_get_distinct_tracks(self):
        tracer = Tracer()
        tracer.record("main", "op")

        def other():
            tracer.record("worker", "op")

        thread = threading.Thread(target=other, name="worker-1")
        thread.start()
        thread.join()
        events = chrome_trace_events(tracer)["traceEvents"]
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert len(tids) == 2
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "worker-1" in names
