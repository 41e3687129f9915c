"""Structured tracing: spans, the tracer, and trace exporters.

One :class:`Span` covers one timed thing — an operation execution, a
cross-edge shipment, one streamed batch on the wire, a retry attempt, a
pipeline step.  Spans carry a category (the taxonomy is documented in
``docs/observability.md``), a monotonic start offset, a duration in
seconds, a parent for nesting, and free-form JSON-able attributes.

:class:`Tracer` collects spans thread-safely.  Producers either wrap a
block in :meth:`Tracer.span` (measures wall time, maintains a
per-thread nesting stack) or call :meth:`Tracer.record` with timings
they already measured — the executors use ``record`` so a span's
duration is *exactly* the seconds the execution report accounts,
letting trace totals reconcile with report totals to the last float.

:data:`NULL_TRACER` is the no-op fast path: a :class:`NullTracer`
whose ``record`` returns immediately and whose ``span`` hands back a
shared do-nothing context manager.  Call sites never branch on
"is tracing on"; they call the tracer unconditionally and the null
implementation costs one method dispatch.

Exporters: :func:`write_jsonl_trace` (one JSON object per span per
line) and :func:`write_chrome_trace` (the Chrome ``chrome://tracing``
/ Perfetto trace-event format, complete-event ``"ph": "X"`` records
with microsecond timestamps relative to the tracer's epoch).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Iterable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl_trace",
]


@dataclass(slots=True)
class Span:
    """One timed event.

    Attributes:
        name: human-readable label (e.g. ``"Combine(site+regions)"``).
        category: taxonomy bucket (``op``/``ship``/``batch``/``wire``/
            ``fault``/``retry``/``step``/``sim``/``run``).
        start: seconds since the tracer's epoch (monotonic clock).
        seconds: duration.
        span_id: unique id within the tracer.
        parent_id: enclosing span's id, or ``None`` at top level.
        thread: name of the recording thread.
        attrs: JSON-able key/value details (op ids, bytes, rows, …).
    """

    name: str
    category: str
    start: float
    seconds: float
    span_id: int
    parent_id: int | None = None
    thread: str = "MainThread"
    attrs: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (the JSON-lines record)."""
        return {
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "seconds": self.seconds,
            "id": self.span_id,
            "parent": self.parent_id,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager behind :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_started",
                 "_span_id", "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs
        self._started = 0.0
        self._span_id = 0
        self._parent_id: int | None = None

    def annotate(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._started = time.perf_counter()
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        seconds = time.perf_counter() - self._started
        self._tracer._exit(self, seconds)


class _NullSpan:
    """Shared do-nothing context manager of the null tracer."""

    __slots__ = ()

    def annotate(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe span collector over a monotonic clock.

    The epoch is the tracer's construction instant
    (``time.perf_counter()``); every span's ``start`` is an offset from
    it, so traces from one process line up without wall-clock skew.
    """

    #: Producers may consult this to skip *building* expensive
    #: attributes; calling :meth:`record` is always safe either way.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._stacks = threading.local()
        self.spans: list[Span] = []

    # -- recording --------------------------------------------------------------

    def record(self, name: str, category: str, *,
               start: float | None = None, seconds: float = 0.0,
               **attrs: object) -> Span:
        """Append one span with externally measured timings.

        ``start`` is an absolute ``time.perf_counter()`` reading (the
        usual case: the caller sampled the clock itself); ``None``
        means "now minus ``seconds``".  The current thread's open
        :meth:`span` (if any) becomes the parent.
        """
        if start is None:
            start = time.perf_counter() - seconds
        parent = self._current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                name, category, start - self._epoch, seconds, span_id,
                parent_id=parent,
                thread=threading.current_thread().name,
                attrs=dict(attrs),
            )
            self.spans.append(span)
        return span

    def span(self, name: str, category: str,
             **attrs: object) -> _ActiveSpan:
        """Context manager measuring a block's wall time as one span."""
        return _ActiveSpan(self, name, category, dict(attrs))

    # -- nesting stack (per thread) ----------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _enter(self, active: _ActiveSpan) -> None:
        # The id is claimed on entry so spans recorded *inside* the
        # block nest under it; the span record itself lands on exit.
        with self._lock:
            active._span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        active._parent_id = stack[-1] if stack else None
        stack.append(active._span_id)

    def _exit(self, active: _ActiveSpan, seconds: float) -> None:
        stack = self._stack()
        if stack and stack[-1] == active._span_id:
            stack.pop()
        span = Span(
            active._name, active._category,
            active._started - self._epoch, seconds, active._span_id,
            parent_id=active._parent_id,
            thread=threading.current_thread().name,
            attrs=active._attrs,
        )
        with self._lock:
            self.spans.append(span)

    # -- queries ------------------------------------------------------------------

    def total_seconds(self, category: str | None = None) -> float:
        """Summed duration of all spans (optionally one category)."""
        with self._lock:
            return sum(
                span.seconds for span in self.spans
                if category is None or span.category == category
            )


class NullTracer(Tracer):
    """The documented no-op fast path.

    ``record`` returns immediately without touching any lock or list;
    ``span`` returns a shared no-op context manager.  ``spans`` is
    always empty.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def record(self, name: str, category: str, *,
               start: float | None = None, seconds: float = 0.0,
               **attrs: object) -> None:  # type: ignore[override]
        return None

    def span(self, name: str, category: str,
             **attrs: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN


#: Shared no-op tracer; ``tracer or NULL_TRACER`` is the idiom every
#: instrumented constructor uses.
NULL_TRACER = NullTracer()


# -- exporters -------------------------------------------------------------------


def write_jsonl_trace(tracer: Tracer | Iterable[Span],
                      stream: IO[str]) -> int:
    """Write one JSON object per span per line; returns span count."""
    spans = tracer.spans if isinstance(tracer, Tracer) else tracer
    count = 0
    for span in spans:
        stream.write(json.dumps(span.to_dict(), sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def chrome_trace_events(tracer: Tracer | Iterable[Span]
                        ) -> dict[str, object]:
    """The Chrome trace-event document for a recorded trace.

    Complete events (``"ph": "X"``) with microsecond ``ts``/``dur``
    relative to the tracer's epoch; one ``tid`` per recording thread
    (named via metadata events) so the viewer lays concurrent spans
    out on separate tracks.
    """
    spans = tracer.spans if isinstance(tracer, Tracer) else list(tracer)
    thread_ids: dict[str, int] = {}
    events: list[dict[str, object]] = []
    for span in spans:
        tid = thread_ids.setdefault(span.thread, len(thread_ids) + 1)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.seconds * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": dict(span.attrs, span_id=span.span_id),
        })
    for thread, tid in thread_ids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer | Iterable[Span],
                       stream: IO[str]) -> int:
    """Write the ``chrome://tracing``-loadable JSON document.

    Returns the number of (non-metadata) trace events written.
    """
    document = chrome_trace_events(tracer)
    json.dump(document, stream)
    return sum(
        1 for event in document["traceEvents"]  # type: ignore[union-attr]
        if event.get("ph") == "X"
    )
