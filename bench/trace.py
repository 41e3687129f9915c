"""In-memory spans for the traced (``--trace 1``) run.

One span per layer-boundary call: name, start, end, the span that
caused it, and the exchange it belongs to.  Spans stay in memory until
the workload ends; :meth:`Tracer.dump` then writes them as JSON lines.
A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover.

End-to-end metrics are never read from here — tracing costs time, and
``bench.trace_overhead_frac`` says how much.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    exchange: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting is per thread.

    A span opened on a thread with no open span becomes a child of the
    root span of that thread's current exchange (:meth:`enter_exchange`)
    — which is how the spans a broker worker thread produces attach to
    the session the client thread is timing.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: dict[int, int] = {}

    def enter_exchange(self, exchange: int | None) -> None:
        """Declare which exchange this thread works on from now on
        (spans a failed exchange left open on it are dropped)."""
        self._local.exchange = exchange
        self._stack().clear()

    def begin(self, name: str, root: bool = False) -> Span:
        """Open a span on this thread; pair with :meth:`finish`."""
        stack = self._stack()
        exchange = getattr(self._local, "exchange", None)
        with self._lock:
            if stack:
                parent = stack[-1].id
            elif root:
                parent = None
            else:
                parent = self._roots.get(exchange)
            span = Span(len(self.spans), parent, name, exchange,
                        time.perf_counter())
            self.spans.append(span)
            if root and exchange is not None:
                self._roots[exchange] = span.id
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span`` (and anything left open inside it)."""
        span.end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[Span]:
        span = self.begin(name, root)
        try:
            yield span
        finally:
            self.finish(span)

    # -- analysis ------------------------------------------------------------------

    def self_seconds(self, exchange: int) -> dict[str, float]:
        """Self time per span name over one exchange's spans."""
        mine = [span for span in self.spans if span.exchange == exchange]
        children: dict[int, list[Span]] = {}
        for span in mine:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in mine:
            covered = _covered(span, children.get(span.id, ()))
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.seconds - covered
            )
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(asdict(span)) + "\n")


def _covered(span: Span, children) -> float:
    """Length of the part of ``span`` its children cover (the union of
    their intervals, clipped to the span — children on other threads
    may overlap each other)."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered
