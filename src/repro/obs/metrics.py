"""Metrics: counters, gauges, fixed-bucket histograms, one registry.

A program run's metrics are a read of its
:class:`~repro.core.program.executor.ExecutionReport`, taken once when
the run has finished (:func:`observe_report`); the service tier counts
its own events (sessions, plan-cache hits, server frames).  Metric
names are dotted lowercase (``op.combine.seconds``, ``ship.bytes``,
``retry.resends``); the full catalogue lives in
``docs/observability.md``.

All instruments are thread-safe.  A :class:`MetricsRegistry` is
get-or-create by name: asking twice returns the same instrument,
asking for the same name with a different instrument type raises.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program.executor import (
        ExecutionReport,
        OperationTiming,
    )

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "SECONDS_BUCKETS",
    "observe_report",
]

#: Every histogram's bucket bounds (every histogram holds seconds):
#: 10 µs … 100 s in 1-2-5 steps — wide enough for a scan batch and a
#: whole run alike.
SECONDS_BUCKETS: tuple[float, ...] = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be >= 0).

        Raises:
            ValueError: on a negative amount (counters never go down).
        """
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def snapshot(self) -> dict[str, object]:
        """Plain-dict form for reports."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A level that moves both ways, with a high-water mark.

    A queue depth is the motivating use: ``add(+1)`` on submit,
    ``add(-1)`` on completion, and ``peak`` answers "how deep did the
    queue ever get".
    """

    __slots__ = ("name", "_lock", "_value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Set the level outright."""
        with self._lock:
            self._value = value
            if value > self.peak:
                self.peak = value

    def add(self, delta: float) -> None:
        """Move the level by ``delta`` (either sign)."""
        with self._lock:
            self._value += delta
            if self._value > self.peak:
                self.peak = self._value

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def snapshot(self) -> dict[str, object]:
        """Plain-dict form for reports."""
        return {"type": "gauge", "value": self._value,
                "peak": self.peak}


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    :data:`SECONDS_BUCKETS` are the inclusive upper edges of the first
    buckets; one overflow bucket catches the rest (fixed buckets by
    design: merging and comparing across runs needs stable edges).
    """

    __slots__ = ("name", "_lock", "counts", "total", "count", "min",
                 "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.counts = [0] * (len(SECONDS_BUCKETS) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(SECONDS_BUCKETS, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def snapshot(self) -> dict[str, object]:
        """Plain-dict form for reports."""
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                str(bound): count
                for bound, count in zip(SECONDS_BUCKETS, self.counts)
                if count
            },
            "overflow": self.counts[-1],
        }


class MetricsRegistry:
    """Named instruments, get-or-create, one namespace per run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[
            str, Counter | Gauge | Histogram
        ] = {}

    def _get(self, name: str, kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(name)
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a "
                    f"{kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Name → plain-dict state of every instrument."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: instrument.snapshot()
                for name, instrument in sorted(items)}

    def render(self) -> str:
        """Aligned text table of the registry (for CLI ``--metrics``)."""
        lines = [f"{'metric':<36} {'kind':<10} value"]
        for name, state in self.snapshot().items():
            kind = state["type"]
            if kind == "counter":
                detail = f"{state['value']}"
            elif kind == "gauge":
                detail = (f"{state['value']:g} "
                          f"(peak {state['peak']:g})")
            else:
                detail = (f"n={state['count']} sum={state['sum']:.6g} "
                          f"min={state['min']:.3g} "
                          f"max={state['max']:.3g}")
            lines.append(f"{name:<36} {kind:<10} {detail}")
        return "\n".join(lines)


def observe_report(registry: MetricsRegistry | None,
                   report: "ExecutionReport") -> None:
    """Record one finished program run, read from its report.

    Per executed operation: ``op.<kind>.count``/``.rows`` and its
    seconds in ``op.<kind>.seconds``.  Per join a Combine ran:
    ``join.build_rows``/``join.probe_rows`` accumulate the side sizes,
    ``join.build_seconds``/``join.probe_seconds`` observe the join's
    own time in each phase, ``join.hash_table_rows`` counts the
    entries of the dicts built for batches that did not line up, and
    ``join.strategy.<strategy>`` counts the joins that ran each
    strategy (``aligned``/``hash``).  Per shipment — one cross-edge —
    its seconds in ``ship.seconds``; ``ship.messages`` counts the
    messages of every edge and ``ship.bytes`` their bytes.  ``None``
    registry records nothing.
    """
    if registry is None:
        return
    by_kind: dict[str, list[OperationTiming]] = {}
    for timing in report.op_timings:
        by_kind.setdefault(timing.kind, []).append(timing)
    for kind, timings in by_kind.items():
        registry.counter(f"op.{kind}.count").add(len(timings))
        registry.counter(f"op.{kind}.rows").add(
            sum(timing.rows for timing in timings)
        )
        histogram = registry.histogram(f"op.{kind}.seconds")
        for timing in timings:
            histogram.observe(timing.seconds)
    joins = [timing.join for timing in report.op_timings
             if timing.join is not None]
    if joins:
        for field in ("build_rows", "probe_rows", "hash_table_rows"):
            registry.counter(f"join.{field}").add(
                sum(getattr(join, field) for join in joins)
            )
        for field in ("build_seconds", "probe_seconds"):
            histogram = registry.histogram(f"join.{field}")
            for join in joins:
                histogram.observe(getattr(join, field))
        for strategy in {join.strategy for join in joins}:
            registry.counter(f"join.strategy.{strategy}").add(
                sum(join.strategy == strategy for join in joins)
            )
    registry.counter("ship.messages").add(
        sum(report.shipment_batches.values())
    )
    registry.counter("ship.bytes").add(report.comm_bytes)
    histogram = registry.histogram("ship.seconds")
    for seconds in report.shipment_seconds.values():
        histogram.observe(seconds)


class Timer:
    """Measure a block's elapsed time::

        with Timer() as timer:
            work()
        print(timer.seconds)
    """

    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started
