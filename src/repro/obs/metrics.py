"""Metrics: counters, gauges, fixed-bucket histograms, one registry.

This replaces the ad-hoc accounting that used to be scattered across
the pipeline — the executor feeds per-op-kind rows/bytes/seconds
histograms and the fault layer counts retries and discarded
duplicates.  Metric names are
dotted lowercase (``op.combine.seconds``, ``ship.bytes``,
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
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "SECONDS_BUCKETS",
    "SIZE_BUCKETS",
    "observe_join",
    "observe_operation",
    "observe_shipment",
]

#: Default histogram bounds for durations (seconds): 10 µs … 100 s in
#: 1-2-5 steps — wide enough for a scan batch and a whole run alike.
SECONDS_BUCKETS: tuple[float, ...] = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0,
)

#: Default bounds for sizes/counts (rows, bytes): powers of four.
SIZE_BUCKETS: tuple[float, ...] = tuple(
    4.0 ** exponent for exponent in range(0, 16)
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

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches the rest.
    Bucket layout is frozen at construction (fixed-bucket by design:
    merging and comparing across runs needs stable edges).
    """

    __slots__ = ("name", "bounds", "_lock", "counts", "total", "count",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = SECONDS_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram {name!r} needs ascending bucket bounds"
            )
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self._lock = threading.Lock()
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.bounds, value)
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
                for bound, count in zip(self.bounds, self.counts)
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

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a "
                    f"{kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  bounds: Sequence[float] = SECONDS_BUCKETS
                  ) -> Histogram:
        """The histogram called ``name`` (created on first use;
        ``bounds`` only applies at creation)."""
        return self._get(
            name, Histogram, lambda: Histogram(name, bounds)
        )

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


def observe_operation(registry: MetricsRegistry | None, kind: str,
                      seconds: float, rows: int) -> None:
    """Record one executed operation into the standard op metrics
    (``op.<kind>.count``/``.rows``/``.seconds``).  ``None`` registry
    is the no-op fast path."""
    if registry is None:
        return
    registry.counter(f"op.{kind}.count").add(1)
    registry.counter(f"op.{kind}.rows").add(rows)
    registry.histogram(f"op.{kind}.seconds").observe(seconds)


def observe_join(registry: MetricsRegistry | None, strategy: str,
                 build_rows: int, probe_rows: int,
                 build_seconds: float = 0.0,
                 probe_seconds: float = 0.0,
                 hash_table_rows: int = 0) -> None:
    """Record one columnar combine's build/probe statistics into the
    join metrics: ``join.build_rows``/``join.probe_rows`` accumulate
    the side sizes, ``join.build_seconds``/``join.probe_seconds`` the
    join's own time in each phase (one observation per join),
    ``join.hash_table_rows`` the entries of the dicts built for
    batches that did not line up, and ``join.strategy.<strategy>``
    counts the joins that ran each strategy (``aligned``/``hash``)."""
    if registry is None:
        return
    registry.counter("join.build_rows").add(build_rows)
    registry.counter("join.probe_rows").add(probe_rows)
    registry.histogram("join.build_seconds").observe(build_seconds)
    registry.histogram("join.probe_seconds").observe(probe_seconds)
    registry.counter("join.hash_table_rows").add(hash_table_rows)
    registry.counter(f"join.strategy.{strategy}").add(1)


def observe_shipment(registry: MetricsRegistry | None,
                     bytes_sent: int, seconds: float,
                     batch: bool = False) -> None:
    """Record one cross-edge transfer into the standard ship metrics
    (``ship.messages``/``.bytes``/``.seconds`` plus
    ``ship.batch_bytes`` for streamed chunks)."""
    if registry is None:
        return
    registry.counter("ship.messages").add(1)
    registry.counter("ship.bytes").add(bytes_sent)
    registry.histogram("ship.seconds").observe(seconds)
    if batch:
        registry.histogram(
            "ship.batch_bytes", SIZE_BUCKETS
        ).observe(bytes_sent)


class Timer:
    """Measure a block's elapsed time::

        with Timer() as timer:
            work()
        print(timer.seconds)

    Optionally bind a registry: each exit observes the elapsed seconds
    into the named histogram, so ad-hoc timers feed the same metric
    namespace as the executor.
    """

    __slots__ = ("seconds", "_started", "_histogram")

    def __init__(self, registry: MetricsRegistry | None = None,
                 metric: str = "timer.seconds") -> None:
        self.seconds = 0.0
        self._started = 0.0
        self._histogram = (
            registry.histogram(metric) if registry is not None else None
        )

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started
        if self._histogram is not None:
            self._histogram.observe(self.seconds)
