"""Observability for the exchange pipeline: tracing, metrics, drift.

Three cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — structured spans with monotonic clocks and
  thread-safe collection, exported as JSON-lines or Chrome
  ``chrome://tracing`` trace-event files.  :data:`~repro.obs.trace.
  NULL_TRACER` is the documented no-op fast path: every producer calls
  it unconditionally and pays one attribute lookup plus an early
  return when tracing is off.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms (plus the :class:`~repro.obs.metrics.Timer`
  context manager); a program run's metrics are read from its
  :class:`~repro.core.program.executor.ExecutionReport` once the run
  has finished.
* :mod:`repro.obs.drift` — joins an executed program's
  :class:`~repro.core.program.executor.ExecutionReport` against the
  optimizer's predicted ``comp_cost``/``comm_cost`` and reports
  per-op-kind drift ratios (what :mod:`repro.adapt` learns from).

``drift`` imports the core program machinery, which itself imports
``repro.obs.trace``; the lazy ``__getattr__`` below keeps that cycle
out of package import time.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl_trace",
    # lazily resolved from repro.obs.drift (import-cycle guard):
    "DriftReport",
    "EdgeDrift",
    "OpDrift",
    "cost_drift_report",
]

_DRIFT_NAMES = {
    "DriftReport",
    "EdgeDrift",
    "OpDrift",
    "cost_drift_report",
}


def __getattr__(name: str):
    if name in _DRIFT_NAMES:
        from repro.obs import drift

        return getattr(drift, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
