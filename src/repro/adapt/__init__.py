"""Adaptive execution: learned drift ratios and mid-flight suffix
re-placement.

The paper's negotiation prices plans with probe costs measured once; a
plan negotiated against stale or mis-probed costs stays wrong for its
whole lifetime.  This package closes the loop with one quantity — the
per-kind measured/predicted ratio of
:func:`~repro.obs.drift.cost_drift_report`, priced against the
probe's ``comp_cost(op, location)`` / ``comm_cost(fragment)`` — in two
layers:

* :mod:`repro.adapt.stats` — a thread-safe, JSON-persistable
  :class:`~repro.adapt.stats.StatisticsStore` of EWMA-smoothed ratios
  per (endpoint pair, op kind, strategy).  The broker and the adaptive
  executor feed it after every run; negotiation prices with its
  :meth:`~repro.adapt.stats.StatisticsStore.scaled_probe`.
* :mod:`repro.adapt.executor` — an
  :class:`~repro.adapt.executor.AdaptiveRun` wrapper over the
  executor that checkpoints the ratios mid-exchange and, when they
  diverge, re-places the not-yet-started DAG suffix with Algorithm 1
  and the executed prefix pinned.
"""

from repro.adapt.executor import AdaptiveConfig, AdaptiveRun
from repro.adapt.replan import ScaledProbe
from repro.adapt.stats import ScaleEstimate, StatisticsStore, pair_key

__all__ = [
    "AdaptiveConfig",
    "AdaptiveRun",
    "ScaledProbe",
    "ScaleEstimate",
    "StatisticsStore",
    "pair_key",
]
