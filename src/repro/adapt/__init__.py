"""Learned cost drift: negotiation priced by what past runs measured.

The paper's negotiation prices plans with probe costs measured once; a
plan negotiated against stale or mis-probed costs stays wrong until
someone re-probes.  This package closes that loop between runs, with
one quantity — the per-kind measured/predicted ratio of
:func:`~repro.obs.drift.cost_drift_report`, priced against the
probe's ``comp_cost(op, location)`` / ``comm_cost(fragment)``:
:class:`~repro.adapt.stats.StatisticsStore` keeps those ratios
EWMA-smoothed per (endpoint pair, op kind), every finished exchange
feeds it (:meth:`~repro.adapt.stats.StatisticsStore.
observe_run`), and the next negotiation prices with its
:meth:`~repro.adapt.stats.StatisticsStore.scaled_probe`.  A key no
run can produce, observed or loaded, is dropped on entry and never
priced.  A placement, once negotiated, runs as placed.
"""

from repro.adapt.stats import (
    ScaledProbe,
    ScaleEstimate,
    StatisticsStore,
    pair_key,
)

__all__ = [
    "ScaledProbe",
    "ScaleEstimate",
    "StatisticsStore",
    "pair_key",
]
