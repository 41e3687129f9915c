"""Learned drift ratios, keyed by endpoint pair and op kind.

The store keeps one quantity: the measured/predicted ratio of
:meth:`~repro.obs.drift.DriftReport.kind_ratios`, one per operation
kind the optimizer prices (``scan``, ``combine``, ``split``,
``write``) plus the ``"comm"`` pseudo-kind, under one
``"source->target"`` pair key.  How an operation ran (a Combine's
``aligned`` or ``hash`` join) is a label on its timing, not a key:
the input decides it at run time, and the cost model prices one
number per kind.  Finished exchanges feed the store through
:meth:`StatisticsStore.observe_run` (a finished run's report, priced
against its probe); :meth:`StatisticsStore.scaled_probe` turns it
into a :class:`ScaledProbe` correction of *any* probe, which is what
negotiation prices with.

Ratios are EWMA-smoothed (:data:`ALPHA`) with per-key observation
counts.  A ratio enters a table only through one check, whether it is
observed or loaded: its key must be in :data:`KEYS` and its value
finite and positive.  Anything else is dropped and counted in
``adapt.stats.dropped_keys``, never priced, so a key no run can
produce any more (``combine.merge``, ``scan.columnar``) cannot shadow
what later runs observe.  The store is thread-safe and round-trips
through JSON (:meth:`StatisticsStore.save` /
:meth:`StatisticsStore.load`).
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

from repro.core.cost.probe import CostProbe
from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import ExecutionReport
from repro.obs.drift import DriftReport, cost_drift_report
from repro.obs.metrics import MetricsRegistry


#: Every key a ratio table may hold: the kinds the optimizer prices,
#: plus the ``"comm"`` pseudo-kind for cross-edge shipments.
KEYS = frozenset({"scan", "combine", "split", "write", "comm"})

#: EWMA smoothing factor: the weight of each new observation.
ALPHA = 0.3


def pair_key(source_name: str, target_name: str) -> str:
    """Canonical store key for one exchange direction."""
    return f"{source_name}->{target_name}"


def _geometric_mean(values: list[float]) -> float:
    if not values:
        return 1.0
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


class ScaledProbe:
    """A probe whose answers are corrected by observed drift ratios.

    ``kind_scales`` maps operation kinds (``"scan"``, ``"combine"``,
    …) to the measured/predicted ratio of that kind; ``comm_scale``
    corrects ``comm_cost``.  Kinds without evidence — and
    communication, when ``comm_scale`` is ``None`` — are scaled by the
    geometric mean of everything observed, so a uniformly slow
    substrate does not distort the computation/communication balance
    the optimizer trades on.  Every scale must be finite and positive:
    :meth:`StatisticsStore.scaled_probe` only hands over ratios that
    passed the store's check.
    """

    def __init__(self, base: CostProbe,
                 kind_scales: dict[str, float],
                 comm_scale: float | None = None) -> None:
        self.base = base
        self.kind_scales = kind_scales
        observed = list(kind_scales.values())
        if comm_scale is not None:
            observed.append(comm_scale)
        self.neutral = _geometric_mean(observed)
        self.comm_scale = (
            self.neutral if comm_scale is None else comm_scale
        )

    def scale_for(self, op: Operation) -> float:
        """The correction factor for ``op``'s kind (unobserved kinds
        get the neutral scale)."""
        return self.kind_scales.get(op.kind, self.neutral)

    def comp_cost(self, op: Operation, location: Location) -> float:
        return self.base.comp_cost(op, location) * self.scale_for(op)

    def comm_cost(self, fragment: Fragment) -> float:
        return self.base.comm_cost(fragment) * self.comm_scale


@dataclass(slots=True)
class ScaleEstimate:
    """One EWMA-smoothed per-key estimate with its evidence count."""

    value: float
    observations: int = 1

    def update(self, observed: float) -> None:
        """Fold one observation in (EWMA with smoothing
        :data:`ALPHA`)."""
        self.value = (1.0 - ALPHA) * self.value + ALPHA * observed
        self.observations += 1


class StatisticsStore:
    """Thread-safe learned drift ratios for negotiation.

    Mutations mirror into ``metrics`` as ``adapt.stats.*`` counters
    when a registry is supplied.
    """

    def __init__(self, *,
                 metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics
        self.ingests = 0
        self._ratios: dict[str, dict[str, ScaleEstimate]] = {}
        self._lock = threading.RLock()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"adapt.stats.{name}").add(amount)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ratios)

    @staticmethod
    def _enter(table: dict[str, ScaleEstimate], key: str,
               value: float, observations: int = 1) -> bool:
        """The one way into a ratio table: fold ``value`` into
        ``table[key]`` if ``key`` is in :data:`KEYS` and ``value`` is
        finite and positive.  Returns whether it was admitted; the
        caller counts what was not."""
        if key not in KEYS or not (math.isfinite(value) and value > 0):
            return False
        entry = table.get(key)
        if entry is None:
            table[key] = ScaleEstimate(value, observations)
        else:
            entry.update(value)
        return True

    # -- ingestion -------------------------------------------------------------

    def observe_ratios(self, pair: str,
                       ratios: dict[str, float]) -> None:
        """Ingest per-kind measured/predicted ratios (see
        :meth:`_enter` for what is dropped)."""
        merged = 0
        with self._lock:
            table = self._ratios.setdefault(pair, {})
            for key, value in ratios.items():
                merged += self._enter(table, key, value)
            self.ingests += 1
        self._count("drifts")
        self._count("ratio_updates", merged)
        if merged < len(ratios):
            self._count("dropped_keys", len(ratios) - merged)

    def observe_drift(self, pair: str, report: DriftReport) -> None:
        """Ingest one drift report's per-kind ratios (including the
        ``"comm"`` pseudo-kind)."""
        self.observe_ratios(pair, report.kind_ratios())

    def observe_run(self, pair: str, program: TransferProgram,
                    placement: Placement, report: ExecutionReport,
                    probe: CostProbe) -> None:
        """Ingest one finished run: its report's drift against the
        ``probe`` that priced it (:func:`~repro.obs.drift.
        cost_drift_report`).  The broker calls this after every
        session, ``repro exchange --stats-store`` after a direct run."""
        self.observe_drift(
            pair, cost_drift_report(program, placement, report, probe)
        )

    # -- the learned view ------------------------------------------------------

    def ratios(self, pair: str) -> dict[str, float]:
        """Smoothed per-key measured/predicted drift ratios."""
        with self._lock:
            return {
                key: entry.value
                for key, entry in self._ratios.get(pair, {}).items()
            }

    def scaled_probe(self, pair: str,
                     probe: CostProbe) -> CostProbe:
        """Correct ``probe`` by the learned drift ratios.

        Works for *any* probe (live endpoint probes included): each
        kind's comp cost is multiplied by its smoothed
        measured/predicted ratio, communication by the ``"comm"``
        ratio, unobserved kinds by the geometric mean of the rest.
        Returns ``probe`` unchanged when the pair has no ratio
        evidence — callers can pass the result straight to the
        optimizers either way.
        """
        ratios = self.ratios(pair)
        if not ratios:
            return probe
        comm_scale = ratios.pop("comm", None)
        return ScaledProbe(probe, ratios, comm_scale)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Full JSON-able state (see :meth:`from_dict`)."""
        with self._lock:
            return {
                "ingests": self.ingests,
                "ratios": {
                    pair: {
                        key: [entry.value, entry.observations]
                        for key, entry in table.items()
                    }
                    for pair, table in self._ratios.items()
                },
            }

    @classmethod
    def from_dict(cls, data: dict[str, object], *,
                  metrics: MetricsRegistry | None = None
                  ) -> "StatisticsStore":
        """Rebuild a store serialized by :meth:`to_dict`.  Each
        ``[value, observations]`` entry goes through the same check as
        an observed ratio: a key outside :data:`KEYS` or a value that
        is not finite and positive is dropped and counted.  The
        ``alpha``, ``warmup`` and ``scales`` fields older stores also
        wrote are ignored.

        Raises:
            ValueError: naming the first field of the wrong shape.
        """
        if not isinstance(data, dict):
            raise ValueError(
                "a statistics store must be a JSON object, got "
                f"{type(data).__name__}"
            )
        store = cls(metrics=metrics)
        ingests = data.get("ingests", 0)
        try:
            store.ingests = int(ingests)  # type: ignore[arg-type]
        except (OverflowError, TypeError, ValueError):
            raise ValueError(
                "statistics store field 'ingests' is malformed: "
                f"{ingests!r}"
            ) from None
        table = data.get("ratios") or {}
        dropped = 0
        try:
            for pair, entries in table.items():
                ratios = store._ratios[pair] = {}
                for key, (value, count) in entries.items():
                    if not store._enter(ratios, key, float(value),
                                        int(count)):
                        dropped += 1
        except (AttributeError, OverflowError, TypeError, ValueError):
            raise ValueError(
                "statistics store field 'ratios' is malformed: "
                "expected {pair: {key: [value, observations]}}"
            ) from None
        if dropped:
            store._count("dropped_keys", dropped)
        return store

    def save(self, path: str | os.PathLike) -> None:
        """Persist the store as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str | os.PathLike, *,
             metrics: MetricsRegistry | None = None
             ) -> "StatisticsStore":
        """Load a store persisted by :meth:`save`.

        Raises:
            OSError: if the file cannot be read.
            ValueError: if it is not valid JSON or not a store's shape.
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"stats store file {path} is not valid JSON: {exc}"
                ) from exc
        return cls.from_dict(data, metrics=metrics)
