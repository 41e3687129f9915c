"""Learned drift ratios, keyed by endpoint pair and op kind.

The store keeps one quantity: the per-kind measured/predicted ratio of
:meth:`~repro.obs.drift.DriftReport.kind_ratios` — keyed by
:func:`~repro.core.cost.calibrate.strategy_key` (bare kinds for the
row adapter, ``combine.aligned`` etc. for the columnar dataplane) plus
the ``"comm"`` pseudo-kind — under one ``"source->target"`` pair key.
Finished exchanges feed it through :meth:`StatisticsStore.
observe_run` (a finished run's report, priced against its probe);
:meth:`StatisticsStore.scaled_probe` turns it into a
:class:`ScaledProbe` correction of *any* probe, which is what
negotiation prices with.  Fitting seconds per work unit is
:func:`~repro.core.cost.calibrate.calibrate`.

Ratios are EWMA-smoothed (``alpha``) with per-key observation counts.
The store is thread-safe and round-trips through JSON
(:meth:`StatisticsStore.save` / :meth:`StatisticsStore.load`).
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


def pair_key(source_name: str, target_name: str) -> str:
    """Canonical store key for one exchange direction."""
    return f"{source_name}->{target_name}"


def _geometric_mean(values: list[float]) -> float:
    finite = [value for value in values
              if value > 0 and math.isfinite(value)]
    if not finite:
        return 1.0
    return math.exp(sum(math.log(value) for value in finite)
                    / len(finite))


class ScaledProbe:
    """A probe whose answers are corrected by observed drift ratios.

    ``kind_scales`` maps :func:`~repro.core.cost.calibrate.
    strategy_key` keys (``"combine"``, ``"combine.hash"``, …) to the
    measured/predicted ratio of that kind; ``comm_scale`` corrects
    ``comm_cost``.  Kinds without evidence — and communication, when
    ``comm_scale`` is ``None`` — are scaled by the geometric mean of
    everything observed, so a uniformly slow substrate does not
    distort the computation/communication balance the optimizer
    trades on.
    """

    def __init__(self, base: CostProbe,
                 kind_scales: dict[str, float],
                 comm_scale: float | None = None) -> None:
        self.base = base
        self.kind_scales = {
            key: value for key, value in kind_scales.items()
            if value > 0 and math.isfinite(value)
        }
        observed = list(self.kind_scales.values())
        if comm_scale is not None and comm_scale > 0:
            observed.append(comm_scale)
        self.neutral = _geometric_mean(observed)
        self.comm_scale = (
            comm_scale if comm_scale is not None and comm_scale > 0
            else self.neutral
        )

    def scale_for(self, op: Operation) -> float:
        """The correction factor for ``op``'s kind (any observed
        strategy variant of the kind matches; unobserved kinds get
        the neutral scale)."""
        prefix = f"{op.kind}."
        best = None
        for key, value in self.kind_scales.items():
            if key == op.kind:
                return value
            if key.startswith(prefix) and best is None:
                best = value
        return best if best is not None else self.neutral

    def comp_cost(self, op: Operation, location: Location) -> float:
        return self.base.comp_cost(op, location) * self.scale_for(op)

    def comm_cost(self, fragment: Fragment) -> float:
        return self.base.comm_cost(fragment) * self.comm_scale


@dataclass(slots=True)
class ScaleEstimate:
    """One EWMA-smoothed per-key estimate with its evidence count."""

    value: float
    observations: int = 1

    def update(self, observed: float, alpha: float,
               weight: int = 1) -> None:
        """Fold one observation in (EWMA with smoothing ``alpha``)."""
        self.value = (1.0 - alpha) * self.value + alpha * observed
        self.observations += max(1, weight)


class StatisticsStore:
    """Thread-safe learned drift ratios for negotiation.

    ``alpha`` is the EWMA smoothing factor (1.0 = keep only the latest
    observation).  Mutations mirror into ``metrics`` as
    ``adapt.stats.*`` counters when a registry is supplied.
    """

    def __init__(self, *, alpha: float = 0.3,
                 metrics: MetricsRegistry | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
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

    # -- ingestion -------------------------------------------------------------

    def observe_ratios(self, pair: str,
                       ratios: dict[str, float]) -> None:
        """Ingest per-kind measured/predicted ratios (non-positive
        ones are skipped)."""
        merged = 0
        with self._lock:
            table = self._ratios.setdefault(pair, {})
            for key, value in ratios.items():
                if value <= 0:
                    continue
                entry = table.get(key)
                if entry is None:
                    table[key] = ScaleEstimate(value)
                else:
                    entry.update(value, self.alpha)
                merged += 1
            self.ingests += 1
        self._count("drifts")
        self._count("ratio_updates", merged)

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

    def observations(self, pair: str, key: str) -> int:
        """Evidence count behind one key."""
        with self._lock:
            entry = self._ratios.get(pair, {}).get(key)
        return entry.observations if entry else 0

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
                "alpha": self.alpha,
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
        """Rebuild a store serialized by :meth:`to_dict`.  The
        ``scales`` table (a seconds-per-unit view) and the ``warmup``
        count older stores also wrote are ignored.

        Raises:
            ValueError: naming the first field of the wrong shape.
        """
        if not isinstance(data, dict):
            raise ValueError(
                "a statistics store must be a JSON object, got "
                f"{type(data).__name__}"
            )

        def field(name: str, convert: type, default: object) -> object:
            value = data.get(name, default)
            try:
                return convert(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"statistics store field {name!r} is malformed: "
                    f"{value!r}"
                ) from None

        store = cls(
            alpha=field("alpha", float, 0.3),  # type: ignore[arg-type]
            metrics=metrics,
        )
        store.ingests = field("ingests", int, 0)  # type: ignore[assignment]
        table = data.get("ratios") or {}
        try:
            for pair, entries in table.items():
                store._ratios[pair] = {
                    key: ScaleEstimate(float(value), int(count))
                    for key, (value, count) in entries.items()
                }
        except (AttributeError, TypeError, ValueError):
            raise ValueError(
                "statistics store field 'ratios' is malformed: "
                "expected {pair: {key: [value, observations]}}"
            ) from None
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
