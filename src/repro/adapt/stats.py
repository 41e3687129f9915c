"""Learned execution statistics, keyed by endpoint pair and op kind.

The store accumulates two complementary views of every executed
exchange, both keyed by :func:`~repro.core.cost.calibrate.strategy_key`
(bare kinds for the row dataplane, ``combine.hash`` etc. for the
others) under one ``"source->target"`` pair key:

* **seconds-per-work-unit scales** — what
  :func:`~repro.core.cost.calibrate.calibrate_timings` /
  :func:`~repro.obs.drift.calibration_from_trace` fit.  These feed
  :meth:`StatisticsStore.calibration` / :meth:`StatisticsStore.
  cost_model`, so negotiation can price in predicted seconds for this
  substrate.
* **measured/predicted drift ratios** — what
  :meth:`~repro.obs.drift.DriftReport.kind_ratios` reports against the
  probe actually used (including the ``"comm"`` pseudo-kind).  These
  feed :meth:`StatisticsStore.scaled_probe`, which corrects *any*
  probe multiplicatively — the form the background re-optimizer and
  the adaptive executor consume.

Both views are EWMA-smoothed (``alpha``) with per-key observation
counts; :meth:`confidence` rises from 0 toward 1 as observations
accumulate (``n / (n + warmup)``).  The store is thread-safe and
round-trips through JSON (:meth:`save` / :meth:`load`).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.cost.calibrate import Calibration, calibrate_timings
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostWeights, MachineProfile
from repro.core.cost.probe import CostProbe
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cost.calibrate import CalibratedCostModel
    from repro.core.program.dag import TransferProgram
    from repro.core.program.executor import OperationTiming
    from repro.obs.drift import DriftReport
    from repro.adapt.replan import ScaledProbe


def pair_key(source_name: str, target_name: str) -> str:
    """Canonical store key for one exchange direction."""
    return f"{source_name}->{target_name}"


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
    """Thread-safe learned-statistics store for adaptive negotiation.

    ``alpha`` is the EWMA smoothing factor (1.0 = keep only the latest
    observation); ``warmup`` sets how many observations it takes for
    :meth:`confidence` to reach 0.5.  Mutations mirror into
    ``metrics`` as ``adapt.stats.*`` counters when a registry is
    supplied.
    """

    def __init__(self, *, alpha: float = 0.3, warmup: int = 3,
                 metrics: MetricsRegistry | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.alpha = alpha
        self.warmup = warmup
        self.metrics = metrics
        self.ingests = 0
        self._scales: dict[str, dict[str, ScaleEstimate]] = {}
        self._ratios: dict[str, dict[str, ScaleEstimate]] = {}
        self._lock = threading.RLock()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"adapt.stats.{name}").add(amount)

    def __len__(self) -> int:
        with self._lock:
            return len(self._scales.keys() | self._ratios.keys())

    def pairs(self) -> list[str]:
        """Pair keys with any learned state, sorted."""
        with self._lock:
            return sorted(self._scales.keys() | self._ratios.keys())

    # -- ingestion -------------------------------------------------------------

    @staticmethod
    def _merge(table: dict[str, ScaleEstimate],
               updates: dict[str, float], alpha: float,
               samples: dict[str, int] | None = None) -> int:
        merged = 0
        for key, value in updates.items():
            if value <= 0:
                continue
            weight = (samples or {}).get(key, 1)
            entry = table.get(key)
            if entry is None:
                table[key] = ScaleEstimate(value, max(1, weight))
            else:
                entry.update(value, alpha, weight)
            merged += 1
        return merged

    def observe_calibration(self, pair: str,
                            calibration: Calibration) -> None:
        """Ingest one fitted calibration (seconds-per-unit scales)."""
        with self._lock:
            table = self._scales.setdefault(pair, {})
            merged = self._merge(
                table, calibration.seconds_per_unit, self.alpha,
                calibration.samples,
            )
            self.ingests += 1
        self._count("calibrations")
        self._count("scale_updates", merged)

    def observe_ratios(self, pair: str,
                       ratios: dict[str, float]) -> None:
        """Ingest per-kind measured/predicted ratios directly (what
        an adaptive run accumulates in flight)."""
        with self._lock:
            table = self._ratios.setdefault(pair, {})
            merged = self._merge(table, ratios, self.alpha)
            self.ingests += 1
        self._count("drifts")
        self._count("ratio_updates", merged)

    def observe_drift(self, pair: str, report: "DriftReport") -> None:
        """Ingest one drift report's per-kind measured/predicted
        ratios (including the ``"comm"`` pseudo-kind)."""
        self.observe_ratios(pair, report.kind_ratios())

    def observe_timings(self, pair: str, program: "TransferProgram",
                        timings: "Iterable[OperationTiming]",
                        statistics: StatisticsCatalog) -> Calibration:
        """Fit a calibration from raw per-op timings and ingest it."""
        calibration = calibrate_timings(program, timings, statistics)
        self.observe_calibration(pair, calibration)
        return calibration

    def observe_exchange(self, pair: str, program: "TransferProgram",
                         placement, report, probe: CostProbe,
                         statistics: StatisticsCatalog | None = None
                         ) -> "DriftReport":
        """The one-call post-exchange hook: joins ``report`` against
        ``probe`` (see :func:`~repro.obs.drift.cost_drift_report`),
        ingests the drift ratios, and — when ``statistics`` are
        supplied — the fitted seconds-per-unit scales too.  Returns
        the drift report so callers can act on it."""
        from repro.obs.drift import cost_drift_report

        drift = cost_drift_report(program, placement, report, probe)
        self.observe_drift(pair, drift)
        if statistics is not None:
            self.observe_timings(
                pair, program, report.op_timings, statistics
            )
        return drift

    # -- learned views ---------------------------------------------------------

    def seconds_per_unit(self, pair: str) -> dict[str, float]:
        """Smoothed per-key seconds-per-work-unit scales (empty when
        the pair has no calibration evidence)."""
        with self._lock:
            return {
                key: entry.value
                for key, entry in self._scales.get(pair, {}).items()
            }

    def ratios(self, pair: str) -> dict[str, float]:
        """Smoothed per-key measured/predicted drift ratios."""
        with self._lock:
            return {
                key: entry.value
                for key, entry in self._ratios.get(pair, {}).items()
            }

    def observations(self, pair: str, key: str) -> int:
        """Evidence count behind one key (scales and ratios summed)."""
        with self._lock:
            scale = self._scales.get(pair, {}).get(key)
            ratio = self._ratios.get(pair, {}).get(key)
        return ((scale.observations if scale else 0)
                + (ratio.observations if ratio else 0))

    def confidence(self, pair: str, key: str) -> float:
        """How much to trust the learned value for ``key``:
        ``n / (n + warmup)`` over the evidence count — 0.0 with no
        observations, 0.5 at ``warmup``, asymptotically 1.0."""
        count = self.observations(pair, key)
        return count / (count + self.warmup)

    def calibration(self, pair: str,
                    statistics: StatisticsCatalog
                    ) -> Calibration | None:
        """The learned scales as a :class:`~repro.core.cost.calibrate.
        Calibration` (``None`` when the pair has no evidence)."""
        with self._lock:
            table = self._scales.get(pair)
            if not table:
                return None
            return Calibration(
                statistics,
                {key: entry.value for key, entry in table.items()},
                {key: entry.observations
                 for key, entry in table.items()},
            )

    def cost_model(self, pair: str, statistics: StatisticsCatalog,
                   source: MachineProfile | None = None,
                   target: MachineProfile | None = None,
                   weights: CostWeights | None = None,
                   bandwidth: float = 1.0
                   ) -> "CalibratedCostModel | None":
        """A :class:`~repro.core.cost.calibrate.CalibratedCostModel`
        pricing computation in learned seconds — what negotiation
        uses when it holds machine profiles; ``None`` when the pair
        has no calibration evidence yet."""
        calibration = self.calibration(pair, statistics)
        if calibration is None:
            return None
        return calibration.scaled_model(
            source, target, weights, bandwidth
        )

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
        from repro.adapt.replan import ScaledProbe

        ratios = self.ratios(pair)
        if not ratios:
            return probe
        comm_scale = ratios.pop("comm", None)
        return ScaledProbe(probe, ratios, comm_scale)

    # -- introspection and persistence ----------------------------------------

    def summary(self) -> dict[str, object]:
        """JSON-able snapshot (the control-plane stats endpoint)."""
        with self._lock:
            pairs = sorted(self._scales.keys() | self._ratios.keys())
            return {
                "alpha": self.alpha,
                "warmup": self.warmup,
                "ingests": self.ingests,
                "pairs": {
                    pair: {
                        "seconds_per_unit": {
                            key: {
                                "value": entry.value,
                                "observations": entry.observations,
                                "confidence": entry.observations / (
                                    entry.observations + self.warmup
                                ),
                            }
                            for key, entry in sorted(
                                self._scales.get(pair, {}).items()
                            )
                        },
                        "ratios": {
                            key: {
                                "value": entry.value,
                                "observations": entry.observations,
                                "confidence": entry.observations / (
                                    entry.observations + self.warmup
                                ),
                            }
                            for key, entry in sorted(
                                self._ratios.get(pair, {}).items()
                            )
                        },
                    }
                    for pair in pairs
                },
            }

    def to_dict(self) -> dict[str, object]:
        """Full JSON-able state (see :meth:`from_dict`)."""
        with self._lock:
            return {
                "alpha": self.alpha,
                "warmup": self.warmup,
                "ingests": self.ingests,
                "scales": {
                    pair: {
                        key: [entry.value, entry.observations]
                        for key, entry in table.items()
                    }
                    for pair, table in self._scales.items()
                },
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
        """Rebuild a store serialized by :meth:`to_dict`.

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
            warmup=field("warmup", int, 3),  # type: ignore[arg-type]
            metrics=metrics,
        )
        store.ingests = field("ingests", int, 0)  # type: ignore[assignment]
        for attr, name in (("_scales", "scales"), ("_ratios", "ratios")):
            table = data.get(name) or {}
            target = getattr(store, attr)
            try:
                for pair, entries in table.items():
                    target[pair] = {
                        key: ScaleEstimate(float(value), int(count))
                        for key, (value, count) in entries.items()
                    }
            except (AttributeError, TypeError, ValueError):
                raise ValueError(
                    f"statistics store field {name!r} is malformed: "
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
