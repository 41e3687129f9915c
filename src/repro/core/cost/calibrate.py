"""Calibrate the cost model against the live substrate.

The paper assumes ``comp_cost`` "is given to us or that reliable
estimates can be obtained from the individual systems".  This module
obtains them: given one (or more) executed programs with measured
per-operation wall times, it fits a per-kind seconds-per-work-unit
scale by least squares, so estimated costs become predictions of this
machine's actual seconds rather than abstract units.

Usage::

    report = ProgramExecutor(source, target).run(program, placement)
    calibration = calibrate(program, report, statistics)
    predicted = calibration.predict(op)          # seconds
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import operation_work
from repro.core.ops.base import Operation
from repro.core.program.dag import TransferProgram
from repro.core.program.executor import ExecutionReport, OperationTiming

_KINDS = ("scan", "combine", "split", "write")


def strategy_key(kind: str, strategy: str) -> str:
    """Calibration key for one (kind, strategy) pair.

    A strategy qualifies the kind (``"combine.hash"``,
    ``"scan.columnar"``), letting one fit hold hash and merge unit
    costs side by side; a timing that names none (``""``, or the
    ``"row"`` of runs from before every batch was columnar) keeps the
    bare kind (``"combine"``), so older calibrations read unchanged.
    """
    if strategy in ("", "row"):
        return kind
    return f"{kind}.{strategy}"


@dataclass(slots=True)
class Calibration:
    """Fitted seconds-per-work-unit by operation kind.

    Keys are :func:`strategy_key` results — ``<kind>.<strategy>``
    for every strategy seen in the timings (bare kinds for timings
    that name none).
    """

    statistics: StatisticsCatalog
    seconds_per_unit: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)

    def predict(self, op: Operation, strategy: str = "columnar") -> float:
        """Predicted execution seconds for ``op`` on the calibrated
        machine under the given strategy.  An uncalibrated strategy
        falls back to the bare kind's fit, then to whichever strategy
        of the kind *was* fitted — which strategy an operation runs is
        read off its fragments, so a measured run fits exactly one per
        kind and that is the one a default-priced query means — and an
        entirely unseen kind to the mean scale."""
        work = operation_work(op, self.statistics)
        scales = self.seconds_per_unit
        scale = scales.get(strategy_key(op.kind, strategy))
        if scale is None:
            scale = scales.get(op.kind)
        if scale is None:
            prefix = f"{op.kind}."
            of_kind = [value for key, value in scales.items()
                       if key.startswith(prefix)]
            fitted = of_kind or [
                value for value in scales.values() if value > 0
            ]
            scale = sum(fitted) / len(fitted) if fitted else 0.0
        return work * scale

    def to_dict(self) -> dict[str, object]:
        """JSON-able form of the fitted scales.

        Statistics are *not* serialized — they describe the document
        being priced, not the machine being calibrated; reattach them
        via :meth:`from_dict` when loading.
        """
        return {
            "seconds_per_unit": dict(self.seconds_per_unit),
            "samples": dict(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object],
                  statistics: StatisticsCatalog) -> "Calibration":
        """Rebuild a calibration serialized by :meth:`to_dict` against
        ``statistics``.  ``predict()`` of the round-tripped object is
        bit-identical to the original's (the scales are stored as
        exact floats, not re-fitted).

        Raises:
            ValueError: if ``data`` lacks the scale mapping.
        """
        raw_scales = data.get("seconds_per_unit")
        if not isinstance(raw_scales, dict):
            raise ValueError(
                "calibration dict has no 'seconds_per_unit' mapping"
            )
        raw_samples = data.get("samples") or {}
        return cls(
            statistics,
            {str(key): float(value)
             for key, value in raw_scales.items()},
            {str(key): int(value)
             for key, value in raw_samples.items()},  # type: ignore[union-attr]
        )


def calibrate(program: TransferProgram, report: ExecutionReport,
              statistics: StatisticsCatalog) -> Calibration:
    """Fit per-kind scales from one executed program.

    Raises:
        ValueError: if the report does not match the program.
    """
    ordered = program.topological_order()
    if len(ordered) != len(report.op_timings):
        raise ValueError(
            "report does not match the program (operation counts "
            f"differ: {len(ordered)} vs {len(report.op_timings)})"
        )
    return calibrate_timings(program, report.op_timings, statistics)


def calibrate_timings(program: TransferProgram,
                      timings: "Iterable[OperationTiming]",
                      statistics: StatisticsCatalog) -> Calibration:
    """Fit per-kind scales from measured per-operation timings.

    For each kind, the least-squares solution of
    ``seconds ≈ scale · work`` over its operations is
    ``Σ(work·seconds) / Σ(work²)``.

    Timings are matched to program nodes by ``op_id``; timings that
    carry no id (``op_id == -1``, e.g. hand-built reports) are paired
    with the unmatched nodes in topological order instead.  Execution
    reports and the reports rebuilt from recorded traces (see
    :func:`repro.obs.drift.report_from_trace`) both feed this.

    Raises:
        ValueError: if a timing references an op the program lacks.
    """
    ordered = program.topological_order()
    nodes_by_id = {node.op_id: node for node in ordered}
    matched: list[tuple[Operation, "OperationTiming"]] = []
    positional: list["OperationTiming"] = []
    claimed: set[int] = set()
    for timing in timings:
        if timing.op_id < 0:
            positional.append(timing)
            continue
        node = nodes_by_id.get(timing.op_id)
        if node is None:
            raise ValueError(
                f"timing for op {timing.op_id} ({timing.label!r}) "
                "matches no operation of the program"
            )
        matched.append((node, timing))
        claimed.add(timing.op_id)
    unclaimed = [
        node for node in ordered if node.op_id not in claimed
    ]
    matched.extend(zip(unclaimed, positional))

    numerator: dict[str, float] = {}
    denominator: dict[str, float] = {}
    samples: dict[str, int] = {kind: 0 for kind in _KINDS}
    for node, timing in matched:
        work = operation_work(node, statistics)
        if work <= 0:
            continue
        key = strategy_key(node.kind, timing.strategy)
        numerator[key] = numerator.get(key, 0.0) + work * timing.seconds
        denominator[key] = denominator.get(key, 0.0) + work * work
        samples[key] = samples.get(key, 0) + 1
    seconds_per_unit = {
        key: (numerator[key] / denominator[key])
        for key in numerator
        if denominator[key] > 0
    }
    return Calibration(statistics, seconds_per_unit, samples)
