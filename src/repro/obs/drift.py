"""Cost-drift reporting: predicted vs measured, per op and per edge.

``Cost_Based_Optim`` picks combine orderings and placements by the
cost model's ``comp_cost``/``comm_cost`` predictions (formula 1).
This module closes the loop: it joins what actually happened — the
run's :class:`~repro.core.program.executor.ExecutionReport` — against
what the optimizer predicted, and reports the drift ratio
``measured / predicted`` for every executed operation and every
cross-edge shipment, rolled up per operation kind.

Against the raw unit-cost model the per-kind ratios *are* the
machine's seconds-per-work-unit scales — large spread between kinds
means the unit ratios are off for this substrate.
:class:`~repro.adapt.stats.StatisticsStore` learns them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.cost.probe import CostProbe
from repro.core.ops.base import Location
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import ExecutionReport

__all__ = [
    "OpDrift",
    "EdgeDrift",
    "DriftReport",
    "cost_drift_report",
]


@dataclass(slots=True)
class OpDrift:
    """Predicted vs measured cost of one executed operation."""

    op_id: int
    label: str
    kind: str
    location: Location
    predicted: float
    measured_seconds: float
    rows: int
    #: Strategy the op actually ran: a Combine's join strategy
    #: ("aligned"/"hash"), "columnar" for every other operation.
    strategy: str = "columnar"

    @property
    def ratio(self) -> float | None:
        """``measured / predicted`` (``None`` when the prediction is
        zero or infinite — nothing meaningful to compare against)."""
        if not math.isfinite(self.predicted) or self.predicted <= 0:
            return None
        return self.measured_seconds / self.predicted


@dataclass(slots=True)
class EdgeDrift:
    """Predicted vs measured cost of one cross-edge shipment."""

    edge: tuple[int, int]
    fragment: str
    predicted: float
    measured_seconds: float
    bytes_sent: int
    batches: int

    @property
    def ratio(self) -> float | None:
        """``measured / predicted`` (``None`` for degenerate
        predictions, as on :class:`OpDrift`)."""
        if not math.isfinite(self.predicted) or self.predicted <= 0:
            return None
        return self.measured_seconds / self.predicted


@dataclass(slots=True)
class DriftReport:
    """The joined prediction-vs-reality view of one executed program."""

    ops: list[OpDrift] = field(default_factory=list)
    edges: list[EdgeDrift] = field(default_factory=list)

    def kind_ratios(self) -> dict[str, float]:
        """Per-kind drift: summed measured over summed predicted.

        Keys are the operation kinds that executed plus ``"comm"`` for
        the cross-edges; kinds whose predictions are all degenerate
        are omitted, and so are kinds that measured no seconds at all
        (every shipment over an in-process hop): that is no evidence.
        An op's strategy is a label, not a key: aligned and hash
        Combines both roll up under ``"combine"``, the one price the
        cost model has for them.
        """
        sums: dict[str, tuple[float, float]] = {}
        for entry in self.ops:
            if entry.ratio is None:
                continue
            measured, predicted = sums.get(entry.kind, (0.0, 0.0))
            sums[entry.kind] = (
                measured + entry.measured_seconds,
                predicted + entry.predicted,
            )
        for edge in self.edges:
            if edge.ratio is None:
                continue
            measured, predicted = sums.get("comm", (0.0, 0.0))
            sums["comm"] = (
                measured + edge.measured_seconds,
                predicted + edge.predicted,
            )
        return {
            kind: measured / predicted
            for kind, (measured, predicted) in sorted(sums.items())
            if predicted > 0 and measured > 0
        }

    def to_dict(self) -> dict[str, object]:
        """JSON-able form (what ``--trace``-adjacent tooling stores)."""
        return {
            "ops": [
                {
                    "op_id": entry.op_id,
                    "label": entry.label,
                    "kind": entry.kind,
                    "location": entry.location.name.lower(),
                    "predicted": entry.predicted,
                    "measured_seconds": entry.measured_seconds,
                    "rows": entry.rows,
                    "strategy": entry.strategy,
                    "ratio": entry.ratio,
                }
                for entry in self.ops
            ],
            "edges": [
                {
                    "edge": list(edge.edge),
                    "fragment": edge.fragment,
                    "predicted": edge.predicted,
                    "measured_seconds": edge.measured_seconds,
                    "bytes": edge.bytes_sent,
                    "batches": edge.batches,
                    "ratio": edge.ratio,
                }
                for edge in self.edges
            ],
            "kind_ratios": self.kind_ratios(),
        }

    def render(self) -> str:
        """Aligned text rendering (the CLI ``--drift`` output)."""
        lines = [
            f"{'operation':<34} {'kind':<8} {'where':<7} "
            f"{'predicted':>12} {'measured s':>12} {'ratio':>10}"
        ]
        for entry in self.ops:
            ratio = (
                f"{entry.ratio:.3g}" if entry.ratio is not None
                else "n/a"
            )
            lines.append(
                f"{entry.label:<34.34} {entry.kind:<8} "
                f"{entry.location.name.lower():<7} "
                f"{entry.predicted:>12.5g} "
                f"{entry.measured_seconds:>12.6f} {ratio:>10}"
            )
        for edge in self.edges:
            ratio = (
                f"{edge.ratio:.3g}" if edge.ratio is not None else "n/a"
            )
            label = (
                f"edge {edge.edge[0]}:{edge.edge[1]} "
                f"({edge.fragment})"
            )
            lines.append(
                f"{label:<34.34} {'comm':<8} {'wire':<7} "
                f"{edge.predicted:>12.5g} "
                f"{edge.measured_seconds:>12.6f} {ratio:>10}"
            )
        lines.append("")
        lines.append("per-kind drift (measured / predicted):")
        for kind, ratio in self.kind_ratios().items():
            lines.append(f"  {kind:<16} {ratio:.6g}")
        return "\n".join(lines)


def cost_drift_report(program: TransferProgram, placement: Placement,
                      report: ExecutionReport,
                      probe: CostProbe) -> DriftReport:
    """Join an executed program's measurements against ``probe``.

    Every node of ``program`` gets an :class:`OpDrift` (measured
    seconds come from the report's timings, matched by ``op_id``) and
    every cross-edge of ``placement`` an :class:`EdgeDrift` (measured
    seconds/bytes come from the report's shipment accounting).
    Predictions are ``probe.comp_cost(node, location)`` — the number
    the optimizers price and a :class:`~repro.adapt.stats.
    ScaledProbe` scales — whatever strategy the op ran.  A run whose
    measured costs are one multiple of those prices therefore reads
    that multiple on every key.

    Raises:
        ValueError: if the report lacks a timing for some node — it
            was produced by a different program.
    """
    timings = {
        timing.op_id: timing for timing in report.op_timings
    }
    result = DriftReport()
    for node in program.topological_order():
        timing = timings.get(node.op_id)
        if timing is None:
            raise ValueError(
                f"report has no timing for op {node.op_id} "
                f"({node.label()}); was it produced by this program?"
            )
        location = placement[node.op_id]
        result.ops.append(OpDrift(
            op_id=node.op_id,
            label=node.label(),
            kind=node.kind,
            location=location,
            predicted=probe.comp_cost(node, location),
            measured_seconds=timing.seconds,
            rows=timing.rows,
            strategy=timing.strategy,
        ))
    for edge in program.cross_edges(placement):
        key = (edge.producer.op_id, edge.output_index)
        result.edges.append(EdgeDrift(
            edge=key,
            fragment=edge.fragment.name,
            predicted=probe.comm_cost(edge.fragment),
            measured_seconds=report.shipment_seconds.get(key, 0.0),
            bytes_sent=report.shipment_bytes.get(key, 0),
            batches=report.shipment_batches.get(key, 1),
        ))
    return result
