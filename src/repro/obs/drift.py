"""Cost-drift reporting: predicted vs measured, per op and per edge.

``Cost_Based_Optim`` picks combine orderings and placements by the
cost model's ``comp_cost``/``comm_cost`` predictions (formula 1).
This module closes the loop: it joins what actually happened — an
:class:`~repro.core.program.executor.ExecutionReport`, or a recorded
trace — against what the optimizer predicted, and reports the drift
ratio ``measured / predicted`` for every executed operation and every
cross-edge shipment, rolled up per operation kind.

Against the raw unit-cost model the per-kind ratios *are* the
machine's seconds-per-work-unit scales (what
:func:`repro.core.cost.calibrate.calibrate` fits) — large spread
between kinds means the unit ratios are off for this substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.cost.calibrate import strategy_key
from repro.core.cost.probe import CostProbe
from repro.core.ops.base import Location
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import (
    ExecutionReport,
    OperationTiming,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "OpDrift",
    "EdgeDrift",
    "DriftReport",
    "cost_drift_report",
    "report_from_trace",
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
    #: ("hash"/"merge"), "columnar" for every other operation.
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
        are omitted.  Ops that ran a non-row dataplane strategy roll
        up under the qualified :func:`~repro.core.cost.calibrate.
        strategy_key` (``"combine.hash"``), so hash, merge and row
        drifts are visible side by side.
        """
        sums: dict[str, tuple[float, float]] = {}
        for entry in self.ops:
            if entry.ratio is None:
                continue
            key = strategy_key(entry.kind, entry.strategy)
            measured, predicted = sums.get(key, (0.0, 0.0))
            sums[key] = (
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
            if predicted > 0
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
    ScaledProbe` scales — whatever strategy the op ran; the strategy
    still names the key the op rolls up under (``combine.merge``).
    A run whose measured costs are one multiple of those prices
    therefore reads that multiple on every key.

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


# -- rebuilding execution facts from a recorded trace -----------------------------


def _spans(trace: Tracer | Iterable[Span]) -> list[Span]:
    if isinstance(trace, Tracer):
        return list(trace.spans)
    return list(trace)


def report_from_trace(program: TransferProgram,
                      trace: Tracer | Iterable[Span]
                      ) -> ExecutionReport:
    """Rebuild an :class:`ExecutionReport` from a recorded trace.

    Op spans (category ``op``) become ``op_timings`` in topological
    order; ship and batch spans (categories ``ship``/``batch``, one
    per shipped message) rebuild the per-edge shipment accounting.  The result carries
    exactly the fields drift reporting and calibration consume —
    robustness counters and peaks stay zero (they are not per-span
    facts).

    Raises:
        ValueError: if the trace has no op span for some program node,
            or several for one node.
    """
    op_spans: dict[int, Span] = {}
    report = ExecutionReport()
    for span in _spans(trace):
        if span.category == "op":
            op_id = int(span.attrs["op_id"])  # type: ignore[arg-type]
            if op_id in op_spans:
                raise ValueError(
                    f"trace has multiple op spans for op {op_id}"
                )
            op_spans[op_id] = span
        elif span.category in ("ship", "batch"):
            key = (
                int(span.attrs["edge_op"]),  # type: ignore[arg-type]
                int(span.attrs["edge_port"]),  # type: ignore[arg-type]
            )
            size = int(span.attrs.get("bytes", 0))  # type: ignore[arg-type]
            if key not in report.shipment_seconds:
                report.shipments += 1
            report.shipment_seconds[key] = (
                report.shipment_seconds.get(key, 0.0) + span.seconds
            )
            report.shipment_bytes[key] = (
                report.shipment_bytes.get(key, 0) + size
            )
            report.shipment_batches[key] = (
                report.shipment_batches.get(key, 0) + 1
            )
            report.comm_seconds += span.seconds
            report.comm_bytes += size
    for node in program.topological_order():
        span = op_spans.get(node.op_id)
        if span is None:
            raise ValueError(
                f"trace has no op span for op {node.op_id} "
                f"({node.label()})"
            )
        location = Location[str(span.attrs["location"]).upper()]
        rows = int(span.attrs.get("rows", 0))  # type: ignore[arg-type]
        strategy = str(span.attrs.get("strategy", "columnar"))
        report.op_timings.append(OperationTiming(
            span.name, str(span.attrs.get("kind", node.kind)),
            location, span.seconds, rows, node.op_id, strategy,
        ))
        report.comp_seconds[location] += span.seconds
        if node.kind == "write":
            report.rows_written += rows
    return report
