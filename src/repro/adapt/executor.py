"""Mid-flight adaptive execution: checkpoint, compare, re-place.

:class:`AdaptiveRun` wraps the program executor.  As segments of the
program complete it joins their measurements against the negotiation
probe with :func:`~repro.obs.drift.cost_drift_report` (per
:func:`~repro.core.cost.calibrate.strategy_key`, with cross-edge
shipments as the ``"comm"`` pseudo-kind).  When the per-kind ratios
diverge beyond ``replan_threshold`` — *spread* between kinds, not
uniform slowdown, is what re-ranks placements — it re-places the
not-yet-started DAG suffix: completed and in-flight operations are
pinned at their locations and Algorithm 1
(:func:`~repro.core.optimizer.exhaustive.cost_based_optim`)
re-optimizes the rest under a :class:`~repro.adapt.replan.ScaledProbe`
corrected by the observed ratios.

Re-placement never changes *what* is computed, only *where*: Combine
and Split produce identical values at either endpoint and cross-edge
shipping is decided against the current placement when the value is
actually consumed, so the written target stays byte-identical to the
static run (the differential suite asserts this with replanning forced
at every checkpoint).

The executor compiles placement into its batch pipeline before
anything runs, so the run executes the program one *segment* at a time
— write-rooted expressions (Definition 3.10), merged when they share
operations — and checkpoints between segments, whatever the worker
count, batch size or dataplane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import PlacementError
from repro.adapt.replan import ScaledProbe
from repro.adapt.stats import StatisticsStore
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation
from repro.core.optimizer.exhaustive import cost_based_optim
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import (
    ExecutionReport,
    ProgramExecutor,
    critical_path_seconds,
)
from repro.obs.drift import DriftReport, cost_drift_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["AdaptiveConfig", "AdaptiveRun"]

#: Observed-cost hooks.  ``None`` uses measured wall seconds; tests
#: and benchmarks inject model-derived costs for determinism.
CompFeedback = Callable[[Operation, Location, str, float], float]
CommFeedback = Callable[[Fragment, float], float]


@dataclass(slots=True)
class AdaptiveConfig:
    """Knobs of one adaptive run.

    ``probe`` is the cost source the plan was negotiated against —
    the baseline the run measures divergence *from*.  ``comp_feedback``
    / ``comm_feedback`` override what counts as the observed cost of
    an op / a shipment (default: measured wall seconds); the
    differential tests inject the true cost model here so replan
    decisions are deterministic.  With a ``stats_store`` (plus
    ``pair``) the run ingests its drift evidence when it finishes.
    """

    probe: CostProbe
    weights: CostWeights | None = None
    #: Replan when the per-kind ratio spread exceeds this (<= 0 forces
    #: a replan at every checkpoint; ``math.inf`` disables replanning).
    replan_threshold: float = 0.5
    comp_feedback: CompFeedback | None = None
    comm_feedback: CommFeedback | None = None
    stats_store: StatisticsStore | None = None
    pair: str | None = None


class AdaptiveRun:
    """Execute a placed program, re-placing its suffix as evidence
    accumulates.  Accepts the same dataplane knobs as
    :func:`~repro.services.exchange.run_optimized_exchange` (journaled
    runs excepted — resume bookkeeping assumes a static plan).

    After :meth:`run`, ``replans`` / ``ops_moved`` / ``checkpoints``
    count what happened and ``placement`` holds the final (possibly
    re-placed) assignment.
    """

    def __init__(self, program: TransferProgram, placement: Placement,
                 source, target, channel=None, *,
                 config: AdaptiveConfig,
                 parallel_workers: int = 1,
                 batch_rows: int | None = None,
                 retry=None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.program = program
        self.placement = dict(placement)
        self.source = source
        self.target = target
        self.channel = channel
        self.config = config
        self.parallel_workers = parallel_workers
        self.batch_rows = batch_rows
        self.retry = retry
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        #: Every finished segment's drift against ``config.probe``.
        self.evidence = DriftReport()
        self.replans = 0
        self.ops_moved = 0
        self.checkpoints = 0
        self.moved_op_ids: list[int] = []
        self._pinned: Placement = {}

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"adapt.{name}").add(amount)

    # -- driving ---------------------------------------------------------------

    def run(self) -> ExecutionReport:
        """Execute the program adaptively and return the merged
        report (same shape as a static run's).

        Raises:
            ProgramError/PlacementError: as a static run does.
        """
        self.program.validate()
        self.program.validate_placement(self.placement)
        started = time.perf_counter()
        with self.tracer.span("adaptive run", "adapt",
                              threshold=self.config.replan_threshold):
            report = self._run_segments()
        report.wall_seconds = time.perf_counter() - started
        report.critical_path_seconds = critical_path_seconds(
            self.program, report
        )
        self._ingest()
        return report

    def _run_segments(self) -> ExecutionReport:
        executor = ProgramExecutor(
            self.source, self.target, self.channel,
            workers=self.parallel_workers,
            batch_rows=self.batch_rows, retry=self.retry,
            tracer=self.tracer, metrics=self.metrics,
        )
        total = ExecutionReport(batch_rows=self.batch_rows)
        segments = _expression_groups(self.program)
        for index, members in enumerate(segments):
            segment = _subprogram(self.program, set(members))
            snapshot = dict(self.placement)
            part = executor.run(segment, snapshot)
            _merge_report(total, part)
            self._observe_segment(segment, snapshot, part)
            for op_id in members:
                self._pinned[op_id] = snapshot[op_id]
            self.checkpoints += 1
            self._count("checkpoints")
            if index < len(segments) - 1:
                self._maybe_replan()
        return total

    # -- observation -----------------------------------------------------------

    def _observe_segment(self, segment: TransferProgram,
                         placement: Placement,
                         report: ExecutionReport) -> None:
        drift = cost_drift_report(
            segment, placement, report, self.config.probe
        )
        comp = self.config.comp_feedback
        if comp is not None:
            nodes = {node.op_id: node for node in segment.nodes}
            for entry in drift.ops:
                entry.measured_seconds = comp(
                    nodes[entry.op_id], entry.location, entry.strategy,
                    entry.measured_seconds,
                )
        comm = self.config.comm_feedback
        if comm is not None:
            fragments = {
                (edge.producer.op_id, edge.output_index): edge.fragment
                for edge in segment.cross_edges(placement)
            }
            for shipment in drift.edges:
                shipment.measured_seconds = comm(
                    fragments[shipment.edge], shipment.measured_seconds
                )
        self.evidence.ops.extend(drift.ops)
        self.evidence.edges.extend(drift.edges)
        self._count("observations", len(drift.ops) + len(drift.edges))

    # -- replanning ------------------------------------------------------------

    def _maybe_replan(self) -> None:
        remaining = [
            node.op_id for node in self.program.nodes
            if node.op_id not in self._pinned
        ]
        if not remaining:
            return
        ratios = self.evidence.kind_ratios()
        divergence = _spread(ratios)
        if not ratios or divergence <= self.config.replan_threshold:
            return
        comm_ratio = ratios.pop("comm", None)
        scaled = ScaledProbe(self.config.probe, ratios, comm_ratio)
        with self.tracer.span("replan suffix", "adapt",
                              divergence=divergence,
                              pinned=len(self._pinned),
                              remaining=len(remaining)) as span:
            try:
                replanned, cost = cost_based_optim(
                    self.program, scaled, self.config.weights,
                    pinned=self._pinned,
                )
            except PlacementError:
                # The pinned prefix admits no alternative; keep going
                # with the static suffix.
                span.annotate(moved=-1)
                return
            moved = [
                op_id for op_id in remaining
                if replanned[op_id] is not self.placement[op_id]
            ]
            span.annotate(moved=len(moved), cost=cost)
        self.replans += 1
        self._count("replans")
        if moved:
            for op_id in moved:
                self.placement[op_id] = replanned[op_id]
            self.ops_moved += len(moved)
            self.moved_op_ids.extend(moved)
            self._count("ops_moved", len(moved))

    # -- learned-statistics feedback -------------------------------------------

    def _ingest(self) -> None:
        store = self.config.stats_store
        if store is not None and self.config.pair is not None:
            store.observe_drift(self.config.pair, self.evidence)


# -- helpers ---------------------------------------------------------------------


def _spread(ratios: dict[str, float]) -> float:
    """``max/min - 1`` over the positive per-kind ratios (0.0 with
    fewer than two).  Uniform drift — every kind off by the same
    factor — spreads nothing and changes no placement decision, so it
    never triggers a replan."""
    values = [ratio for ratio in ratios.values() if ratio > 0]
    if len(values) < 2:
        return 0.0
    return max(values) / min(values) - 1.0


def _expression_groups(program: TransferProgram) -> list[list[int]]:
    """Disjoint executable segments, in topological order.

    Per-Write upstream closures (:meth:`TransferProgram.
    iter_expressions`, Definition 3.10) may *overlap* — a Split whose
    output ports feed two Writes belongs to both expressions.  Running
    an overlapping closure alone would leave the sibling output port
    unconsumed (and re-do shared work), so closures that share any
    operation are merged into one segment.  Within a merged segment
    every consumer of every member is itself a member: any consumer
    leads to some Write, and that Write's closure shares the node.
    """
    expressions = [
        [node.op_id for node in expression]
        for expression in program.iter_expressions()
    ]
    parent = list(range(len(expressions)))

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    owner: dict[int, int] = {}
    for index, members in enumerate(expressions):
        for op_id in members:
            if op_id in owner:
                root = find(owner[op_id])
                if root != find(index):
                    parent[find(index)] = root
            else:
                owner[op_id] = index
    groups: dict[int, set[int]] = {}
    for index, members in enumerate(expressions):
        groups.setdefault(find(index), set()).update(members)
    position = {
        node.op_id: rank
        for rank, node in enumerate(program.topological_order())
    }
    ordered = sorted(
        groups.values(), key=lambda ops: min(position[op] for op in ops)
    )
    return [sorted(ops, key=position.__getitem__) for ops in ordered]


def _subprogram(program: TransferProgram,
                members: set[int]) -> TransferProgram:
    """The induced sub-DAG over ``members`` (same operation objects,
    so op ids, placements and journal keys stay valid)."""
    sub = TransferProgram()
    for node in program.topological_order():
        if node.op_id in members:
            sub.add(node)
    for edge in program.edges:
        if (edge.producer.op_id in members
                and edge.consumer.op_id in members):
            sub.connect(edge.producer, edge.output_index,
                        edge.consumer, edge.input_index)
    return sub


def _merge_report(total: ExecutionReport,
                  part: ExecutionReport) -> None:
    """Fold one segment's report into the running total (wall clock
    and critical path are recomputed by the caller over the whole
    run)."""
    total.op_timings.extend(part.op_timings)
    for location, seconds in part.comp_seconds.items():
        total.comp_seconds[location] += seconds
    total.comm_bytes += part.comm_bytes
    total.comm_seconds += part.comm_seconds
    total.shipments += part.shipments
    total.rows_written += part.rows_written
    for table in ("shipment_bytes", "shipment_seconds",
                  "shipment_batches", "retries_by_edge",
                  "redelivered_by_edge"):
        merged = getattr(total, table)
        for key, value in getattr(part, table).items():
            merged[key] = merged.get(key, 0) + value
    total.peak_resident_rows = max(
        total.peak_resident_rows, part.peak_resident_rows
    )
    total.peak_resident_bytes = max(
        total.peak_resident_bytes, part.peak_resident_bytes
    )
    total.retries += part.retries
    total.redelivered_batches += part.redelivered_batches
    total.resume_count += part.resume_count
