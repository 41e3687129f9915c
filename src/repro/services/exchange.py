"""End-to-end exchange runs with per-step timings.

Two pipelines, matching Sections 5.1/5.2:

* **Optimized data exchange (DE)** — (1) execute the program parts
  assigned to the source, (2) ship the cross-edge fragments, (3)
  execute the parts assigned to the target, (4) load, (5) index.
* **Publish&map (PM)** — (1) execute publishing queries, (2) tag, (3)
  ship the document, (4) parse & shred, (5) load, (6) index.

Step names in :class:`ExchangeOutcome` follow Figure 9's legend so the
benchmark harness can print the same stacked breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import EndpointError
from repro.core.delta import (
    DeltaSourceView,
    DeltaTargetView,
    compute_delta,
)
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import ExecutionReport, ProgramExecutor
from repro.core.program.journal import ExchangeJournal
from repro.net.faults import FaultPlan, FaultyChannel, RetryPolicy
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.relational.publisher import publish_document
from repro.relational.shredder import shred_document
from repro.services.endpoint import RelationalEndpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.services.endpoint import SystemEndpoint

#: Step keys, in Figure 9 stacking order (bottom to top).
STEPS = (
    "source_processing",
    "communication",
    "shredding",
    "target_processing",
    "loading",
    "indexing",
)


@dataclass(slots=True)
class ExchangeOutcome:
    """Per-step timings and volumes of one end-to-end run."""

    scenario: str
    method: str  # "DE" (optimized data exchange) or "PM" (publish&map)
    steps: dict[str, float] = field(
        default_factory=lambda: {step: 0.0 for step in STEPS}
    )
    comm_bytes: int = 0
    rows_written: int = 0
    indexes_built: int = 0
    #: Measured wall-clock of the program-execution phase; equals the
    #: summed per-step attribution up to bookkeeping overhead.
    wall_seconds: float = 0.0
    #: Batch size the program phase used (None = unbatched).
    batch_rows: int | None = None
    #: Peak fragment rows resident in the dataplane (see
    #: :class:`~repro.core.program.executor.ExecutionReport`).
    peak_resident_rows: int = 0
    #: Healing work of the reliable shipping layer (all zero on a
    #: fault-free run): re-sends after transport failures, duplicate
    #: deliveries discarded, attempts recorded before this one in the
    #: run's journal, and faults the channel actually injected.
    retries: int = 0
    redelivered_batches: int = 0
    resume_count: int = 0
    faults_injected: int = 0
    #: The program phase's full :class:`~repro.core.program.executor.
    #: ExecutionReport` — per-op timings, shipment accounting and the
    #: healing work per cross-edge, what the statistics store learns
    #: drift from.  ``None`` only for PM runs.
    report: "ExecutionReport | None" = None
    #: Delta-exchange accounting (all zero/False on full runs): the
    #: version window ``(delta_since, delta_high]`` this run covered,
    #: how many source rows had changed in it, how many the closure
    #: actually shipped (out of ``delta_total_rows`` stored), and how
    #: many target rows were tombstone-deleted.
    delta: bool = False
    delta_since: int = 0
    delta_high: int = 0
    delta_changed_rows: int = 0
    delta_shipped_rows: int = 0
    delta_total_rows: int = 0
    delta_deleted_rows: int = 0

    @property
    def total_seconds(self) -> float:
        """End-to-end time (sum of all steps)."""
        return sum(self.steps.values())

    @property
    def data_processing_seconds(self) -> float:
        """Processing-only time (everything except communication) —
        the quantity behind the paper's "six times faster in data
        processing" claim."""
        return self.total_seconds - self.steps["communication"]

    def breakdown(self) -> str:
        """One-line rendering of the step times."""
        parts = ", ".join(
            f"{step}={seconds:.3f}s"
            for step, seconds in self.steps.items()
            if seconds
        )
        return f"[{self.scenario} {self.method}] {parts}"


def run_optimized_exchange(
    program: TransferProgram,
    placement: Placement,
    source: RelationalEndpoint,
    target: RelationalEndpoint,
    channel: Transport,
    scenario: str = "exchange",
    batch_rows: int | None = None,
    columnar: bool = False,
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    journal: ExchangeJournal | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    delta: bool = False,
    since: int | None = None,
) -> ExchangeOutcome:
    """Run the optimized data exchange (Section 5.2 steps 1–5).

    The program phase runs on the one
    :class:`~repro.core.program.executor.ProgramExecutor`, which drives
    the program's expressions one after another, as the paper does.

    ``batch_rows`` sizes the batches that flow along the program's
    edges: ``None`` moves each feed as one unbounded batch (one message
    per cross-edge), an integer moves slices of that many rows (bounded
    peak residency, chunked shipping, same written fragments); any
    other value raises ``ValueError`` before the channel, the source or
    the target is touched.
    How batches are represented is read off each fragment — columns
    for every flat-storable one, row trees otherwise (see
    :mod:`repro.core.program.run`) — so ``columnar`` is accepted and
    **ignored**: it is kept only because ``bench/adapter.py`` still
    passes it on every operation.

    ``fault_plan`` makes the channel lossy (see :mod:`repro.net.
    faults`); ``retry_policy`` arms the reliable layer that heals the
    loss; ``journal`` arms checkpoint/resume.  Communication cost then
    includes the wasted transmissions — loss is charged, not hidden.

    ``delta=True`` runs an *incremental* exchange: the source must have
    versioning enabled (:meth:`~repro.services.endpoint.SystemEndpoint.
    enable_versioning`), changed rows since ``since`` (default: the
    journal's last completed sync, else 0 — everything) are computed
    via :func:`~repro.core.delta.compute_delta`, the program runs over
    the ship set, fetched by id, through :class:`~repro.core.delta.
    DeltaSourceView`, and the target merges by eid, in place, through
    :class:`~repro.core.delta.DeltaTargetView` (tombstoned target rows
    are deleted first).  The merged target is byte-identical to a full
    re-exchange; only the changed subset crosses the wire, and every
    step — detection, scan, merge, index upkeep — costs what changed,
    not what is stored.  A ``since`` the source's version log has not
    reached raises :class:`~repro.errors.EndpointError` (and records
    no sync).  A completed run records the covered high-water version
    in the ``journal`` (``sync`` event), so the next delta resumes
    where this one *finished* — a killed run never advances it.

    The channel's totals are reset first, so the channel must be this
    run's alone; concurrent sessions each get their own, which is what
    :class:`~repro.services.broker.ExchangeBroker` does.
    """
    if batch_rows is not None and batch_rows < 1:
        raise ValueError("batch_rows must be >= 1 or None")
    tracer = tracer or NULL_TRACER
    outcome = ExchangeOutcome(scenario, "DE", batch_rows=batch_rows)
    channel.reset()
    exec_source: "SystemEndpoint | DeltaSourceView" = source
    exec_target: "SystemEndpoint | DeltaTargetView" = target
    sync_version: int | None = None
    if delta:
        versions = source.versions
        if versions is None:
            raise EndpointError(
                f"endpoint {source.name!r} has no version log; call "
                "enable_versioning() before a delta exchange"
            )
        resolved_since = since
        if resolved_since is None:
            resolved_since = (
                journal.last_sync_version()
                if journal is not None else 0
            )
        sync_version = versions.current
        delta_started = time.perf_counter()
        with tracer.span("compute delta", "step", scenario=scenario,
                         since=resolved_since, high=sync_version):
            delta_set = compute_delta(
                source,
                [op.fragment for op in program.scans()],
                [op.fragment for op in program.writes()],
                resolved_since,
            )
        delta_seconds = time.perf_counter() - delta_started
        outcome.steps["source_processing"] += delta_seconds
        deleted = 0
        for op in program.writes():
            doomed = delta_set.deletes.get(op.fragment.name)
            if doomed:
                deleted += target.delete_rows(op.fragment, doomed)
        outcome.delta = True
        outcome.delta_since = resolved_since
        outcome.delta_high = sync_version
        outcome.delta_changed_rows = delta_set.changed_rows
        outcome.delta_shipped_rows = delta_set.shipped_rows
        outcome.delta_total_rows = delta_set.total_rows
        outcome.delta_deleted_rows = deleted
        if metrics is not None:
            metrics.counter("delta.runs").add(1)
            metrics.counter("delta.changed_rows").add(
                delta_set.changed_rows
            )
            metrics.counter("delta.shipped_rows").add(
                delta_set.shipped_rows
            )
            metrics.counter("delta.deleted_rows").add(deleted)
            metrics.counter("delta.skipped_rows").add(
                delta_set.total_rows - delta_set.shipped_rows
            )
        exec_source = DeltaSourceView(source, delta_set)
        exec_target = DeltaTargetView(target, delta_set)
    elif journal is not None and source.versions is not None:
        # A journaled *full* run over a versioned source is a sync
        # point too: record its high-water so a later delta run ships
        # only what changed after it.
        sync_version = source.versions.current
    wire = (
        FaultyChannel(channel, fault_plan, tracer=tracer)
        if fault_plan is not None else channel
    )
    executor = ProgramExecutor(
        exec_source, exec_target, wire, batch_rows=batch_rows,
        retry=retry_policy, journal=journal, tracer=tracer,
        metrics=metrics,
    )
    with tracer.span("execute program", "step", scenario=scenario,
                     method="DE"):
        report = executor.run(program, placement)
    outcome.report = report
    outcome.wall_seconds = report.wall_seconds
    outcome.peak_resident_rows = report.peak_resident_rows
    outcome.retries = report.retries
    outcome.redelivered_batches = report.redelivered_batches
    outcome.resume_count = report.resume_count
    if isinstance(wire, FaultyChannel):
        outcome.faults_injected = wire.stats.injected
    load_seconds = report.seconds_for_kind("write")
    outcome.steps["source_processing"] = report.source_seconds
    outcome.steps["communication"] = channel.total_seconds
    outcome.steps["target_processing"] = (
        report.target_seconds - load_seconds
    )
    outcome.steps["loading"] = load_seconds
    started = time.perf_counter()
    outcome.indexes_built = target.build_indexes()
    indexing = time.perf_counter() - started
    outcome.steps["indexing"] = indexing
    tracer.record("indexing", "step", start=started, seconds=indexing,
                  indexes=outcome.indexes_built)
    outcome.comm_bytes = channel.total_bytes
    outcome.rows_written = report.rows_written
    if journal is not None and sync_version is not None:
        # Only reached on success: a killed run records no sync, so
        # the next delta re-covers everything since the last one that
        # actually finished.
        journal.record_sync(sync_version)
    return outcome


def run_publish_and_map(
    source: RelationalEndpoint,
    target: RelationalEndpoint,
    channel: Transport,
    scenario: str = "exchange",
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
) -> ExchangeOutcome:
    """Run publish&map (Section 5.1 steps 1–6).

    ``fault_plan``/``retry_policy`` behave as in
    :func:`run_optimized_exchange`; PM ships one monolithic document,
    so a drop or corruption re-sends the *whole* document — the
    robustness asymmetry against DE's per-fragment (or per-batch)
    retries.
    """
    tracer = tracer or NULL_TRACER
    outcome = ExchangeOutcome(scenario, "PM")
    channel.reset()
    wire = (
        FaultyChannel(channel, fault_plan, tracer=tracer)
        if fault_plan is not None else channel
    )

    with tracer.span("publish", "step", scenario=scenario,
                     method="PM"):
        started = time.perf_counter()
        report = publish_document(source.db, source.mapper)
        outcome.steps["source_processing"] = \
            time.perf_counter() - started

    with tracer.span("ship document", "step",
                     bytes=len(report.document)):
        if retry_policy is None:
            wire.ship_document(report.document)
        else:
            def count_retry() -> None:
                outcome.retries += 1

            retry_policy.run(
                lambda: wire.ship_document(report.document),
                "published document", tracer, count_retry,
            )
    # Totals rather than the receipt: failed attempts burned the wire
    # too, and PM pays them at whole-document size.
    outcome.steps["communication"] = channel.total_seconds
    outcome.comm_bytes = channel.total_bytes
    if isinstance(wire, FaultyChannel):
        outcome.faults_injected = wire.stats.injected

    with tracer.span("shred", "step"):
        started = time.perf_counter()
        shredded = shred_document(report.document, target.mapper)
        outcome.steps["shredding"] = time.perf_counter() - started

    with tracer.span("load", "step"):
        started = time.perf_counter()
        outcome.rows_written = shredded.load_into(target.db)
        outcome.steps["loading"] = time.perf_counter() - started

    with tracer.span("indexing", "step"):
        started = time.perf_counter()
        outcome.indexes_built = target.build_indexes()
        outcome.steps["indexing"] = time.perf_counter() - started
    return outcome
