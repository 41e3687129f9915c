"""Execute placed data-transfer programs against system endpoints.

``Scan`` and ``Write`` are delegated to the owning endpoint (each
system implements its own, Defs. 3.6/3.9); ``Combine`` and ``Split``
run wherever their node is placed, and their elapsed time is attributed
to that system.  When an edge crosses systems its batches are shipped
through the channel, which accounts bytes and simulated transfer time
(Section 4.1's ``comm_cost``).

This module holds the executor's interface — the endpoint and channel
protocols, :class:`ExecutionReport`, and :class:`ProgramExecutor`, the
configuration a program is run under.  The one engine that schedules,
ships, journals, meters and traces a run is
:class:`~repro.core.program.run.ProgramRun`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.core.fragment import Fragment
from repro.core.ops.base import Location
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.journal import ExchangeJournal
from repro.core.stream import FragmentStream
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.columnar import ColumnBatch
    from repro.net.faults import RetryPolicy


class DataEndpoint(Protocol):
    """What the executor needs from a system (source or target)."""

    def scan_stream_columnar(self, fragment: Fragment,
                             batch_rows: int) -> FragmentStream:
        """Produce the feed of a flat-storable ``fragment`` as a
        stream of :class:`~repro.core.columnar.ColumnBatch` (Scan,
        Def. 3.6)."""
        ...

    def scan_parts(self, fragment: Fragment, batch_rows: int
                   ) -> dict[Fragment, FragmentStream]:
        """Produce the feed of a ``fragment`` that does not flatten as
        one column stream per flat part
        (:meth:`~repro.core.fragment.Fragment.flat_parts`, in that
        order)."""
        ...

    def write_stream(self, fragment: Fragment,
                     stream: FragmentStream) -> None:
        """Store a batch stream (Write, Def. 3.9)."""
        ...

    def write_parts(self, fragment: Fragment,
                    parts: dict[Fragment, FragmentStream]) -> None:
        """Store a ``fragment`` that does not flatten from the streams
        of its flat parts."""
        ...


class ShippingChannel(Protocol):
    """What the executor needs from the network between the systems.

    Every :class:`~repro.net.transport.Transport` implementation
    (simulated, in-process, or a real TCP socket) satisfies this
    protocol; the core stays import-free of :mod:`repro.net`.
    """

    def ship_batch(self, batch: "ColumnBatch") -> "Shipment":
        """Transfer one batch source → target; return the receipt."""
        ...


@dataclass(frozen=True, slots=True)
class Shipment:
    """Receipt for one cross-edge transfer."""

    bytes_sent: int
    seconds: float


@dataclass(slots=True)
class OperationTiming:
    """Wall-clock timing of one executed operation.

    ``strategy`` names how the operation ran — a fact derived from
    its fragments and data, not a setting: ``"hash"``/``"merge"`` for
    the join strategy a Combine selected, ``"columnar"`` for every
    other operation (a Combine that only passes the flat parts of a
    repeated child through included) — the key the cost calibration
    uses to fit per-strategy unit costs.
    """

    label: str
    kind: str
    location: Location
    seconds: float
    rows: int
    op_id: int = -1
    strategy: str = "columnar"


@dataclass(slots=True)
class ExecutionReport:
    """Aggregate metrics of one program execution.

    The same for every batch size; consumers should not need to know
    which ran.

    **Time.** ``wall_seconds`` is the end-to-end wall-clock time of the
    run; it equals ``total_seconds`` up to bookkeeping overhead.

    **Shipment accounting** (the single definition — executors link
    here rather than restating it): every cross-edge counts once in
    ``shipments``; its transferred volume and simulated transfer time
    accumulate in ``comm_bytes``/``comm_seconds`` and, keyed by
    producer port ``(op_id, output_index)``, in ``shipment_bytes``/
    ``shipment_seconds``.  ``shipment_batches`` records how many
    messages each edge shipped: one per batch, so exactly 1 on an
    unbatched run (``batch_rows=None``), where each edge is one
    monolithic message — or, for a fragment that does not flatten,
    one per flat part, each part being a stream of its own.

    **Peak memory.** ``peak_resident_rows`` is the high-water mark of
    fragment rows resident in the dataplane (instances in flight,
    batch frontiers, combine/split buffers) as counted by
    :class:`~repro.core.stream.ResidencyMeter` — the quantity
    ``batch_rows`` bounds.  A fragment that does not flatten counts
    the rows of its flat parts: one occurrence of each part root is
    one row.  ``batch_rows`` records the
    knob the run used (``None`` = unbatched).

    **Robustness** (zero on a fault-free run over a perfect channel):
    ``retries`` counts re-sends the reliable shipping layer performed
    after transport failures, ``redelivered_batches`` duplicate
    deliveries it discarded, and ``resume_count`` earlier attempts
    recorded in the run's :class:`~repro.core.program.journal.
    ExchangeJournal` (0 when no journal, or on its first attempt).
    ``retries_by_edge``/``redelivered_by_edge`` break those totals
    down by producer port — ``(op_id, output_index, part)`` for the
    part streams of a fragment that does not flatten, each with its
    own sequence space — and counts are *summed* per edge as the
    reliable links report them, so edges sharing one retry layer (and
    repeated runs merging into one stats object) accumulate instead
    of overwriting each other.
    """

    op_timings: list[OperationTiming] = field(default_factory=list)
    comp_seconds: dict[Location, float] = field(
        default_factory=lambda: {
            Location.SOURCE: 0.0, Location.TARGET: 0.0,
        }
    )
    comm_bytes: int = 0
    comm_seconds: float = 0.0
    shipments: int = 0
    rows_written: int = 0
    wall_seconds: float = 0.0
    shipment_bytes: dict[tuple[int, int], int] = field(
        default_factory=dict
    )
    shipment_seconds: dict[tuple[int, int], float] = field(
        default_factory=dict
    )
    shipment_batches: dict[tuple[int, int], int] = field(
        default_factory=dict
    )
    peak_resident_rows: int = 0
    batch_rows: int | None = None
    retries: int = 0
    redelivered_batches: int = 0
    resume_count: int = 0
    retries_by_edge: dict[tuple[int, int], int] = field(
        default_factory=dict
    )
    redelivered_by_edge: dict[tuple[int, int], int] = field(
        default_factory=dict
    )

    @property
    def source_seconds(self) -> float:
        """Computation time spent at the source."""
        return self.comp_seconds[Location.SOURCE]

    @property
    def target_seconds(self) -> float:
        """Computation time spent at the target."""
        return self.comp_seconds[Location.TARGET]

    @property
    def total_seconds(self) -> float:
        """Computation (both systems) plus communication time."""
        return (
            self.source_seconds + self.target_seconds + self.comm_seconds
        )

    def seconds_for_kind(self, kind: str) -> float:
        """Total time of operations of one kind (scan/combine/...)."""
        return sum(
            timing.seconds
            for timing in self.op_timings
            if timing.kind == kind
        )


class _ZeroCostChannel:
    """Accounts bytes but charges no transfer time (LAN-of-zero-latency):
    the feed size a byte-counting ``InProcessTransport`` charges."""

    def ship_batch(self, batch: "ColumnBatch") -> Shipment:
        return Shipment(batch.feed_size(), 0.0)


class ProgramExecutor:
    """Runs placed programs against a source and a target endpoint.

    The Write-rooted chains run one after another on the calling
    thread, in topological order — the paper's sequential execution.

    ``batch_rows`` is the size of the batches that flow along the
    edges: ``None`` (default, the paper's setup) moves each feed as one
    unbounded batch, an integer moves slices of that many rows — same
    written output, resident rows bounded by the batch size times the
    pipeline depth.  Every batch is a
    :class:`~repro.core.columnar.ColumnBatch`; a fragment that does not
    flatten moves as one stream per flat part (see
    :mod:`repro.core.program.run`).

    ``retry`` arms the reliable shipping layer (see
    :mod:`repro.net.faults`): cross-edge sends that fail with a
    transport error are re-sent per the policy, duplicate deliveries
    are discarded, re-ordered batch streams are re-assembled.  Without
    it a transport failure propagates (fail-fast).  ``journal`` arms
    checkpoint/resume: completed writes — and, for endpoints that load
    incrementally, individual stored batches — are acknowledged as the
    run progresses, and a rerun over the same journal skips the
    acknowledged work instead of re-shipping it.
    """

    def __init__(self, source: DataEndpoint, target: DataEndpoint,
                 channel: ShippingChannel | None = None,
                 batch_rows: int | None = None,
                 retry: "RetryPolicy | None" = None,
                 journal: ExchangeJournal | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if batch_rows is not None and batch_rows < 1:
            raise ValueError("batch_rows must be >= 1 or None")
        self.source = source
        self.target = target
        self.channel: ShippingChannel = channel or _ZeroCostChannel()
        self.batch_rows = batch_rows
        self.retry = retry
        self.journal = journal
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics

    def run(self, program: TransferProgram,
            placement: Placement | None = None) -> ExecutionReport:
        """Execute ``program`` under ``placement`` and return metrics.

        Raises:
            ProgramError: if the program is malformed or leaves
                unconsumed outputs.
            PlacementError: if the placement is illegal or incomplete.
        """
        # Deferred: the run imports the reliable shipping layer, which
        # imports this module for :class:`Shipment`.
        from repro.core.program.run import ProgramRun

        program.validate()
        if placement is None:
            placement = program.placement_from_nodes()
        program.validate_placement(placement)
        return ProgramRun(
            program, placement, self.source, self.target,
            self.channel, self.batch_rows,
            retry=self.retry, journal=self.journal,
            tracer=self.tracer, metrics=self.metrics,
        ).drive()


def apply_robustness(report: ExecutionReport, stats) -> None:
    """Fold a :class:`~repro.net.faults.RobustnessStats` into the
    report.

    Per-edge counters are *added* to
    whatever the report already holds — when several reliable links
    (or several runs merging into one stats object) touched the same
    edge, their counts sum instead of the last writer winning.
    """
    report.retries += stats.retries
    report.redelivered_batches += stats.redelivered
    for edge, count in stats.retries_by_edge.items():
        report.retries_by_edge[edge] = (
            report.retries_by_edge.get(edge, 0) + count
        )
    for edge, count in stats.redelivered_by_edge.items():
        report.redelivered_by_edge[edge] = (
            report.redelivered_by_edge.get(edge, 0) + count
        )

