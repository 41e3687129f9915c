"""The execution core: one placed program, run as a batch pipeline.

The placed DAG is compiled into a network of lazy batch iterators —
Scan streams off the endpoint, Combine/Split transform per batch,
cross-edges ship each batch through the channel as its own message —
and the Write nodes *drive* the network by pulling: a batch travels
the whole chain scan → transform → ship → load before the next one is
produced.

How a stream is represented is read off its fragment, not chosen: a
flat-storable fragment moves as
:class:`~repro.core.columnar.ColumnBatch` columns (Scan slices the
sorted feed, Combine is the build/probe join, Split a projection,
Write a bulk load — no trees anywhere), and only a fragment with
repeated inner elements, which does not flatten, moves as
:class:`~repro.core.stream.RowBatch` trees through the row kernels.
Where the two meet — a Combine that inlines a repeated child, a Split
of a non-flat fragment into flat pieces — the flat side is converted
at that node.

How large a batch is depends on ``batch_rows`` alone.  ``None`` makes
every stream exactly one unbounded batch without a ``seq`` — each edge
ships one monolithic message, the paper's setup.  An integer cuts
streams into numbered slices of that many rows, so resident rows stay
bounded by the batch size times the pipeline depth (plus Combine's
child frontier) instead of the document size.

The Writes drive one after another in topological order on the
calling thread; a run is touched by that thread alone.

Journal resume and delta views wrap this one graph: the journal
decides which Writes get a drive and which batches bypass the wire,
and the delta views stand in for the endpoints.  The placement is
fixed before anything runs and never changes mid-flight.

Accounting: per-operation seconds measure each node's own work
(upstream production pulled from inside a consumer is charged to the
producer, not the consumer), and shipment / peak-memory fields follow
the single definition on
:class:`~repro.core.program.executor.ExecutionReport`.
"""

from __future__ import annotations

import sys
import time
from typing import Iterator

from repro.errors import ProgramError
from repro.core.columnar import ColumnBatch
from repro.core.ops.base import Location, Operation
from repro.core.ops.combine import Combine, JoinStatistics
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import (
    DataEndpoint,
    ExecutionReport,
    OperationTiming,
    ShippingChannel,
    apply_robustness,
)
from repro.core.program.journal import ExchangeJournal, write_key
from repro.core.stream import FragmentStream, ResidencyMeter, RowBatch
from repro.net.faults import (
    ReliableBatchLink,
    RetryPolicy,
    RobustnessStats,
)
from repro.obs.metrics import (
    MetricsRegistry,
    observe_join,
    observe_operation,
    observe_shipment,
)
from repro.obs.trace import NULL_TRACER, Tracer


#: ``batch_rows`` an unbatched run asks the endpoints for: the whole
#: feed in one batch.
_WHOLE_FEED = sys.maxsize


class _NodeStats:
    """Per-node accumulators filled while batches flow."""

    __slots__ = ("started", "seconds", "rows")

    def __init__(self) -> None:
        #: When the node first did any work (its span's start).
        self.started: float | None = None
        self.seconds = 0.0
        self.rows = 0


def _whole_feed(batches: Iterator[RowBatch], fragment,
                columnar: bool) -> Iterator[RowBatch]:
    """An unbatched stream: the whole feed as exactly one ``seq``-less
    batch.  An empty feed still crosses its edges, as one empty
    message.

    Raises:
        ProgramError: if the endpoint cut the feed up regardless.
    """
    batch = next(batches, None)
    if batch is None:
        make = ColumnBatch.from_rows if columnar else RowBatch
        batch = make(fragment, [], None)
    batch.seq = None
    yield batch
    if next(batches, None) is not None:
        raise ProgramError(
            f"scan of fragment {fragment.name!r} returned several "
            f"batches for batch_rows={_WHOLE_FEED}"
        )


class ProgramRun:
    """One execution of a placed program."""

    def __init__(self, program: TransferProgram, placement: Placement,
                 source: DataEndpoint, target: DataEndpoint,
                 channel: ShippingChannel, batch_rows: int | None,
                 retry: RetryPolicy | None = None,
                 journal: ExchangeJournal | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.program = program
        self.placement = placement
        self.source = source
        self.target = target
        self.channel = channel
        self.batch_rows = batch_rows
        self.retry = retry
        self.journal = journal
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self._rstats = RobustnessStats()
        self.report = ExecutionReport(batch_rows=batch_rows)
        self.meter = ResidencyMeter()
        self._stats = {
            node.op_id: _NodeStats() for node in program.nodes
        }
        #: Per-op batch representation actually used ("row" when
        #: absent; "columnar" for a columnar scan/split/write, the
        #: join strategy for a columnar combine) — reported on each
        #: OperationTiming.
        self._strategies: dict[int, str] = {}
        self._leftovers: list[tuple[int, int]] = []

    # -- driving ----------------------------------------------------------------

    def drive(self) -> ExecutionReport:
        """Drive every Write, in topological order, on this thread."""
        started = time.perf_counter()
        if self.journal is not None:
            self.report.resume_count = self.journal.begin_run()
        for drive in self._build():
            self._drive_write(*drive)
        return self._finish(started)

    def _finish(self, started: float) -> ExecutionReport:
        if self._leftovers:
            leftovers = ", ".join(
                f"op {op_id} port {port}"
                for op_id, port in self._leftovers
            )
            raise ProgramError(f"unconsumed program outputs: {leftovers}")
        report = self.report
        for node in self.program.topological_order():
            stats = self._stats[node.op_id]
            location = self.placement[node.op_id]
            strategy = self._strategies.get(node.op_id, "row")
            report.op_timings.append(
                OperationTiming(node.label(), node.kind, location,
                                stats.seconds, stats.rows, node.op_id,
                                strategy)
            )
            report.comp_seconds[location] += stats.seconds
            if node.kind == "write":
                report.rows_written += stats.rows
            # Work is interleaved batch by batch, so a node's span is
            # the per-node aggregate, anchored where the node first
            # did any work (see docs/observability.md).
            self.tracer.record(
                node.label(), "op",
                start=started if stats.started is None
                else stats.started,
                seconds=stats.seconds, op_id=node.op_id,
                kind=node.kind, location=location.name.lower(),
                rows=stats.rows, strategy=strategy,
            )
            observe_operation(
                self.metrics, node.kind, stats.seconds, stats.rows
            )
        report.peak_resident_rows = self.meter.peak_rows
        apply_robustness(report, self._rstats)
        report.wall_seconds = time.perf_counter() - started
        return report

    # -- compiling the DAG into a batch network ---------------------------------

    def _build(self) -> list[tuple[Write, DataEndpoint,
                                   Iterator[RowBatch], int]]:
        """Wire every node's output iterators; return the Write drives.

        Resume (journal set): a write acknowledged by an earlier
        attempt gets no drive at all — its input iterator is wired but
        never pulled, so nothing upstream of it is recomputed or
        re-shipped.  A partially-stored write into an endpoint that
        loads incrementally resumes mid-stream: batches up to the
        acknowledged high-water mark (``skip_through``) replay through
        the pipeline but bypass the wire and the store.
        """
        # Output streams by producer port; None once consumed.
        streams: dict[tuple[int, int],
                      tuple[Iterator[RowBatch], Location] | None
                      ] = {}
        drives: list[tuple[Write, DataEndpoint,
                           Iterator[RowBatch], int]] = []
        for node in self.program.topological_order():
            location = self.placement[node.op_id]
            endpoint = (
                self.source if location is Location.SOURCE
                else self.target
            )
            done = False
            skip_through = -1
            if isinstance(node, Write) and self.journal is not None:
                jkey = write_key(node.op_id, node.fragment.name)
                done = self.journal.write_done(jkey)
                if not done and self._acks_batches(endpoint):
                    skip_through = self.journal.acked_through(jkey)
            inputs: list[Iterator[RowBatch]] = []
            input_columnar: list[bool] = []
            for edge in self.program.in_edges(node):
                key = (edge.producer.op_id, edge.output_index)
                wired = streams.get(key)
                if wired is None:
                    detail = "consumed twice" if key in streams else (
                        "was never produced (malformed edge or "
                        "missing operation output)"
                    )
                    raise ProgramError(
                        f"value for {edge.producer.label()} output "
                        f"{edge.output_index} {detail}"
                    )
                streams[key] = None
                iterator, holder = wired
                # The one dataplane rule: a flat-storable fragment
                # travels as columns, anything else as row trees.
                is_columnar = edge.fragment.is_flat_storable()
                if holder is not location and not done:
                    iterator = self._shipped(
                        key, iterator, skip_through
                    )
                inputs.append(iterator)
                input_columnar.append(is_columnar)
            outputs: list[Iterator[RowBatch]]
            strategy = "columnar"
            if isinstance(node, Scan):
                flat = node.fragment.is_flat_storable()
                outputs = [self._scan_batches(node, endpoint, flat)]
            elif isinstance(node, Combine):
                # A flat result means both inputs are flat too.
                flat = node.result.is_flat_storable()
                if flat:
                    outputs = [node.apply_column_batches(
                        inputs[0], inputs[1],
                        tick=self._ticker(node), meter=self.meter,
                        observe=self._join_observer(node),
                    )]
                    # Pre-seed; the join observer overwrites with the
                    # strategy actually selected once the build
                    # finishes.
                    strategy = "hash"
                else:
                    outputs = [node.apply_batches(
                        self._as_rows(inputs[0], input_columnar[0]),
                        self._as_rows(inputs[1], input_columnar[1]),
                        tick=self._ticker(node), meter=self.meter,
                    )]
            elif isinstance(node, Split):
                # The pieces of a flat fragment are flat too.
                flat = input_columnar[0]
                if flat:
                    outputs = node.apply_column_batches(
                        inputs[0], tick=self._ticker(node),
                        meter=self.meter,
                    )
                else:
                    outputs = [
                        self._as_columns(pieces)
                        if piece.is_flat_storable() else pieces
                        for piece, pieces in zip(
                            node.pieces,
                            node.apply_batches(
                                inputs[0], tick=self._ticker(node),
                                meter=self.meter,
                            ),
                        )
                    ]
            elif isinstance(node, Write):
                if not done:
                    drives.append(
                        (node, endpoint, inputs[0], skip_through)
                    )
                flat = input_columnar[0]
                outputs = []
            else:
                raise ProgramError(
                    f"unknown operation kind {node.kind!r}"
                )
            if flat:
                self._strategies[node.op_id] = strategy
            for index, output in enumerate(outputs):
                streams[(node.op_id, index)] = (output, location)
        # Whatever was wired but never consumed is exactly the
        # program's statically dangling ports.
        self._leftovers = self.program.dangling_ports()
        assert self._leftovers == sorted(
            key for key, wired in streams.items() if wired is not None
        )
        return drives

    def _acks_batches(self, endpoint: DataEndpoint) -> bool:
        """Whether writes into ``endpoint`` are journaled batch by
        batch.  Per-batch acknowledgements are only meaningful for
        endpoints that store each batch as it arrives; a materializing
        endpoint replaces the whole instance at end of stream — and an
        unbatched stream *is* one batch — so a partial run stored
        nothing and only the whole-write ack holds."""
        return (
            self.journal is not None
            and self.batch_rows is not None
            and getattr(endpoint, "incremental_writes", False)
        )

    def _ticker(self, node: Operation):
        stats = self._stats[node.op_id]

        def tick(seconds: float, rows: int) -> None:
            if stats.started is None:
                stats.started = time.perf_counter() - seconds
            stats.seconds += seconds
            stats.rows += rows

        return tick

    def _join_observer(self, node: Combine):
        """Callback recording a columnar combine's join statistics."""

        def observe(join: JoinStatistics) -> None:
            self._strategies[node.op_id] = join.strategy
            observe_join(
                self.metrics, join.strategy, join.build_rows,
                join.probe_rows, join.build_seconds,
                join.probe_seconds, join.hash_table_rows,
            )

        return observe

    @staticmethod
    def _as_rows(iterator: Iterator[RowBatch],
                 is_columnar: bool) -> Iterator[RowBatch]:
        """Bridge a columnar stream to row batches (a flat input of a
        Combine whose result does not flatten)."""
        if not is_columnar:
            return iterator
        return (batch.to_row_batch() for batch in iterator)

    @staticmethod
    def _as_columns(iterator: Iterator[RowBatch]
                    ) -> Iterator[RowBatch]:
        """Bridge a row stream to columnar batches (a flat piece of a
        Split whose input does not flatten)."""
        return (ColumnBatch.from_row_batch(batch) for batch in iterator)

    # -- per-kind batch stages -----------------------------------------------------

    def _scan_batches(self, node: Scan, endpoint: DataEndpoint,
                      columnar: bool) -> Iterator[RowBatch]:
        tick = self._ticker(node)
        scan = (
            endpoint.scan_stream_columnar if columnar
            else endpoint.scan_stream
        )

        def generate() -> Iterator[RowBatch]:
            iterator = iter(scan(
                node.fragment, self.batch_rows or _WHOLE_FEED
            ))
            if self.batch_rows is None:
                iterator = _whole_feed(
                    iterator, node.fragment, columnar
                )
            while True:
                started = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    tick(time.perf_counter() - started, 0)
                    return
                tick(time.perf_counter() - started, batch.row_count())
                self.meter.acquire(batch.row_count())
                yield batch

        return generate()

    def _shipped(self, key: tuple[int, int],
                 iterator: Iterator[RowBatch],
                 skip_through: int = -1) -> Iterator[RowBatch]:
        report = self.report
        report.shipments += 1
        report.shipment_bytes.setdefault(key, 0)
        report.shipment_seconds.setdefault(key, 0.0)
        report.shipment_batches.setdefault(key, 0)
        link = None
        if self.retry is not None:
            link = ReliableBatchLink(
                self.channel, self.retry, self._rstats, edge=key,
                start_seq=skip_through + 1, tracer=self.tracer,
            )

        def account(shipment, batch: RowBatch,
                    started: float) -> None:
            report.comm_bytes += shipment.bytes_sent
            report.comm_seconds += shipment.seconds
            report.shipment_bytes[key] += shipment.bytes_sent
            report.shipment_seconds[key] += shipment.seconds
            report.shipment_batches[key] += 1
            fragment = batch.fragment.name
            chunked = batch.seq is not None
            self.tracer.record(
                f"batch {batch.seq} {fragment}" if chunked
                else f"ship {fragment}",
                "batch" if chunked else "ship",
                start=started, seconds=shipment.seconds,
                edge_op=key[0], edge_port=key[1], seq=batch.seq,
                bytes=shipment.bytes_sent, fragment=fragment,
            )
            observe_shipment(
                self.metrics, shipment.bytes_sent, shipment.seconds,
                batch=chunked,
            )

        def generate() -> Iterator[RowBatch]:
            for batch in iterator:
                if skip_through >= 0 and batch.seq <= skip_through:
                    # Already stored by the consumer in an earlier
                    # attempt — replay it past the wire unshipped (the
                    # write skips it too).
                    yield batch
                    continue
                started = time.perf_counter()
                if link is not None:
                    shipment, delivered = link.send(batch)
                    account(shipment, batch, started)
                    yield from delivered
                else:
                    shipment = self.channel.ship_batch(batch)
                    account(shipment, batch, started)
                    yield batch
            if link is not None:
                yield from link.finish()

        return generate()

    def _drive_write(self, node: Write, endpoint: DataEndpoint,
                     batches: Iterator[RowBatch],
                     skip_through: int = -1) -> None:
        jkey = write_key(node.op_id, node.fragment.name)
        incremental = self._acks_batches(endpoint)
        pull_seconds = 0.0
        rows_total = 0
        pending_release: int | None = None
        pending_ack: int | None = None

        def instrumented() -> Iterator[RowBatch]:
            nonlocal pull_seconds, rows_total, pending_release, \
                pending_ack
            iterator = iter(batches)
            while True:
                # Resuming the pull means the endpoint finished
                # storing the previously yielded batch — acknowledge
                # it now, before anything else can fail.
                if pending_ack is not None:
                    self.journal.ack_batch(jkey, pending_ack)
                    pending_ack = None
                started = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    pull_seconds += time.perf_counter() - started
                    return
                pull_seconds += time.perf_counter() - started
                if pending_release is not None:
                    self.meter.release(pending_release)
                    pending_release = None
                if skip_through >= 0 and batch.seq <= skip_through:
                    # Stored by an earlier attempt; don't load again.
                    self.meter.release(batch.row_count())
                    continue
                pending_release = batch.row_count()
                if incremental:
                    pending_ack = batch.seq
                rows_total += batch.row_count()
                yield batch

        started = time.perf_counter()
        endpoint.write_stream(
            node.fragment, FragmentStream(node.fragment, instrumented())
        )
        elapsed = (time.perf_counter() - started) - pull_seconds
        if pending_release is not None:
            self.meter.release(pending_release)
        if self.journal is not None:
            if pending_ack is not None:
                self.journal.ack_batch(jkey, pending_ack)
            self.journal.ack_write(jkey)
        self._ticker(node)(max(elapsed, 0.0), rows_total)
