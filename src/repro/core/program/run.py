"""The execution core: one placed program, run as a batch pipeline.

The placed DAG is compiled into a network of lazy batch iterators —
Scan streams off the endpoint, Combine/Split transform per batch,
cross-edges ship each batch through the channel as its own message —
and the Write nodes *drive* the network by pulling: a batch travels
the whole chain scan → transform → ship → load before the next one is
produced.

Every batch is a :class:`~repro.core.columnar.ColumnBatch` and every
hop a tuple feed: Scan slices the sorted feed, Combine is the
build/probe join, Split a projection, Write a bulk load — no trees
anywhere.  A fragment with repeated inner elements does not flatten,
so it moves as its flat parts
(:meth:`~repro.core.fragment.Fragment.flat_parts`): the flat fragments
it is the Combine of, each a column stream of its own, keyed to the
others by ID/PARENT — the paper's own representation of an instance.
An edge carries one stream per part of its fragment (a single one when
the fragment is flat), and each part stream crosses the wire as its
own feed.  A Combine whose result does not flatten joins, with the
same kernel, only the part its child's root joins when that root is
not repeated, and otherwise passes the child's parts through beside
the parent's, holding the child's PARENT keys against the anchors that
passed; a Split of a fragment that does not flatten projects each part
onto the parts of the pieces it holds.  Parts exist only inside a run:
the program, its costs and its placement name whole fragments, and a
store that holds trees combines the parts back
(:meth:`~repro.core.program.executor.DataEndpoint.write_parts`).

How large a batch is depends on ``batch_rows`` alone.  ``None`` makes
every stream exactly one unbounded batch without a ``seq`` — each edge
ships one monolithic message per part, the paper's setup.  An integer
cuts streams into numbered slices of that many rows, so resident rows
stay bounded by the batch size times the pipeline depth (plus
Combine's child frontier) instead of the document size.

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

from repro.errors import OperationError, ProgramError
from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.instance import combine_orphan_message
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
)
from repro.core.program.journal import ExchangeJournal, write_key
from repro.core.stream import FragmentStream, ResidencyMeter
from repro.net.faults import ReliableBatchLink, RetryPolicy
from repro.obs.trace import NULL_TRACER, Tracer


#: ``batch_rows`` an unbatched run asks the endpoints for: the whole
#: feed in one batch.
_WHOLE_FEED = sys.maxsize

#: What flows along an edge: one column stream per flat part of its
#: fragment, in :meth:`~repro.core.fragment.Fragment.flat_parts` order
#: (a flat fragment is its own single part).
Streams = dict[Fragment, Iterator[ColumnBatch]]


class _NodeStats:
    """Per-node accumulators filled while batches flow."""

    __slots__ = ("started", "seconds", "rows", "join")

    def __init__(self) -> None:
        #: When the node first did any work (its span's start).
        self.started: float | None = None
        self.seconds = 0.0
        self.rows = 0
        #: What a Combine's join did, once its parent stream ended.
        self.join: JoinStatistics | None = None


def _whole_feed(batches: Iterator[ColumnBatch],
                fragment: Fragment) -> Iterator[ColumnBatch]:
    """An unbatched stream: the whole feed as exactly one ``seq``-less
    batch.  An empty feed still crosses its edges, as one empty
    message.

    Raises:
        ProgramError: if the endpoint cut the feed up regardless.
    """
    batch = next(batches, None)
    if batch is None:
        batch = ColumnBatch.from_rows(fragment, [], None)
    batch.seq = None
    yield batch
    if next(batches, None) is not None:
        raise ProgramError(
            f"scan of fragment {fragment.name!r} returned several "
            f"batches for batch_rows={_WHOLE_FEED}"
        )


def _joins(node: Combine) -> bool:
    """Whether ``node`` joins its child's root part into the parent's;
    a repeated child root passes through beside the parent instead."""
    return not node.result.schema.node(
        node.child_fragment.root_name
    ).cardinality.repeated


def _named(part: Fragment, name: str) -> Fragment:
    """``part`` under ``name`` (equal to ``part``: names play no part
    in equality) — so that a join of two parts reports its errors in
    the names of the fragments the program combines."""
    return Fragment(part.schema, part.elements, name)


class ProgramRun:
    """One execution of a placed program."""

    def __init__(self, program: TransferProgram, placement: Placement,
                 source: DataEndpoint, target: DataEndpoint,
                 channel: ShippingChannel, batch_rows: int | None,
                 retry: RetryPolicy | None = None,
                 journal: ExchangeJournal | None = None,
                 tracer: Tracer | None = None) -> None:
        self.program = program
        self.placement = placement
        self.source = source
        self.target = target
        self.channel = channel
        self.batch_rows = batch_rows
        self.retry = retry
        self.journal = journal
        self.tracer = tracer or NULL_TRACER
        self.report = ExecutionReport(batch_rows=batch_rows)
        self.meter = ResidencyMeter()
        self._stats = {
            node.op_id: _NodeStats() for node in program.nodes
        }
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
            join = stats.join
            # A join wired but never pulled (its Write was journaled
            # done) probed nothing, and nothing failed to line up.
            strategy = (
                join.strategy if join is not None
                else "aligned" if isinstance(node, Combine)
                and _joins(node) else "columnar"
            )
            report.op_timings.append(
                OperationTiming(node.label(), node.kind, location,
                                stats.seconds, stats.rows, node.op_id,
                                strategy, join)
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
        report.peak_resident_rows = self.meter.peak_rows
        report.wall_seconds = time.perf_counter() - started
        return report

    # -- compiling the DAG into a batch network ---------------------------------

    def _build(self) -> list[tuple[Write, DataEndpoint, Streams, int]]:
        """Wire every node's output streams; return the Write drives.

        Resume (journal set): a write acknowledged by an earlier
        attempt gets no drive at all — its input streams are wired but
        never pulled, so nothing upstream of it is recomputed or
        re-shipped.  A partially-stored write into an endpoint that
        loads incrementally resumes mid-stream: batches up to the
        acknowledged high-water mark (``skip_through``) replay through
        the pipeline but bypass the wire and the store.
        """
        # Output streams by producer port; None once consumed.
        streams: dict[tuple[int, int], tuple[Streams, Location] | None] \
            = {}
        drives: list[tuple[Write, DataEndpoint, Streams, int]] = []
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
                if not done and self._acks_batches(endpoint,
                                                   node.fragment):
                    skip_through = self.journal.acked_through(jkey)
            inputs: list[Streams] = []
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
                parts, holder = wired
                if holder is not location and not done:
                    # One shipment per edge; every part its own stream
                    # (own sequence numbers) on the wire.
                    self.report.shipments += 1
                    flat = len(parts) == 1
                    parts = {
                        part: self._shipped(
                            key if flat else (*key, index), batches,
                            skip_through,
                        )
                        for index, (part, batches)
                        in enumerate(parts.items())
                    }
                inputs.append(parts)
            outputs: list[Streams]
            if isinstance(node, Scan):
                outputs = [self._scan(node, endpoint)]
            elif isinstance(node, Combine):
                outputs = [self._combine(node, *inputs)]
            elif isinstance(node, Split):
                outputs = self._split(node, inputs[0])
            elif isinstance(node, Write):
                if not done:
                    drives.append(
                        (node, endpoint, inputs[0], skip_through)
                    )
                outputs = []
            else:
                raise ProgramError(
                    f"unknown operation kind {node.kind!r}"
                )
            for index, output in enumerate(outputs):
                streams[(node.op_id, index)] = (output, location)
        # Whatever was wired but never consumed is exactly the
        # program's statically dangling ports.
        self._leftovers = self.program.dangling_ports()
        assert self._leftovers == sorted(
            key for key, wired in streams.items() if wired is not None
        )
        return drives

    def _acks_batches(self, endpoint: DataEndpoint,
                      fragment: Fragment) -> bool:
        """Whether writes of ``fragment`` into ``endpoint`` are
        journaled batch by batch.  Per-batch acknowledgements are only
        meaningful for endpoints that store each batch as it arrives,
        and for one stream: a materializing endpoint replaces the
        whole instance at end of stream — an unbatched stream *is* one
        batch, and a fragment that does not flatten arrives as several
        part streams — so a partial run stored nothing and only the
        whole-write ack holds."""
        return (
            self.journal is not None
            and self.batch_rows is not None
            and getattr(endpoint, "incremental_writes", False)
            and fragment.is_flat_storable()
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
        """Callback keeping a combine's join statistics with it."""
        stats = self._stats[node.op_id]

        def observe(join: JoinStatistics) -> None:
            stats.join = join

        return observe

    # -- per-kind batch stages -----------------------------------------------------

    def _scan(self, node: Scan, endpoint: DataEndpoint) -> Streams:
        """The scanned feed, one stream per flat part.  The endpoint
        is asked on the first pull of any of them."""
        fragment = node.fragment
        parts = fragment.flat_parts()
        batch_rows = self.batch_rows or _WHOLE_FEED
        tick = self._ticker(node)
        opened: dict[Fragment, FragmentStream] = {}

        def generate(part: Fragment) -> Iterator[ColumnBatch]:
            started = time.perf_counter()
            if not opened:
                opened.update(
                    {fragment: endpoint.scan_stream_columnar(
                        fragment, batch_rows
                    )} if len(parts) == 1
                    else endpoint.scan_parts(fragment, batch_rows)
                )
            iterator = iter(opened[part])
            if self.batch_rows is None:
                iterator = _whole_feed(iterator, part)
            tick(time.perf_counter() - started, 0)
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

        return {part: generate(part) for part in parts}

    def _combine(self, node: Combine, parent: Streams,
                 child: Streams) -> Streams:
        """Join the part the child's root joins — the whole result when
        it is flat — or, when that root is repeated, pass the child's
        parts through beside the parent's."""
        result = node.result
        result_parts = result.flat_parts()
        kernel = {
            "tick": self._ticker(node), "meter": self.meter,
            "observe": self._join_observer(node),
        }
        if len(result_parts) == 1:
            # A flat result means both inputs are flat too.
            return {result: node.apply_column_batches(
                *parent.values(), *child.values(), **kernel
            )}
        anchor = node.child_fragment.parent_element()
        anchor_part = next(part for part in parent
                           if anchor in part.elements)
        root_part = next(iter(child))  # the child's root part
        streams = {**parent, **child}
        if _joins(node):
            joined = next(part for part in result_parts
                          if part.root_name == anchor_part.root_name)
            streams[joined] = Combine(
                _named(anchor_part, node.parent_fragment.name),
                _named(root_part, node.child_fragment.name),
                result=joined,
            ).apply_column_batches(
                streams.pop(anchor_part), streams.pop(root_part),
                **kernel,
            )
        else:
            streams[anchor_part], streams[root_part] = \
                self._orphan_checked(node, anchor_part,
                                     streams[anchor_part],
                                     streams[root_part])
        return {part: streams[part] for part in result_parts}

    def _orphan_checked(self, node: Combine, anchor_part: Fragment,
                        parent: Iterator[ColumnBatch],
                        child: Iterator[ColumnBatch]
                        ) -> tuple[Iterator[ColumnBatch],
                                   Iterator[ColumnBatch]]:
        """Pass a repeated child's root part through beside the parent
        part it hangs under, collecting the anchor occurrences and the
        child's PARENT keys that pass: once both streams have ended,
        keys that matched no anchor raise as the join's orphans do."""
        tick = self._ticker(node)
        anchor_column = layout_of(anchor_part).eid_column(
            node.child_fragment.parent_element()
        )
        anchors: set[int | None] = set()
        keys: list[int | None] = []
        running = 2

        def watch(batches: Iterator[ColumnBatch], column: str,
                  collect, parent_side: bool) -> Iterator[ColumnBatch]:
            nonlocal running
            for batch in batches:
                started = time.perf_counter()
                collect(batch.column(column))
                tick(time.perf_counter() - started,
                     batch.row_count() if parent_side else 0)
                yield batch
            running -= 1
            if running:
                return
            anchors.discard(None)
            orphans = [key for key in keys if key not in anchors]
            if orphans:
                raise OperationError(combine_orphan_message(
                    node.parent_fragment.name, node.child_fragment.name,
                    orphans,
                ))

        return (watch(parent, anchor_column, anchors.update, True),
                watch(child, "parent", keys.extend, False))

    def _split(self, node: Split, parts: Streams) -> list[Streams]:
        """Each part is projected onto the parts of the pieces it
        holds — exactly its non-empty intersections with the pieces
        (a part inside one piece passes through whole)."""
        pieces = [piece.flat_parts() for piece in node.pieces]
        outputs: Streams = {}
        for part, batches in parts.items():
            cut = [piece_part for piece_parts in pieces
                   for piece_part in piece_parts
                   if piece_part.elements <= part.elements]
            if part == node.fragment:  # a flat input: its pieces
                op = node
            elif len(cut) == 1:
                outputs[cut[0]] = batches
                continue
            else:
                op = Split(part, cut)
            outputs.update(zip(cut, op.apply_column_batches(
                batches, tick=self._ticker(node), meter=self.meter,
            )))
        return [
            {part: outputs[part] for part in piece_parts}
            for piece_parts in pieces
        ]

    def _shipped(self, key: tuple[int, ...],
                 iterator: Iterator[ColumnBatch],
                 skip_through: int = -1) -> Iterator[ColumnBatch]:
        """Ship one stream of the edge ``key[:2]``; ``key`` itself —
        the edge, plus the part index for a part stream — scopes the
        reliable link's sequence space."""
        report = self.report
        edge = key[:2]
        report.shipment_bytes.setdefault(edge, 0)
        report.shipment_seconds.setdefault(edge, 0.0)
        report.shipment_batches.setdefault(edge, 0)
        link = None
        if self.retry is not None:
            link = ReliableBatchLink(
                self.channel, self.retry, report, edge=key,
                start_seq=skip_through + 1, tracer=self.tracer,
            )

        def account(shipment, batch: ColumnBatch,
                    started: float) -> None:
            report.comm_bytes += shipment.bytes_sent
            report.comm_seconds += shipment.seconds
            report.shipment_bytes[edge] += shipment.bytes_sent
            report.shipment_seconds[edge] += shipment.seconds
            report.shipment_batches[edge] += 1
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

        def generate() -> Iterator[ColumnBatch]:
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
                     parts: Streams, skip_through: int = -1) -> None:
        jkey = write_key(node.op_id, node.fragment.name)
        incremental = self._acks_batches(endpoint, node.fragment)
        pull_seconds = 0.0
        rows_total = 0
        pending_release: int | None = None
        pending_ack: int | None = None

        def instrumented(batches: Iterator[ColumnBatch]
                         ) -> Iterator[ColumnBatch]:
            nonlocal pull_seconds, rows_total, pending_release, \
                pending_ack
            while True:
                # Resuming the pull means the endpoint finished
                # storing the previously yielded batch — acknowledge
                # it now, before anything else can fail.
                if pending_ack is not None:
                    self.journal.ack_batch(jkey, pending_ack)
                    pending_ack = None
                started = time.perf_counter()
                try:
                    batch = next(batches)
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
        fragment = node.fragment
        if len(parts) == 1:  # a flat fragment
            [batches] = parts.values()
            endpoint.write_stream(
                fragment, FragmentStream(fragment, instrumented(batches))
            )
        else:
            endpoint.write_parts(fragment, {
                part: FragmentStream(part, instrumented(batches))
                for part, batches in parts.items()
            })
        elapsed = (time.perf_counter() - started) - pull_seconds
        if pending_release is not None:
            self.meter.release(pending_release)
        if self.journal is not None:
            if pending_ack is not None:
                self.journal.ack_batch(jkey, pending_ack)
            self.journal.ack_write(jkey)
        self._ticker(node)(max(elapsed, 0.0), rows_total)
