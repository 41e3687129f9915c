"""One execution core: every configuration writes the same bytes.

The byte-identity invariant over the product of the executor's knobs —
batch size × journal (none, or killed mid-run and resumed) — on
inputs whose fragments all flatten and on inputs holding fragments
that do not (the customer scenario and its whole-document
fragmentation, over the simulated wire and over TCP into a live
``FeedSink``), plus the wire contract of unbatched runs: a
``batch_rows=None`` exchange ships exactly the one
``wrap_fragment_feed`` message per cross-edge that the paper's setup
sends.
"""

import random

import pytest

from repro.core.fragmentation import Fragmentation
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.ops.scan import Scan
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.program.journal import ExchangeJournal
from repro.net.server import FeedSink
from repro.net.soap import wrap_fragment_feed
from repro.net.transport import (
    InProcessTransport,
    SimulatedChannel,
    TcpTransport,
)
from repro.relational.publisher import publish_document
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.services.exchange import run_publish_and_map
from repro.workloads.customer import (
    fragment_customers,
    generate_customer_instances,
)

from tests.documents import generate_document, random_schema
from tests.integration.test_crash_resume import KillSwitch
from tests.integration.test_random_roundtrips import flat_fragmentation


@pytest.fixture(scope="module")
def exchange():
    """A seeded exchange with splits, combines and several writes."""
    rng = random.Random(5)
    schema = random_schema(10, seed=5, repeat_prob=0.6)
    source_frag = flat_fragmentation(schema, rng, "A")
    target_frag = flat_fragmentation(schema, rng, "B")
    source = RelationalEndpoint("A", source_frag)
    source.load_document(generate_document(schema, seed=5, max_repeat=6))
    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    reference = publish_document(source.db, source.mapper).document
    return source, target_frag, program, reference


def _assembled(endpoint, fragmentation):
    """The document an in-memory endpoint's fragments add up to."""
    pending = [endpoint.scan(fragment) for fragment in fragmentation]
    whole = next(instance for instance in pending
                 if instance.fragment.parent_element() is None)
    pending.remove(whole)
    while pending:
        child = next(
            instance for instance in pending
            if instance.fragment.parent_element()
            in whole.fragment.elements
        )
        pending.remove(child)
        whole = whole.combine(child)
    [row] = whole.rows
    return row.data


def target_heavy_placement(program):
    """Scans at the source, everything else at the target: every
    scanned fragment crosses the wire."""
    return {
        node.op_id: (
            Location.SOURCE if isinstance(node, Scan)
            else Location.TARGET
        )
        for node in program.nodes
    }


@pytest.fixture(scope="module")
def adapter_exchanges(customers_s, customers_t, customers_schema):
    """Fragments that do not flatten: the customer scenario on
    in-memory endpoints, S -> T, T -> S, S -> DOC and DOC -> T, where
    DOC is the whole-document fragmentation.  S holds
    ``Line_Feature`` with its repeated ``Feature`` inside: S -> T
    splits it into flat pieces, T -> S combines two flat streams into
    it.  DOC repeats ``Order``, ``Line`` and ``Feature`` at three
    depths.  S -> DOC runs with every combine at the target, so all
    five S fragments cross the wire.  The reference is what
    publish&map leaves a relational target publishing."""
    document = generate_customer_instances(1, seed=11)[0]
    flat = customers_t  # every T fragment flattens
    relational = RelationalEndpoint("S-flat", flat)
    relational.load_document(document)
    mapped = RelationalEndpoint("T-flat", flat)
    run_publish_and_map(relational, mapped, SimulatedChannel())
    reference = publish_document(mapped.db, mapped.mapper).document
    whole = Fragmentation.whole_document(customers_schema)
    exchanges = []
    for source_frag, target_frag, place in (
            (customers_s, customers_t, source_heavy_placement),
            (customers_t, customers_s, source_heavy_placement),
            (customers_s, whole, target_heavy_placement),
            (whole, customers_t, source_heavy_placement)):
        source = InMemoryEndpoint(source_frag.name)
        for instance in fragment_customers(
            [document], source_frag
        ).values():
            source.put(instance)
        program = build_transfer_program(
            derive_mapping(source_frag, target_frag)
        )
        exchanges.append((source, target_frag, program, place))
    (_, _, split_side, _), (_, _, combine_side, _) = exchanges[:2]
    assert any(  # a non-flat Split feeding flat pieces
        node.kind == "split" and not node.inputs[0].is_flat_storable()
        and all(piece.is_flat_storable() for piece in node.outputs)
        for node in split_side.nodes
    )
    assert any(  # flat streams feeding a Combine that inlines a
        # repeated child
        node.kind == "combine"
        and all(side.is_flat_storable() for side in node.inputs)
        and not node.outputs[0].is_flat_storable()
        for node in combine_side.nodes
    )

    def check(target, target_frag):
        loaded = RelationalEndpoint("check", flat)
        loaded.load_document(_assembled(target, target_frag))
        assert publish_document(
            loaded.db, loaded.mapper
        ).document == reference

    return [
        (source, lambda: InMemoryEndpoint("target"), program,
         lambda target, frag=target_frag: check(target, frag), place)
        for source, target_frag, program, place in exchanges
    ]


@pytest.fixture(scope="module")
def flat_exchanges(exchange):
    source, target_frag, program, reference = exchange

    def check(target):
        assert publish_document(
            target.db, target.mapper
        ).document == reference

    return [(source, lambda: RelationalEndpoint("B", target_frag),
             program, check, source_heavy_placement)]


@pytest.fixture(scope="module")
def sink():
    with FeedSink() as live:
        yield live


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["fresh", "resumed-after-kill"])
@pytest.mark.parametrize("streams", ["row", "columnar"])
@pytest.mark.parametrize("batch_rows", [None, 1, 7, 64])
def test_byte_identity(request, sink, batch_rows, streams, resumed):
    """``streams`` is not a knob — how a stream travels is read off
    its fragment — so the axis varies the input: ``columnar`` is flat
    fragmentations between relational endpoints, ``row`` the
    exchanges of :func:`adapter_exchanges`, which hold fragments that
    do not flatten and run over the simulated wire and over TCP into
    a live feed sink."""
    exchanges = request.getfixturevalue(
        "flat_exchanges" if streams == "columnar"
        else "adapter_exchanges"
    )
    channels = [lambda: SimulatedChannel(wire_format=True)]
    if streams == "row":
        channels.append(lambda: TcpTransport.connect(sink.host, sink.port))
    for source, new_target, program, check, place in exchanges:
        placement = place(program)
        assert len(program.cross_edges(placement)) > 2
        for new_channel in channels:
            target = new_target()
            journal = ExchangeJournal() if resumed else None
            if resumed:
                # The first attempt dies after two shipped messages;
                # the second finishes against the surviving target
                # store.
                dying = KillSwitch(new_channel(), lives=2)
                with pytest.raises(RuntimeError, match="process death"):
                    ProgramExecutor(
                        source, target, dying, batch_rows=batch_rows,
                        journal=journal,
                    ).run(program, placement)
                dying.close()
            channel = new_channel()
            try:
                report = ProgramExecutor(
                    source, target, channel,
                    batch_rows=batch_rows, journal=journal,
                ).run(program, placement)
            finally:
                channel.close()
            assert report.resume_count == int(resumed)
            check(target)


class TestUnbatchedWire:
    """``batch_rows=None``: one ``seq``-less message per cross-edge,
    byte for byte the ``wrap_fragment_feed`` message of the shipped
    feed."""

    @pytest.fixture
    def shipped_scans(self, exchange):
        """The exchange placed so that every cross-edge carries a
        scanned fragment, and the messages those feeds wrap into."""
        source, target_frag, program, reference = exchange
        placement = {
            node.op_id: (
                Location.SOURCE if isinstance(node, Scan)
                else Location.TARGET
            )
            for node in program.nodes
        }
        messages = [
            wrap_fragment_feed(source.scan(edge.fragment))
            for edge in program.cross_edges(placement)
        ]
        assert all('seq="' not in message for message in messages)
        return placement, messages

    def run(self, exchange, placement, channel):
        source, target_frag, program, reference = exchange
        target = RelationalEndpoint("B", target_frag)
        report = ProgramExecutor(source, target, channel).run(
            program, placement
        )
        assert publish_document(
            target.db, target.mapper
        ).document == reference
        return report

    @pytest.mark.parametrize(
        "make_channel",
        [lambda: SimulatedChannel(wire_format=True),
         lambda: InProcessTransport(wire_format=True)],
        ids=["simulated", "in-process"],
    )
    def test_comm_bytes_are_the_ship_fragment_messages(
            self, exchange, shipped_scans, make_channel):
        placement, messages = shipped_scans
        channel = make_channel()
        report = self.run(exchange, placement, channel)
        assert report.comm_bytes == sum(map(len, messages))
        assert channel.total_bytes == report.comm_bytes
        assert channel.messages == report.shipments == len(messages)
        assert set(report.shipment_batches.values()) == {1}

    def test_tcp_ships_the_same_messages(self, exchange,
                                         shipped_scans):
        placement, messages = shipped_scans
        sink = FeedSink().start()
        try:
            channel = TcpTransport.connect(sink.host, sink.port)
            try:
                report = self.run(exchange, placement, channel)
            finally:
                channel.close()
        finally:
            sink.stop()
        assert report.comm_bytes == sum(
            len(message.encode("utf-8")) for message in messages
        )
        assert channel.messages == len(messages)

    def test_empty_feed_still_crosses_its_edge(self, exchange):
        """An unbatched edge ships its one message even when the feed
        is empty (a batched stream of nothing ships nothing)."""
        source, target_frag, program, _ = exchange
        empty = RelationalEndpoint("A-empty", source.fragmentation)
        placement = source_heavy_placement(program)
        edges = len(program.cross_edges(placement))
        for batch_rows, messages in ((None, edges), (8, 0)):
            channel = SimulatedChannel(wire_format=True)
            report = ProgramExecutor(
                empty, RelationalEndpoint("B", target_frag), channel,
                batch_rows=batch_rows,
            ).run(program, placement)
            assert channel.messages == messages
            assert report.rows_written == 0
