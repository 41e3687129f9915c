"""One execution core: every configuration writes the same bytes.

The byte-identity invariant over the product of the executor's knobs —
batch size × worker count × dataplane × journal (none, or killed
mid-run and resumed) — plus the wire contract of unbatched runs: a
``batch_rows=None`` exchange ships exactly the one ``ship_fragment``
message per cross-edge that the paper's setup sends.
"""

import random

import pytest

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
from repro.schema.generator import random_schema
from repro.services.endpoint import RelationalEndpoint
from repro.workloads.docgen import generate_document

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


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["fresh", "resumed-after-kill"])
@pytest.mark.parametrize("columnar", [False, True],
                         ids=["row", "columnar"])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("batch_rows", [None, 1, 7, 64])
def test_byte_identity(exchange, batch_rows, workers, columnar,
                       resumed):
    source, target_frag, program, reference = exchange
    placement = source_heavy_placement(program)
    assert len(program.cross_edges(placement)) > 2
    target = RelationalEndpoint("B", target_frag)
    knobs = dict(workers=workers, batch_rows=batch_rows,
                 columnar=columnar)
    journal = ExchangeJournal() if resumed else None
    if resumed:
        # The first attempt dies after two shipped messages; the
        # second finishes against the surviving target store.
        dying = KillSwitch(SimulatedChannel(wire_format=True), lives=2)
        with pytest.raises(RuntimeError, match="process death"):
            ProgramExecutor(
                source, target, dying, journal=journal, **knobs
            ).run(program, placement)
    report = ProgramExecutor(
        source, target, SimulatedChannel(wire_format=True),
        journal=journal, **knobs
    ).run(program, placement)
    assert report.resume_count == int(resumed)
    assert publish_document(target.db, target.mapper).document \
        == reference


class TestUnbatchedWire:
    """``batch_rows=None``: one ``seq``-less message per cross-edge,
    byte for byte the ``ship_fragment`` message of the shipped feed."""

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

    def run(self, exchange, placement, channel, **knobs):
        source, target_frag, program, reference = exchange
        target = RelationalEndpoint("B", target_frag)
        report = ProgramExecutor(
            source, target, channel, **knobs
        ).run(program, placement)
        assert publish_document(
            target.db, target.mapper
        ).document == reference
        return report

    @pytest.mark.parametrize("columnar", [False, True],
                             ids=["row", "columnar"])
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "make_channel",
        [lambda: SimulatedChannel(wire_format=True),
         lambda: InProcessTransport(wire_format=True)],
        ids=["simulated", "in-process"],
    )
    def test_comm_bytes_are_the_ship_fragment_messages(
            self, exchange, shipped_scans, make_channel, workers,
            columnar):
        placement, messages = shipped_scans
        channel = make_channel()
        report = self.run(exchange, placement, channel,
                          workers=workers, columnar=columnar)
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
