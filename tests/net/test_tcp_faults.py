"""The `-m faults` matrix re-run against the real socket transport.

Every fault kind fires through a :class:`FaultyChannel` whose inner
channel is a live :class:`TcpTransport`: drops and corruption charge
the real wire accounting, duplicates and reorders actually traverse
the loopback socket, and the reliable layer heals them back into a
byte-identical exchange.
"""

import socket

import pytest

from repro.errors import (
    MessageCorrupted,
    MessageDropped,
    SoapFault,
    TransportError,
)
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.columnar import ColumnBatch
from repro.core.program.executor import ExecutionReport
from repro.core.stream import FragmentStream
from repro.net.faults import (
    FaultKind,
    FaultPlan,
    FaultyChannel,
    ReliableBatchLink,
    RetryPolicy,
    corrupt_soap_message,
)
from repro.net.server import FeedSink
from repro.net.soap import parse_envelope, wrap_fragment_feed
from repro.net.transport import (
    SimulatedChannel,
    TcpTransport,
    recv_frame,
    send_frame,
)
from repro.relational.publisher import publish_document
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import run_optimized_exchange
from repro.workloads.customer import fragment_customers

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def sink():
    with FeedSink() as live:
        yield live


@pytest.fixture
def tcp(sink):
    transport = TcpTransport.connect(sink.host, sink.port)
    yield transport
    transport.close()


@pytest.fixture
def feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


@pytest.fixture
def whole(feed):
    """The executor's unbatched message: the feed as one seq-less
    batch."""
    return ColumnBatch.from_rows(feed.fragment, feed.rows, None)


@pytest.fixture
def batches(feed):
    return list(FragmentStream.from_instance(feed, 2))


def scripted(**schedule):
    """drop=0 → FaultPlan dropping message 0, etc."""
    return FaultPlan(
        script={index: FaultKind(kind) for kind, index in schedule.items()},
        delay_seconds=0.25,
    )


class TestFaultMatrixOverTcp:
    def test_drop_charges_wire_without_socket_traffic(self, tcp, whole):
        channel = FaultyChannel(tcp, scripted(drop=0))
        with pytest.raises(MessageDropped):
            channel.ship_batch(whole)
        # The lost copy is priced from the profile, never sent.
        assert tcp.lost_messages == 1
        assert tcp.lost_bytes > 0
        assert channel.stats.injected == 1
        # The retry goes over the real socket.
        shipment = channel.ship_batch(whole)
        assert shipment.bytes_sent > 0
        assert tcp.messages == 2

    def test_corrupt_surfaces_checksum_mismatch(self, tcp, whole):
        # TcpTransport is wire-format, so corruption goes through the
        # real envelope decode and trips the checksum verification.
        channel = FaultyChannel(tcp, scripted(corrupt=0))
        with pytest.raises(MessageCorrupted, match="checksum"):
            channel.ship_batch(whole)
        assert tcp.lost_messages == 1

    def test_duplicate_copies_both_cross_the_socket(self, tcp, whole):
        channel = FaultyChannel(tcp, scripted(duplicate=0))
        shipment, delivered = channel.transmit_batch(whole)
        assert len(delivered) == 2
        assert tcp.messages == 2
        assert shipment.bytes_sent > 0

    def test_duplicate_copy_costs_the_delivered_frame(
            self, tcp, customers_s, customer_documents):
        """The discarded copy of a duplicate is charged the bytes of
        the frame that crossed the socket — UTF-8 bytes, not
        characters, when a cell is not ASCII."""
        feed = fragment_customers(customer_documents, customers_s)[
            "Customer"
        ]
        batch = ColumnBatch.from_rows(feed.fragment, feed.rows, None)
        batch.columns[-1][0] = "café"
        channel = FaultyChannel(tcp, scripted(duplicate=0))
        shipment, _ = channel.transmit_batch(batch)
        assert tcp.lost_messages == 1
        assert tcp.lost_bytes == shipment.bytes_sent

    def test_lost_document_costs_the_delivered_frame(self, tcp):
        """A dropped document is charged what its delivery costs on
        the socket: the UTF-8 bytes of its envelope, not the
        characters of its text."""
        channel = FaultyChannel(tcp, FaultPlan.parse("drop@0"))
        with pytest.raises(MessageDropped):
            channel.ship_document("<a>café</a>")
        shipment = channel.ship_document("<a>café</a>")
        assert tcp.lost_messages == 1
        assert tcp.lost_bytes == shipment.bytes_sent

    def test_delay_adds_seconds_on_top_of_measured_time(
            self, tcp, whole):
        channel = FaultyChannel(tcp, scripted(delay=0))
        shipment = channel.ship_batch(whole)
        assert shipment.seconds >= 0.25
        assert channel.stats.delays == 1

    def test_reliable_link_heals_drop_over_tcp(self, tcp, whole):
        report = ExecutionReport()
        link = ReliableBatchLink(
            FaultyChannel(tcp, scripted(drop=0)),
            RetryPolicy(), report, edge=(1, 0),
        )
        shipment, ready = link.send(whole)
        assert ready == [whole]
        assert shipment.bytes_sent > 0
        assert report.retries == 1
        assert tcp.messages == 2  # lost copy + successful resend

    def test_reliable_link_discards_duplicate_over_tcp(
            self, tcp, whole):
        report = ExecutionReport()
        link = ReliableBatchLink(
            FaultyChannel(tcp, scripted(duplicate=0)),
            RetryPolicy(), report, edge=(1, 0),
        )
        _, ready = link.send(whole)
        assert ready == [whole]
        assert report.redelivered_batches == 1


class TestSeqRedeliveryOverTcp:
    """Out-of-order ``seq`` re-delivery through the real socket: the
    reorder fault holds a batch back, the link reassembles by seq."""

    def test_reorder_is_reassembled_in_seq_order(self, tcp, batches):
        report = ExecutionReport()
        link = ReliableBatchLink(
            FaultyChannel(tcp, scripted(reorder=0)),
            RetryPolicy(), report, edge=(1, 0),
        )
        out = []
        for batch in batches:
            _, ready = link.send(batch)
            out.extend(ready)
        out.extend(link.finish())
        assert [b.seq for b in out] == sorted(b.seq for b in batches)
        # Every batch (including the held one) crossed the socket.
        assert tcp.messages == len(batches)

    def test_duplicate_seq_is_delivered_once(self, tcp, batches):
        report = ExecutionReport()
        link = ReliableBatchLink(
            FaultyChannel(tcp, scripted(duplicate=0)),
            RetryPolicy(), report, edge=(1, 0),
        )
        out = []
        for batch in batches:
            _, ready = link.send(batch)
            out.extend(ready)
        out.extend(link.finish())
        assert [b.seq for b in out] == [b.seq for b in batches]
        assert report.redelivered_batches == 1

    def test_sink_echoes_seq_for_reordered_batches(self, sink, feed):
        """The server acks each batch with the seq it saw, so the
        client can match acks to re-deliveries."""
        acks = []
        with socket.create_connection((sink.host, sink.port)) as sock:
            for seq in (1, 0):  # out of order on purpose
                send_frame(
                    sock,
                    wrap_fragment_feed(feed, seq=seq).encode("utf-8"),
                )
                reply = recv_frame(sock)
                acks.append(parse_envelope(reply.decode("utf-8")))
        assert [int(a.get("seq")) for a in acks] == [1, 0]


class TestChecksumMismatchOnTheWire:
    def test_corrupted_frame_gets_checksum_fault_reply(self, sink,
                                                       feed):
        corrupted = corrupt_soap_message(wrap_fragment_feed(feed))
        with socket.create_connection((sink.host, sink.port)) as sock:
            send_frame(sock, corrupted.encode("utf-8"))
            reply = recv_frame(sock)
        with pytest.raises(SoapFault, match="checksum"):
            parse_envelope(reply.decode("utf-8"))

    def test_truncated_frame_is_transport_error(self, sink):
        with socket.create_connection((sink.host, sink.port)) as sock:
            # Announce 64 bytes, deliver 3, walk away.
            sock.sendall((64).to_bytes(4, "big") + b"abc")
            sock.shutdown(socket.SHUT_WR)
            with pytest.raises((TransportError, OSError)):
                reply = recv_frame(sock)
                if reply is None:
                    raise TransportError("connection closed")


class TestEndToEndFaultyTcpExchange:
    def test_scripted_faults_heal_to_byte_identical_store(
            self, sink, auction_mf, auction_lf, auction_document):
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)

        source = RelationalEndpoint("S-faulty", auction_mf)
        source.load_document(auction_document)

        reference_target = RelationalEndpoint("ref", auction_lf)
        run_optimized_exchange(
            program, placement, source, reference_target,
            SimulatedChannel(), "reference",
        )
        reference = publish_document(
            reference_target.db, reference_target.mapper
        ).document

        transport = TcpTransport.connect(sink.host, sink.port)
        target = RelationalEndpoint("T-faulty", auction_lf)
        outcome = run_optimized_exchange(
            program, placement, source, target, transport,
            "faulty-tcp",
            fault_plan=FaultPlan(drop=0.2, seed=11),
            retry_policy=RetryPolicy(max_attempts=8),
        )
        transport.close()
        document = publish_document(target.db, target.mapper).document
        assert document == reference
        assert outcome.rows_written == target.total_rows()
