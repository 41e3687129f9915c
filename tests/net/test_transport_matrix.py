"""The pluggable transport stack: all three implementations are
drop-in interchangeable behind ``Transport``, with uniform lifecycle
(idempotent close, send-after-close errors) and byte-identical
end-to-end results — TcpTransport over a real loopback socket."""

import contextlib
import socket
import threading

import pytest

from repro.errors import SoapFault, TransportError
from repro.core.columnar import ColumnBatch, ColumnLayout
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.net.server import FeedSink
from repro.net.soap import (
    parse_envelope,
    soap_envelope,
    verify_fragment_feed,
)
from repro.net.transport import (
    InProcessTransport,
    LOOPBACK_PROFILE,
    SimulatedChannel,
    TcpTransport,
    Transport,
    recv_frame,
    send_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.relational.publisher import publish_document
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import (
    run_optimized_exchange,
    run_publish_and_map,
)
from repro.workloads.customer import fragment_customers
from repro.xmlkit.tree import Element


@pytest.fixture
def feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


@pytest.fixture
def whole(feed):
    """The executor's unbatched message: the feed as one seq-less
    batch."""
    return ColumnBatch.from_rows(feed.fragment, feed.rows, None)


@pytest.fixture(scope="module")
def sink():
    with FeedSink() as live:
        yield live


def make_transport(kind, sink):
    if kind == "sim":
        return SimulatedChannel(wire_format=True)
    if kind == "inproc":
        return InProcessTransport(wire_format=True)
    return TcpTransport.connect(sink.host, sink.port)


TRANSPORTS = ("sim", "inproc", "tcp")


class TestUniformLifecycle:
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_close_is_idempotent(self, kind, sink):
        transport = make_transport(kind, sink)
        transport.ship_document("x")
        transport.close()
        transport.close()
        with pytest.raises(TransportError, match="send after close"):
            transport.ship_document("x")

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_send_after_close_raises_uniformly(self, kind, sink, whole):
        transport = make_transport(kind, sink)
        transport.close()
        with pytest.raises(TransportError, match="send after close"):
            transport.ship_batch(whole)
        with pytest.raises(TransportError, match="send after close"):
            transport.ship_document("x")
        with pytest.raises(TransportError, match="send after close"):
            transport.charge_lost(10)

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_concurrent_close_runs_on_close_once(self, kind, sink,
                                                 monkeypatch):
        transport = make_transport(kind, sink)
        calls = []
        original = transport._on_close

        def counting():
            calls.append(1)
            original()

        monkeypatch.setattr(transport, "_on_close", counting)
        threads = [
            threading.Thread(target=transport.close)
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert calls == [1]

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_concurrent_shipping_accounts_every_message(
            self, kind, sink, feed):
        transport = make_transport(kind, sink)
        errors = []

        def ship():
            try:
                for _ in range(5):
                    transport.ship_document("y" * 100)
            except Exception as exc:  # pragma: no cover - fails test
                errors.append(exc)

        threads = [threading.Thread(target=ship) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert transport.messages == 20
        transport.close()


class TestInProcessTransport:
    def test_zero_time_but_counted_bytes(self, whole):
        transport = InProcessTransport()
        shipment = transport.ship_batch(whole)
        assert shipment.seconds == 0.0
        assert transport.total_seconds == 0.0
        assert transport.total_bytes == shipment.bytes_sent > 0
        assert transport.transfer_cost(10**9) == 0.0

    def test_wire_format_round_trip(self, feed, whole):
        transport = InProcessTransport(wire_format=True)
        rows_before = feed.row_count()
        transport.ship_batch(whole)
        assert feed.row_count() == rows_before


class TestTcpTransport:
    def test_connect_failure_is_transport_error(self):
        with pytest.raises(TransportError, match="cannot connect"):
            TcpTransport.connect("127.0.0.1", 1, timeout=0.2)

    def test_wire_format_always_on(self, sink):
        transport = TcpTransport.connect(sink.host, sink.port)
        assert transport.wire_format is True
        transport.close()

    def test_measured_seconds_and_counted_bytes(self, sink, feed, whole):
        transport = TcpTransport.connect(sink.host, sink.port)
        shipment = transport.ship_batch(whole)
        assert shipment.bytes_sent > feed.feed_size()  # SOAP overhead
        assert shipment.seconds > 0.0  # real wall time
        assert transport.total_bytes == shipment.bytes_sent
        transport.close()

    def test_transfer_cost_answers_from_profile(self, sink):
        transport = TcpTransport.connect(sink.host, sink.port)
        expected = (
            LOOPBACK_PROFILE.latency_seconds
            + 1000 / LOOPBACK_PROFILE.bandwidth_bytes_per_second
        )
        assert transport.transfer_cost(1000) == pytest.approx(expected)
        transport.close()

    def test_shipped_batch_keeps_its_rows_and_the_sink_verified_them(
            self, feed, whole):
        """One encode here, one decode + verify at the sink: the batch
        is not decoded again on the sending side, and the sink's ack
        is held against what was sent."""
        metrics = MetricsRegistry()
        batch = ColumnBatch.from_rows(feed.fragment, list(feed.rows), 3)
        rows_before = list(batch.rows)
        with FeedSink(metrics=metrics) as live:
            transport = TcpTransport.connect(live.host, live.port)
            transport.ship_batch(batch)
            transport.ship_batch(whole)
            transport.close()
        assert all(
            after is before
            for after, before in zip(batch.rows, rows_before, strict=True)
        )
        assert metrics.counter("server.rows_in").value \
            == 2 * len(rows_before)
        assert metrics.counter("server.faults").value == 0


@contextlib.contextmanager
def lying_sink(**wrong):
    """A feed sink that verifies like the real one, then acknowledges
    ``wrong`` attribute values (``None`` drops the attribute)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            while (frame := recv_frame(conn)) is not None:
                payload = parse_envelope(frame.decode("utf-8"))
                if payload.name == "Document":
                    attrs = {"of": "Document",
                             "bytes": str(len(payload.text))}
                else:
                    name, count, digest = verify_fragment_feed(payload)
                    attrs = {"of": "FragmentFeed", "fragment": name,
                             "count": str(count), "checksum": digest,
                             "seq": payload.get("seq")}
                attrs.update(wrong)
                ack = Element(attrs.pop("element", "Ack"), {
                    key: value for key, value in attrs.items()
                    if value is not None
                })
                send_frame(conn, soap_envelope(ack).encode("utf-8"))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestAckIsChecked:
    """The ack is the end-to-end check: the sink's recomputed values
    must be the ones this side computed while encoding."""

    def test_honest_ack_accepted(self, feed, whole):
        with lying_sink() as (host, port):
            transport = TcpTransport.connect(host, port)
            transport.ship_batch(whole)
            transport.ship_batch(
                ColumnBatch.from_rows(feed.fragment, feed.rows, 0)
            )
            transport.ship_document("<doc/>")
            transport.close()

    @pytest.mark.parametrize("wrong", [
        {"checksum": "0badf00d"},
        {"count": "1"},
        {"seq": "8"},
        {"seq": None},
        {"fragment": "Other"},
        {"of": "Document"},
        {"checksum": None},
        {"element": "Nod"},
    ])
    def test_wrong_feed_ack_is_a_fault(self, feed, wrong):
        with lying_sink(**wrong) as (host, port):
            transport = TcpTransport.connect(host, port)
            with pytest.raises(SoapFault, match="feed sink"):
                transport.ship_batch(
                    ColumnBatch.from_rows(feed.fragment, feed.rows, 7)
                )
            transport.close()

    def test_seq_acknowledged_for_a_feed_sent_without_one(self, whole):
        with lying_sink(seq="0") as (host, port):
            transport = TcpTransport.connect(host, port)
            with pytest.raises(SoapFault, match="seq='0'"):
                transport.ship_batch(whole)
            transport.close()

    def test_wrong_document_ack_is_a_fault(self):
        with lying_sink(bytes="5") as (host, port):
            transport = TcpTransport.connect(host, port)
            with pytest.raises(SoapFault, match="bytes='5'"):
                transport.ship_document("<doc/>")
            transport.close()


class TestEndToEndInterchangeability:
    """The Figure 9 acceptance bar: the same exchange over all three
    transports leaves byte-identical target stores."""

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_exchange_matches_reference(
            self, kind, sink, auction_mf, auction_lf,
            auction_document):
        source = RelationalEndpoint(f"S-{kind}", auction_mf)
        source.load_document(auction_document)
        # One row no document load produces: text the receiver's parser
        # would strip.  The sim/inproc wires decode it back stripped,
        # the TCP path hands on the row it encoded — the encoder
        # normalises it, so all three write what publish&map (whose
        # shredder strips too) writes.
        padded = auction_mf.fragments[-1]
        row = source.scan(padded).rows[0]
        leaf = next(n for n in row.data.iter_all() if n.text)
        leaf.text = f" \r\n {leaf.text}\rmore \t\r"
        source.merge_rows(padded, [row])
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)

        reference_target = RelationalEndpoint("ref", auction_lf)
        run_publish_and_map(
            source, reference_target, SimulatedChannel(), "reference",
        )
        reference = publish_document(
            reference_target.db, reference_target.mapper
        ).document
        assert "\rmore<" in reference

        transport = make_transport(kind, sink)
        assert isinstance(transport, Transport)
        target = RelationalEndpoint(f"T-{kind}", auction_lf)
        outcome = run_optimized_exchange(
            program, placement, source, target, transport,
            f"mf->lf/{kind}",
        )
        transport.close()
        document = publish_document(target.db, target.mapper).document
        assert document == reference
        assert outcome.rows_written == target.total_rows()
        assert outcome.comm_bytes == transport.total_bytes > 0

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_streaming_exchange_matches_too(
            self, kind, sink, auction_mf, auction_lf,
            auction_document):
        source = RelationalEndpoint(f"SS-{kind}", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)
        reference_target = RelationalEndpoint("sref", auction_lf)
        run_optimized_exchange(
            program, placement, source, reference_target,
            SimulatedChannel(), "reference",
        )
        reference = publish_document(
            reference_target.db, reference_target.mapper
        ).document

        transport = make_transport(kind, sink)
        target = RelationalEndpoint(f"ST-{kind}", auction_lf)
        run_optimized_exchange(
            program, placement, source, target, transport,
            f"stream/{kind}", batch_rows=16,
        )
        transport.close()
        document = publish_document(target.db, target.mapper).document
        assert document == reference


class TestColumnsCrossTheWire:
    """A flat feed crosses a hop as columns: the sender encodes cells,
    the receiver verifies (and, playing the receiver in process,
    decodes) the received text — no row tree is built on either side,
    and the target still publishes publish&map's bytes."""

    @pytest.mark.parametrize("batch_rows", [None, 7])
    @pytest.mark.parametrize("kind", ["inproc", "tcp"])
    def test_no_row_view_anywhere(self, kind, batch_rows, sink,
                                  auction_mf, auction_document,
                                  monkeypatch):
        source = RelationalEndpoint(f"C-{kind}", auction_mf)
        source.load_document(auction_document)
        reference = RelationalEndpoint("cref", auction_mf)
        run_publish_and_map(
            source, reference, SimulatedChannel(), "reference",
        )
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_mf)
        )
        transport = make_transport(kind, sink)
        target = RelationalEndpoint(f"CT-{kind}", auction_mf)
        calls: list[str] = []
        for name in ("row_from_cells", "cells_from_row"):
            def counting(layout, cells, _name=name,
                         _original=getattr(ColumnLayout, name)):
                calls.append(_name)
                return _original(layout, cells)

            monkeypatch.setattr(ColumnLayout, name, counting)
        run_optimized_exchange(
            program, source_heavy_placement(program), source, target,
            transport, f"columns/{kind}", batch_rows=batch_rows,
        )
        monkeypatch.undo()
        transport.close()
        assert calls == []
        assert publish_document(target.db, target.mapper).document \
            == publish_document(reference.db, reference.mapper).document
