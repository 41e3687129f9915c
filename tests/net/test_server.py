"""The service tier: feed sink verification over real sockets, the
SOAP-over-HTTP agency, graceful shutdown, metrics."""

import http.client
import socket

import pytest

from repro.errors import NegotiationError, SoapFault, TransportError
from repro.core.columnar import ColumnBatch
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.fragment import Fragment
from repro.net.faults import corrupt_soap_message
from repro.net.server import (
    ExchangeHttpServer,
    ExchangeServer,
    FeedSink,
    SoapHttpClient,
)
from repro.net.soap import (
    encode_batch,
    parse_envelope,
    soap_envelope,
    wrap_document,
    wrap_fragment_feed,
)
from repro.net.transport import (
    MAX_FRAME_BYTES,
    TcpTransport,
    recv_frame,
    send_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.services.agency import DiscoveryAgency
from repro.workloads.customer import fragment_customers
from repro.xmlkit.tree import Element

from tests.net.test_soap import DEEP_ROW, feed_message


@pytest.fixture
def feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


def raw_call(sink, message: str) -> Element:
    """One framed request/reply over a raw socket, reply parsed
    leniently (Fault payloads returned, not raised)."""
    with socket.create_connection((sink.host, sink.port)) as sock:
        send_frame(sock, message.encode("utf-8"))
        reply = recv_frame(sock)
    assert reply is not None
    try:
        return parse_envelope(reply.decode("utf-8"))
    except SoapFault as fault:
        return Element("Fault", {"message": str(fault)})


class TestFeedSink:
    def test_feed_ack_carries_verification(self, feed):
        with FeedSink() as sink:
            ack = raw_call(sink, wrap_fragment_feed(feed))
        assert ack.name == "Ack"
        assert ack.get("of") == "FragmentFeed"
        assert ack.get("fragment") == "Order"
        assert int(ack.get("count")) == feed.row_count()
        assert len(ack.get("checksum")) == 8

    def test_seq_echoed_in_ack(self, feed):
        with FeedSink() as sink:
            ack = raw_call(sink, wrap_fragment_feed(feed, seq=7))
        assert ack.get("seq") == "7"

    def test_document_ack(self):
        with FeedSink() as sink:
            ack = raw_call(sink, wrap_document("x" * 321))
        assert ack.get("of") == "Document"
        assert ack.get("bytes") == "321"

    @pytest.mark.parametrize("text", ["<a/>\n", " <a/>", "\t<a/> \r\n"])
    def test_whitespace_around_the_root_crosses(self, text):
        """Whitespace outside the root carries no content: sender and
        sink agree on the stripped document, so a padded one crosses
        and is acknowledged at the length the sink read."""
        with FeedSink() as sink:
            transport = TcpTransport.connect(sink.host, sink.port)
            try:
                transport.ship_document(text)
            finally:
                transport.close()
            ack = raw_call(sink, wrap_document(text))
        assert ack.get("of") == "Document"
        assert ack.get("bytes") == "4"

    @pytest.mark.parametrize("declared, match", [
        ("999", "declares 999 bytes but carries 4"),
        ("four", "non-numeric bytes='four'"),
        (None, "declares no bytes"),
    ])
    def test_document_must_carry_the_bytes_it_declares(self, declared,
                                                      match):
        attrs = {} if declared is None else {"bytes": declared}
        message = soap_envelope(Element("Document", attrs, text="<d/>"))
        metrics = MetricsRegistry()
        with FeedSink(metrics=metrics) as sink:
            reply = raw_call(sink, message)
        assert reply.name == "Fault"
        assert match in reply.get("message")
        assert metrics.counter("server.faults").value == 1
        assert metrics.counter("server.documents").value == 0

    def test_corrupted_feed_gets_checksum_fault(self, feed):
        corrupted = corrupt_soap_message(wrap_fragment_feed(feed))
        metrics = MetricsRegistry()
        with FeedSink(metrics=metrics) as sink:
            reply = raw_call(sink, corrupted)
        assert reply.name == "Fault"
        assert "checksum" in reply.get("message")
        assert metrics.counter("server.faults").value == 1

    def test_feed_without_checksum_gets_fault(self, auction_schema):
        """A feed that declares no checksum cannot be verified: the
        sink faults it, corrupted rows or not."""
        fragment = Fragment(auction_schema, ["item"])
        message, checksum = encode_batch(ColumnBatch(fragment, [
            [3, 5], [2, 2], ["item3", "item4"], [None, "yes"],
        ], None))
        unchecked = message.replace(f' checksum="{checksum}"', "")
        metrics = MetricsRegistry()
        with FeedSink(metrics=metrics) as sink:
            replies = [
                raw_call(sink, text) for text in (
                    unchecked, unchecked.replace("item4", "itemX"),
                    unchecked.replace(' count="2"', ""),
                )
            ]
        for reply in replies:
            assert reply.name == "Fault"
            assert "carries no checksum" in reply.get("message")
        assert metrics.counter("server.faults").value == 3
        assert metrics.counter("server.feeds").value == 0

    def test_malformed_number_gets_fault_naming_it(self, feed):
        message = wrap_fragment_feed(feed).replace(
            f'count="{feed.row_count()}"', 'count="abc"'
        )
        metrics = MetricsRegistry()
        with FeedSink(metrics=metrics) as sink:
            reply = raw_call(sink, message)
        assert reply.name == "Fault"
        assert "non-numeric count='abc'" in reply.get("message")
        assert metrics.counter("server.faults").value == 1

    def test_multi_child_body_gets_fault(self):
        message = (
            '<soap:Envelope xmlns:soap="ns"><soap:Body>'
            "<A/><B/></soap:Body></soap:Envelope>"
        )
        with FeedSink() as sink:
            reply = raw_call(sink, message)
        assert reply.name == "Fault"
        assert "exactly one element" in reply.get("message")

    def test_unreadable_bytes_get_fault(self):
        with FeedSink() as sink:
            with socket.create_connection(
                    (sink.host, sink.port)) as sock:
                send_frame(sock, b"\xff\xfe not xml \x00")
                reply = recv_frame(sock)
        with pytest.raises(SoapFault):
            parse_envelope(reply.decode("utf-8"))

    def test_unknown_payload_gets_fault(self):
        with FeedSink() as sink:
            reply = raw_call(
                sink, soap_envelope(Element("Mystery"))
            )
        assert reply.name == "Fault"
        assert "Mystery" in reply.get("message")

    def test_deeply_nested_row_gets_fault_and_the_connection_lives(
            self, feed):
        """5 000 nested elements once killed the connection's thread
        (a recursive serializer); a feed of tagged rows is no tuple
        feed, so they draw a Fault, are counted, and the same
        connection goes on to ack a valid feed."""
        metrics = MetricsRegistry()
        with FeedSink(metrics=metrics) as sink:
            with socket.create_connection(
                    (sink.host, sink.port)) as sock:
                send_frame(sock, feed_message(DEEP_ROW).encode("utf-8"))
                fault = recv_frame(sock)
                send_frame(
                    sock, wrap_fragment_feed(feed).encode("utf-8")
                )
                ack = recv_frame(sock)
        with pytest.raises(SoapFault, match="names no columns"):
            parse_envelope(fault.decode("utf-8"))
        assert parse_envelope(ack.decode("utf-8")).name == "Ack"
        assert metrics.counter("server.faults").value == 1
        assert metrics.counter("server.feeds").value == 1

    def test_connection_serves_many_messages(self, feed):
        metrics = MetricsRegistry()
        with FeedSink(metrics=metrics) as sink:
            with socket.create_connection(
                    (sink.host, sink.port)) as sock:
                for _ in range(3):
                    send_frame(
                        sock,
                        wrap_fragment_feed(feed).encode("utf-8"),
                    )
                    assert recv_frame(sock) is not None
        assert metrics.counter("server.connections").value == 1
        assert metrics.counter("server.messages").value == 3
        assert metrics.counter("server.rows_in").value \
            == 3 * feed.row_count()

    def test_stop_is_idempotent_and_graceful(self, feed):
        metrics = MetricsRegistry()
        sink = FeedSink(metrics=metrics).start()
        raw_call(sink, wrap_document("bye"))
        sink.stop()
        sink.stop()
        gauge = metrics.gauge("server.open_connections")
        assert gauge.value == 0
        with pytest.raises(OSError):
            socket.create_connection((sink.host, sink.port),
                                     timeout=0.2)

    def test_oversized_frame_header_rejected(self):
        with FeedSink() as sink:
            with socket.create_connection(
                    (sink.host, sink.port)) as sock:
                sock.sendall((2**31).to_bytes(4, "big") + b"xx")
                # Server drops the connection instead of allocating;
                # depending on timing the client sees a clean EOF or
                # a reset (unread bytes pending → RST).
                try:
                    reply = recv_frame(sock)
                except (TransportError, OSError):
                    reply = None
                assert reply is None


@pytest.fixture
def customer_agency(customers_schema):
    return DiscoveryAgency(customers_schema)


@pytest.fixture
def probe(customers_schema):
    return CostModel(StatisticsCatalog.synthetic(customers_schema))


@pytest.fixture
def wsdl_texts(customers_schema, customers_s, customers_t):
    scratch = DiscoveryAgency(customers_schema)
    return {
        "s": scratch.register("s", customers_s).wsdl_text,
        "t": scratch.register("t", customers_t).wsdl_text,
    }


class TestHttpControlPlane:
    def test_register_and_negotiate_round_trip(
            self, customer_agency, probe, wsdl_texts,
            customers_schema):
        metrics = MetricsRegistry()
        with ExchangeHttpServer(customer_agency, probe=probe,
                                metrics=metrics) as http:
            client = SoapHttpClient(http.host, http.port)
            result = client.register("s", wsdl_texts["s"])
            assert result.get("name") == "s"
            assert int(result.get("fragments")) > 0
            client.register("t", wsdl_texts["t"])
            program, placement, reply = client.negotiate(
                "s", "t", customers_schema
            )
            program.validate_placement(placement)
            assert reply.get("optimizer") == "greedy"
            assert float(reply.get("estimated-cost")) > 0
        assert metrics.counter("server.http.negotiations").value == 1

    def test_negotiate_result_carries_only_the_plan(
            self, customer_agency, probe, wsdl_texts,
            customers_schema):
        with ExchangeHttpServer(customer_agency, probe=probe) as http:
            client = SoapHttpClient(http.host, http.port)
            client.register("s", wsdl_texts["s"])
            client.register("t", wsdl_texts["t"])
            _, _, reply = client.negotiate("s", "t", customers_schema)
        assert set(reply.attrs) == {
            "source", "target", "optimizer", "estimated-cost",
        }

    def test_negotiate_unknown_system_is_fault(
            self, customer_agency, probe, customers_schema):
        with ExchangeHttpServer(customer_agency, probe=probe) as http:
            client = SoapHttpClient(http.host, http.port)
            with pytest.raises(SoapFault, match="ghost"):
                client.negotiate("ghost", "t", customers_schema)

    def test_negotiate_without_probe_is_fault(
            self, customer_agency, wsdl_texts, customers_schema):
        with ExchangeHttpServer(customer_agency) as http:
            client = SoapHttpClient(http.host, http.port)
            client.register("s", wsdl_texts["s"])
            client.register("t", wsdl_texts["t"])
            with pytest.raises(SoapFault, match="probe"):
                client.negotiate("s", "t", customers_schema)

    def test_double_register_is_fault(self, customer_agency, probe,
                                      wsdl_texts):
        with ExchangeHttpServer(customer_agency, probe=probe) as http:
            client = SoapHttpClient(http.host, http.port)
            client.register("s", wsdl_texts["s"])
            with pytest.raises(SoapFault, match="already registered"):
                client.register("s", wsdl_texts["s"])

    def test_unknown_path_is_fault(self, customer_agency):
        with ExchangeHttpServer(customer_agency) as http:
            client = SoapHttpClient(http.host, http.port)
            with pytest.raises(SoapFault, match="no service"):
                client.call("/soap/nowhere",
                            soap_envelope(Element("Ping")))

    def test_malformed_request_is_fault(self, customer_agency):
        with ExchangeHttpServer(customer_agency) as http:
            client = SoapHttpClient(http.host, http.port)
            with pytest.raises(SoapFault, match="well-formed"):
                client.call("/soap/agency", "<broken")

    @pytest.mark.parametrize("wsdl, message", [
        ("<a><b></a>", "mismatched end tag"),
        ("<a/>", "not a WSDL document"),
    ], ids=["not-well-formed", "not-wsdl"])
    def test_malformed_wsdl_is_client_fault(self, customer_agency, wsdl,
                                            message):
        metrics = MetricsRegistry()
        with ExchangeHttpServer(customer_agency, metrics=metrics) as http:
            status, reply = http.dispatch("/soap/agency", soap_envelope(
                Element("Register", {"name": "x"}, text=wsdl)
            ))
        assert status == 400
        with pytest.raises(SoapFault, match=message):
            parse_envelope(reply)
        assert metrics.counter("server.http.faults").value == 1
        with pytest.raises(NegotiationError):
            customer_agency.registration("x")

    def test_malformed_wsdl_register_gets_a_reply(self, customer_agency,
                                                  wsdl_texts):
        with ExchangeHttpServer(customer_agency) as http:
            client = SoapHttpClient(http.host, http.port)
            with pytest.raises(SoapFault, match="mismatched end tag"):
                client.register("x", "<a><b></a>")
            # The server still serves the next request.
            assert client.register("s", wsdl_texts["s"]).get("name") == "s"

    @staticmethod
    def _post_headers_only(agency, length):
        """POST a ``Content-Length`` header and no body: the reply's
        status and body (the socket times out if none comes)."""
        with ExchangeHttpServer(agency) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=2.0
            )
            try:
                connection.putrequest("POST", "/soap/agency")
                connection.putheader("Content-Length", str(length))
                connection.endheaders()
                response = connection.getresponse()
                return response.status, response.read().decode("utf-8")
            finally:
                connection.close()

    def test_negative_content_length_gets_a_400(self, customer_agency):
        status, body = self._post_headers_only(customer_agency, -1)
        assert status == 400
        with pytest.raises(SoapFault, match="Content-Length"):
            parse_envelope(body)

    def test_oversized_content_length_gets_a_400(self, customer_agency):
        status, body = self._post_headers_only(
            customer_agency, MAX_FRAME_BYTES + 1
        )
        assert status == 400
        with pytest.raises(SoapFault, match="exceeds"):
            parse_envelope(body)

    def test_client_connection_failure_is_transport_error(self):
        client = SoapHttpClient("127.0.0.1", 1, timeout=0.2)
        with pytest.raises(TransportError, match="failed"):
            client.call("/soap/agency",
                        soap_envelope(Element("Ping")))


class TestExchangeServer:
    def test_both_planes_share_one_lifecycle(self, customer_agency,
                                             probe, wsdl_texts, feed):
        metrics = MetricsRegistry()
        with ExchangeServer(customer_agency, probe=probe,
                            metrics=metrics) as server:
            http_host, http_port = server.http_address
            client = SoapHttpClient(http_host, http_port)
            client.register("s", wsdl_texts["s"])
            raw_call(server.sink, wrap_fragment_feed(feed))
        assert metrics.counter("server.http.requests").value == 1
        assert metrics.counter("server.messages").value == 1
        # Both planes refuse connections after stop.
        with pytest.raises(OSError):
            socket.create_connection(server.feed_address, timeout=0.2)

    def test_stop_is_idempotent(self, customer_agency):
        server = ExchangeServer(customer_agency).start()
        server.stop()
        server.stop()
