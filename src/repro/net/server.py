"""The real service tier: a networked deployment of the architecture.

The paper's deployment is a *Web-services* one — a discovery agency and
exchange endpoints speaking SOAP over HTTP (Figure 2).  This module
stands that up on real sockets:

* :class:`FeedSink` — the data-plane receiver
  :class:`~repro.net.transport.TcpTransport` ships to: a threaded
  socket server reading length-prefixed SOAP envelopes, verifying each
  fragment feed's declared row count and Adler-32 content checksum
  (:func:`~repro.net.soap.read_message` — a tuple feed's lines are
  counted and digested, no cell is split), and replying with an
  ``Ack`` envelope — or a SOAP ``Fault`` when verification rejects the
  message.  The sink does not know the target, so it discards the
  rows it verified; the sender's target stores its own (identical)
  batches.
* :class:`ExchangeHttpServer` — the control plane: a threaded HTTP
  server exposing the discovery agency (``Register`` / ``Negotiate``,
  step 1/2 of Figure 2) as a SOAP service under ``/soap/agency``.
  Feeds travel only over the data plane.
* :class:`ExchangeServer` — both planes under one lifecycle, which is
  what ``python -m repro serve`` runs and what the load harness
  (:mod:`repro.net.loadgen`) drives.
* :class:`SoapHttpClient` — the matching stdlib-only client.

Both servers shut down gracefully (stop accepting, drain handler
threads, close connections; ``stop()`` is idempotent) and meter
themselves into a :class:`~repro.obs.metrics.MetricsRegistry` under
``server.*`` names, with per-message ``server`` spans on a tracer.
"""

from __future__ import annotations

import http.client
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.errors import (
    NegotiationError,
    SoapFault,
    TransportError,
    WsdlError,
    XmlSyntaxError,
)
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.serialize import (
    program_from_json,
    program_to_json,
)
from repro.net.soap import (
    FeedReceipt,
    _number,
    parse_envelope,
    read_message,
    soap_envelope,
    soap_fault,
)
from repro.net.transport import MAX_FRAME_BYTES, recv_frame, send_frame
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.xmlkit.tree import Element

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.core.cost.probe import CostProbe
    from repro.schema.model import SchemaTree
    from repro.services.agency import DiscoveryAgency

__all__ = [
    "FeedSink",
    "ExchangeHttpServer",
    "ExchangeServer",
    "SoapHttpClient",
]

#: How long ``stop()`` waits for each handler thread to drain.
_JOIN_TIMEOUT_SECONDS = 5.0


class FeedSink:
    """Data-plane receiver for framed SOAP feed/document messages.

    One handler thread per connection; each connection serves any
    number of messages (the transport keeps its socket for the whole
    exchange).  Every message is verified — a feed whose checksum or
    row count does not match its declaration, a feed that is no tuple
    feed, a document whose length is not the ``bytes`` it declares,
    or XML that is neither, gets a ``Fault`` reply, never a silent ack
    or a dropped connection — and metered (``server.connections``,
    ``server.messages``, ``server.bytes_in``, ``server.faults``, plus
    the ``server.open_connections`` gauge).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._running = False
        self._accept_thread: threading.Thread | None = None
        self._handlers: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "FeedSink":
        """Begin accepting connections (idempotent)."""
        with self._lock:
            if self._running:
                return self
            self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="feed-sink-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, close live connections,
        and drain handler threads.  Idempotent."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            connections = list(self._connections)
            handlers = list(self._handlers)
        # shutdown() wakes a thread blocked in accept() immediately;
        # close() alone would leave the listening socket alive in the
        # kernel until the next connection arrived.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=_JOIN_TIMEOUT_SECONDS)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for handler in handlers:
            handler.join(timeout=_JOIN_TIMEOUT_SECONDS)

    def __enter__(self) -> "FeedSink":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).add(amount)

    # -- the accept / serve loops ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            with self._lock:
                if not self._running:
                    conn.close()
                    return
                self._connections.add(conn)
            self._count("server.connections")
            if self.metrics is not None:
                self.metrics.gauge("server.open_connections").add(1)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="feed-sink-conn", daemon=True,
            )
            with self._lock:
                self._handlers.add(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except (TransportError, OSError):
                    break  # connection died mid-frame
                if frame is None:
                    break  # clean EOF: peer closed
                reply = self._handle_message(frame)
                try:
                    send_frame(conn, reply.encode("utf-8"))
                except OSError:
                    break
        finally:
            conn.close()
            with self._lock:
                self._connections.discard(conn)
                self._handlers.discard(threading.current_thread())
            if self.metrics is not None:
                self.metrics.gauge("server.open_connections").add(-1)

    def _handle_message(self, frame: bytes) -> str:
        """Verify one framed message; return the serialized reply."""
        self._count("server.messages")
        self._count("server.bytes_in", len(frame))
        with self.tracer.span("serve message", "server",
                              bytes=len(frame)):
            try:
                return self._ack(read_message(frame.decode("utf-8")))
            except (SoapFault, XmlSyntaxError) as fault:
                self._count("server.faults")
                return soap_fault(str(fault))
            except (UnicodeDecodeError, ValueError) as exc:
                self._count("server.faults")
                return soap_fault(f"unreadable message: {exc}")

    def _ack(self, received: FeedReceipt | Element) -> str:
        if isinstance(received, FeedReceipt):
            attrs = {
                "of": "FragmentFeed",
                "fragment": received.fragment,
                "count": str(received.count),
                "checksum": received.checksum,
            }
            if received.seq is not None:
                attrs["seq"] = received.seq
            self._count("server.feeds")
            self._count("server.rows_in", received.count)
            return soap_envelope(Element("Ack", attrs))
        payload = received
        kind = payload.local_name()
        if kind == "Document":
            # Held against what arrived, as a feed's count is.
            declared = payload.get("bytes")
            if declared is None:
                raise SoapFault("document declares no bytes")
            carried = len(payload.text)
            if _number(payload.name, "bytes", declared) != carried:
                raise SoapFault(
                    f"document declares {declared} bytes but carries "
                    f"{carried}"
                )
            self._count("server.documents")
            return soap_envelope(Element("Ack", {
                "of": "Document", "bytes": str(carried),
            }))
        raise SoapFault(f"feed sink cannot serve a <{payload.name}>")


# -- the SOAP-over-HTTP control plane ------------------------------------------------


class _SoapHttpHandler(BaseHTTPRequestHandler):
    """Routes ``POST`` bodies to the owning :class:`ExchangeHttpServer`."""

    server_version = "ReproExchange/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args: object) -> None:  # quiet by design
        pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # rfile.read(-1) would read to EOF, which a kept-alive
                # client never sends: the request would hang.
                raise ValueError(f"negative Content-Length {length}")
            if length > MAX_FRAME_BYTES:
                # Refused before a buffer that size is allocated and
                # waited for: no request may outweigh a data frame.
                raise ValueError(
                    f"Content-Length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit"
                )
            body = self.rfile.read(length).decode("utf-8")
        except (ValueError, UnicodeDecodeError) as exc:
            # After a bad Content-Length the body's end is unknown:
            # never read its leftover bytes as the next request.
            self.close_connection = True
            self._reply(400, soap_fault(f"unreadable request: {exc}"))
            return
        status, reply = self.server.exchange.dispatch(self.path, body)  # type: ignore[attr-defined]
        self._reply(status, reply)

    def _reply(self, status: int, reply: str) -> None:
        payload = reply.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", 'text/xml; charset="utf-8"')
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class ExchangeHttpServer:
    """SOAP-over-HTTP discovery agency.

    One route, ``POST /soap/agency`` with a SOAP envelope body:
    ``<Register name="...">WSDL text</Register>`` registers a system
    from its serialized WSDL (with the fragmentation extension) on the
    wrapped agency; ``<Negotiate source=".." target=".."
    optimizer=".."/>`` runs a negotiation against the configured cost
    probe and replies with a ``NegotiateResult`` whose text is the
    serialized program + placement (:mod:`repro.core.program.serialize`
    JSON).

    Errors travel as SOAP ``Fault`` envelopes with HTTP 4xx/5xx.
    Requests are metered under ``server.http.*``.
    """

    def __init__(self, agency: "DiscoveryAgency", *,
                 host: str = "127.0.0.1", port: int = 0,
                 probe: "CostProbe | None" = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.agency = agency
        self.probe = probe
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self._httpd = ThreadingHTTPServer((host, port),
                                          _SoapHttpHandler)
        self._httpd.daemon_threads = True
        self._httpd.exchange = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ExchangeHttpServer":
        """Serve in a background thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="exchange-http", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown; idempotent."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=_JOIN_TIMEOUT_SECONDS)
        self._thread = None

    def __enter__(self) -> "ExchangeHttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).add(amount)

    # -- dispatch --------------------------------------------------------------

    def dispatch(self, path: str, body: str) -> tuple[int, str]:
        """Serve one SOAP request; returns ``(status, reply text)``."""
        self._count("server.http.requests")
        try:
            payload = parse_envelope(body)
        except SoapFault as fault:
            self._count("server.http.faults")
            return 400, soap_fault(str(fault))
        with self.tracer.span(f"http {path}", "server",
                              action=payload.local_name()):
            try:
                if path == "/soap/agency":
                    return 200, self._serve_agency(payload)
                raise SoapFault(f"no service at {path}", )
            except (XmlSyntaxError, WsdlError) as exc:
                # A malformed registration document is the client's
                # error: answer it, never let it kill the handler.
                self._count("server.http.faults")
                return 400, soap_fault(str(exc))
            except (SoapFault, NegotiationError) as exc:
                self._count("server.http.faults")
                status = 404 if "no service" in str(exc) else 500
                return status, soap_fault(str(exc))

    def _serve_agency(self, payload: Element) -> str:
        action = payload.local_name()
        if action == "Register":
            name = payload.get("name")
            if not name:
                raise SoapFault("Register names no system")
            registration = self.agency.register_wsdl(
                name, payload.text
            )
            return soap_envelope(Element("RegisterResult", {
                "name": registration.name,
                "fragments": str(
                    len(registration.fragmentation.fragments)
                ),
            }))
        if action == "Negotiate":
            source = payload.get("source")
            target = payload.get("target")
            if not source or not target:
                raise SoapFault(
                    "Negotiate needs source and target attributes"
                )
            if self.probe is None:
                raise SoapFault(
                    "this agency endpoint has no cost probe "
                    "configured; negotiation is unavailable"
                )
            plan = self.agency.negotiate(
                source, target,
                optimizer=payload.get("optimizer", "greedy"),
                probe=self.probe,
            )
            self._count("server.http.negotiations")
            return soap_envelope(Element(
                "NegotiateResult", {
                    "source": source,
                    "target": target,
                    "optimizer": plan.optimizer,
                    "estimated-cost": f"{plan.estimated_cost:.9g}",
                },
                text=program_to_json(plan.program, plan.placement),
            ))
        raise SoapFault(f"agency cannot serve a <{payload.name}>")


class SoapHttpClient:
    """Stdlib-only client for :class:`ExchangeHttpServer`.

    One short-lived HTTP connection per call (the control plane is
    low-rate; the data plane uses persistent
    :class:`~repro.net.transport.TcpTransport` connections instead).
    SOAP ``Fault`` replies raise :class:`~repro.errors.SoapFault`.
    """

    def __init__(self, host: str, port: int,
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def call(self, path: str, envelope: str) -> Element:
        """POST one SOAP envelope; return the reply's body payload."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "POST", path, body=envelope.encode("utf-8"),
                headers={"Content-Type": 'text/xml; charset="utf-8"'},
            )
            response = connection.getresponse()
            reply = response.read().decode("utf-8")
        except OSError as exc:
            raise TransportError(
                f"HTTP call to {self.host}:{self.port}{path} "
                f"failed: {exc}"
            ) from exc
        finally:
            connection.close()
        return parse_envelope(reply)  # Fault replies raise here

    # -- agency actions --------------------------------------------------------

    def register(self, name: str, wsdl_text: str) -> Element:
        """Register a system from its WSDL registration document."""
        return self.call("/soap/agency", soap_envelope(
            Element("Register", {"name": name}, text=wsdl_text)
        ))

    def negotiate(self, source: str, target: str,
                  schema: "SchemaTree", *,
                  optimizer: str = "greedy"
                  ) -> tuple[TransferProgram, Placement, Element]:
        """Negotiate a plan; returns the deserialized program and
        placement plus the raw ``NegotiateResult`` element."""
        attributes = {
            "source": source, "target": target,
            "optimizer": optimizer,
        }
        result = self.call("/soap/agency", soap_envelope(
            Element("Negotiate", attributes)
        ))
        program, placement = program_from_json(result.text, schema)
        if placement is None:
            raise SoapFault(
                "NegotiateResult carried a program without placement"
            )
        return program, placement, result


class ExchangeServer:
    """Both planes of the service tier under one lifecycle.

    The control plane (:class:`ExchangeHttpServer`) and the data plane
    (:class:`FeedSink`) share one metrics registry and tracer; ``with
    ExchangeServer(...) as server:`` brings both up and tears both
    down gracefully.
    """

    def __init__(self, agency: "DiscoveryAgency", *,
                 host: str = "127.0.0.1",
                 http_port: int = 0, feed_port: int = 0,
                 probe: "CostProbe | None" = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self.http = ExchangeHttpServer(
            agency, host=host, port=http_port, probe=probe,
            metrics=metrics, tracer=self.tracer,
        )
        self.sink = FeedSink(
            host, feed_port, metrics=metrics, tracer=self.tracer,
        )

    @property
    def http_address(self) -> tuple[str, int]:
        """The control plane's ``(host, port)``."""
        return self.http.host, self.http.port

    @property
    def feed_address(self) -> tuple[str, int]:
        """The data plane's ``(host, port)``."""
        return self.sink.host, self.sink.port

    def start(self) -> "ExchangeServer":
        """Start both planes (idempotent)."""
        self.http.start()
        self.sink.start()
        return self

    def stop(self) -> None:
        """Stop both planes gracefully (idempotent)."""
        self.sink.stop()
        self.http.stop()

    def __enter__(self) -> "ExchangeServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
