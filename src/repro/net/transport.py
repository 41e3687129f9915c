"""Pluggable transports between the source and target systems.

The paper's machines were connected through the Internet; Table 3 times
TCP transfers of fragments and full documents.  Those are the two
messages a :class:`Transport` sends: a feed batch
(:meth:`Transport.ship_batch`) and a published document
(:meth:`Transport.ship_document`).  Everything that ships data — the
executor, the fault-injecting wrapper and its reliable link, the
exchange service and the broker — depends only on the interface
defined here, so the wire under an exchange is interchangeable:

* :class:`SimulatedChannel` charges ``latency + bytes / bandwidth``
  simulated seconds per message (the reproduction's measured quantity),
* :class:`InProcessTransport` is the zero-cost degenerate case (bytes
  are counted, no time is charged — a perfect LAN),
* :class:`TcpTransport` moves every message over a real socket as a
  length-prefixed SOAP envelope and measures actual wall seconds — the
  deployment transport behind :mod:`repro.net.server`.

All three account thread-safely, enforce send-after-close uniformly
(:class:`~repro.errors.TransportError`), and support the optional
``wire_format`` fidelity level: each feed batch is serialized into
its SOAP message (always on for :class:`TcpTransport`, where the wire
is real).

A hop costs one encode and one decode, and every batch crosses it as
tuples: a :class:`~repro.core.columnar.ColumnBatch` is written
straight from its columns, one line of cells per row
(:func:`~repro.net.soap.encode_batch`), and the receiver verifies the
lines' count and checksum (:func:`~repro.net.soap.read_fragment_feed`)
— no row trees on either side.  Whoever *receives* a message verifies it, and nobody else does:
over TCP that is the :class:`~repro.net.server.FeedSink`, whose ack the
sender checks against the checksum it computed while encoding; the
simulated and in-process wires have no peer, so there the transport
plays its own receiver with the same verifier, decodes the columns and
hands them on.
"""

from __future__ import annotations

import abc
import socket
import threading
import time
from dataclasses import dataclass

from repro.errors import SoapFault, TransportError
from repro.core.columnar import ColumnBatch
from repro.core.program.executor import Shipment
from repro.net.soap import (
    CHECKSUM_ATTR,
    SEQ_ATTR,
    encode_batch,
    parse_envelope,
    read_fragment_feed,
    wrap_document,
)
from repro.obs.trace import NULL_TRACER, Tracer

#: Frame header: one big-endian unsigned 32-bit payload length.
FRAME_HEADER_BYTES = 4
#: Upper bound on one framed message (defensive: a corrupt header must
#: not make a receiver try to allocate gigabytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame to ``sock``.

    Raises:
        TransportError: if the payload exceeds :data:`MAX_FRAME_BYTES`.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    header = len(payload).to_bytes(FRAME_HEADER_BYTES, "big")
    sock.sendall(header + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF at a
    frame boundary.

    Raises:
        TransportError: if the connection dies mid-frame.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise TransportError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one length-prefixed frame, or ``None`` on a clean EOF.

    Raises:
        TransportError: on a truncated frame or an oversized header.
    """
    header = _recv_exact(sock, FRAME_HEADER_BYTES)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame header declares {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    payload = _recv_exact(sock, length)
    if payload is None and length:
        raise TransportError("connection closed before frame payload")
    return payload if payload is not None else b""


@dataclass(frozen=True, slots=True)
class NetworkProfile:
    """Link characteristics.

    The default approximates the paper's inter-state Internet path of
    2003: ~1.25 MB/s sustained.  Per-message latency is kept small by
    default because the experiments run on scaled-down documents — at
    the paper's 25 MB a 50 ms handshake is invisible, but at 2% scale
    it would dominate and distort every shape; scale-independent
    behaviour matters more than a realistic RTT here.
    """

    name: str = "internet"
    bandwidth_bytes_per_second: float = 1_250_000.0
    latency_seconds: float = 0.002

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_second <= 0:
            raise TransportError("bandwidth must be positive")
        if self.latency_seconds < 0:
            raise TransportError("latency cannot be negative")


#: A loopback-ish profile for transports whose time is *measured*
#: rather than charged (cost probes still need a transfer-cost answer).
LOOPBACK_PROFILE = NetworkProfile(
    "loopback",
    bandwidth_bytes_per_second=1_000_000_000.0,
    latency_seconds=0.0001,
)


class Transport(abc.ABC):
    """One-way source → target data transport with byte/time accounting.

    This is the interface every shipper in the system depends on.  It
    has two shipping verbs: :meth:`ship_batch`, through which the
    executors send every cross-edge feed, and :meth:`ship_document`,
    through which publish&map sends its whole document.  Fault
    injection wraps it, the exchange service resets and reads its
    accounting windows, and cost probes ask it :meth:`transfer_cost`.

    Accounting is thread-safe: a caller may share one transport
    across its threads.  Lifecycle is uniform across
    implementations: :meth:`close` is idempotent and thread-safe, and
    any send after it raises :class:`~repro.errors.TransportError`.
    """

    def __init__(self, profile: NetworkProfile | None = None,
                 wire_format: bool = False,
                 tracer: Tracer | None = None) -> None:
        self.profile = profile or NetworkProfile()
        self.wire_format = wire_format
        self.tracer = tracer or NULL_TRACER
        self.total_bytes = 0
        self.total_seconds = 0.0
        self.messages = 0
        self.lost_messages = 0
        self.lost_bytes = 0
        self._closed = False
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close the transport; further sends raise.

        Thread-safe and idempotent: the first call flips the closed
        flag under the lock and runs :meth:`_on_close` exactly once;
        later calls are no-ops.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._on_close()

    def _on_close(self) -> None:
        """Release implementation resources (sockets, …).  Called once,
        after the closed flag is set."""

    def reset(self) -> None:
        """Zero the counters (fresh measurement window)."""
        with self._lock:
            self.total_bytes = 0
            self.total_seconds = 0.0
            self.messages = 0
            self.lost_messages = 0
            self.lost_bytes = 0

    def _ensure_open(self) -> None:
        with self._lock:
            if self._closed:
                raise TransportError(
                    f"{type(self).__name__} is closed "
                    "(send after close)"
                )

    def _account(self, size_bytes: int, seconds: float,
                 lost: bool = False) -> None:
        with self._lock:
            self.total_bytes += size_bytes
            self.total_seconds += seconds
            self.messages += 1
            if lost:
                self.lost_messages += 1
                self.lost_bytes += size_bytes

    # -- cost interface (used by probes) ----------------------------------------

    def transfer_cost(self, size_bytes: float) -> float:
        """Seconds to move ``size_bytes`` over this link."""
        return (
            self.profile.latency_seconds
            + size_bytes / self.profile.bandwidth_bytes_per_second
        )

    # -- accounting hooks (used by fault injection) ------------------------------

    def _charge(self, size_bytes: int, lost: bool = False) -> Shipment:
        """Account one wire transmission of ``size_bytes``, charging
        :meth:`transfer_cost` seconds.  Raises after :meth:`close`."""
        self._ensure_open()
        started = time.perf_counter()
        seconds = self.transfer_cost(size_bytes)
        self._account(size_bytes, seconds, lost=lost)
        # Span duration is the *simulated* transfer time — the wire
        # span shows what the link charged, not bookkeeping overhead.
        self.tracer.record(
            "wire", "wire", start=started, seconds=seconds,
            bytes=size_bytes,
        )
        return Shipment(size_bytes, seconds)

    def charge_lost(self, size_bytes: int) -> Shipment:
        """Account a transmission that consumed the wire but delivered
        nothing usable — a dropped or corrupted message, or the
        discarded copy of a duplicate.

        Failed and retried sends burn bandwidth and link time exactly
        like successful ones; without this accounting a lossy run would
        understate its communication cost by every wasted transmission.
        """
        return self._charge(size_bytes, lost=True)

    def charge_delay(self, seconds: float) -> None:
        """Account extra in-flight time (an injected delivery delay)."""
        with self._lock:
            self.total_seconds += seconds

    # -- shipping ----------------------------------------------------------------

    def ship_batch(self, batch: ColumnBatch) -> Shipment:
        """Ship one batch of a fragment feed — the only way a feed
        crosses a cross-edge.  An unbatched run's single ``seq``-less
        batch is the whole feed as one message, byte-for-byte
        :func:`~repro.net.soap.wrap_fragment_feed`'s.

        Each batch is one message: it pays the per-message latency —
        finer batching buys pipelining at the price of more handshakes,
        exactly the chunk-size trade-off of a streamed transfer.  Wire
        format encodes the batch and, playing the receiver, takes back
        what crossed the network: the batch is verified as the feed
        sink verifies it (:func:`~repro.net.soap.read_fragment_feed`)
        and rebound to the columns it decoded.
        """
        if not self.wire_format:
            return self._charge(batch.feed_size())
        message, _ = encode_batch(batch)
        shipment = self._charge(len(message))
        batch.rebind(read_fragment_feed(message, batch.fragment).columns)
        return shipment

    def ship_document(self, text: str) -> Shipment:
        """Ship a whole published document (publish&map step 3)."""
        return self._charge(len(text))


class SimulatedChannel(Transport):
    """Simulated channel charging ``latency + bytes / bandwidth``.

    Two fidelity levels: the default counts bytes from the batch's
    estimated feed size (fast); ``wire_format=True`` actually serializes
    each feed batch into its SOAP message and parses it back on the
    other side.  With ``realtime=True`` every send also *sleeps* its
    simulated transfer time, so a measured wall clock feels the link;
    concurrent sends sleep concurrently, modelling one transfer stream
    per in-flight fragment.
    """

    def __init__(self, profile: NetworkProfile | None = None,
                 wire_format: bool = False,
                 realtime: bool = False,
                 tracer: Tracer | None = None) -> None:
        super().__init__(profile, wire_format, tracer)
        self.realtime = realtime

    def _charge(self, size_bytes: int, lost: bool = False) -> Shipment:
        shipment = super()._charge(size_bytes, lost=lost)
        if self.realtime:
            # In realtime mode the simulated transfer time equals the
            # wall time slept.
            time.sleep(shipment.seconds)
        return shipment

    def charge_delay(self, seconds: float) -> None:
        super().charge_delay(seconds)
        if self.realtime:
            time.sleep(seconds)


class InProcessTransport(Transport):
    """Zero-cost transport: bytes are counted, no time is charged.

    The degenerate perfect-LAN link — what the executor's implicit
    default channel models, promoted to a full :class:`Transport` so
    zero-cost runs still get byte accounting, close enforcement, and
    (optionally) the true SOAP encode/decode path of ``wire_format``.
    """

    def __init__(self, wire_format: bool = False,
                 tracer: Tracer | None = None) -> None:
        super().__init__(LOOPBACK_PROFILE, wire_format, tracer)

    def transfer_cost(self, size_bytes: float) -> float:
        """An in-process hop is free."""
        return 0.0


class TcpTransport(Transport):
    """Length-prefixed SOAP envelopes over a real TCP socket.

    Every send frames one SOAP message (4-byte big-endian length +
    UTF-8 envelope), writes it to the socket, and waits for the
    receiver's length-prefixed reply — an ``Ack`` envelope carrying the
    receiver-side verification (fragment name, row count, and the
    Adler-32 feed checksum the receiver recomputed), or a SOAP
    ``Fault`` that surfaces here as :class:`~repro.errors.SoapFault`.
    The peer is a :class:`repro.net.server.FeedSink` (or anything
    speaking the same framing).

    Accounting is *measured*: ``total_seconds`` accumulates the actual
    wall time of each round trip and ``total_bytes`` the payload bytes
    sent.  ``transfer_cost`` (the probes' question) answers from
    ``profile`` — default :data:`LOOPBACK_PROFILE`.

    Wire format is always on — the wire is real — and so is the
    receiver: a send encodes once, the sink verifies once, and this
    side checks the ``Ack`` (kind, fragment, count, checksum, ``seq``;
    ``bytes`` for a document) against what it sent, raising
    :class:`~repro.errors.SoapFault` on any difference.  The message
    is *not* decoded again here: the shipped batch keeps its columns
    (the encoder has already left on them exactly the text it wrote —
    see :func:`~repro.net.soap.encode_batch`).
    Round trips are serialized per transport (one in-flight message
    per connection); concurrent sessions get their own connections.
    """

    def __init__(self, sock: socket.socket,
                 profile: NetworkProfile | None = None,
                 tracer: Tracer | None = None) -> None:
        super().__init__(profile or LOOPBACK_PROFILE, True, tracer)
        self._sock = sock
        self._io_lock = threading.Lock()
        try:
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except OSError:  # pragma: no cover - platform-dependent
            pass

    @classmethod
    def connect(cls, host: str, port: int, *,
                timeout: float | None = 10.0,
                profile: NetworkProfile | None = None,
                tracer: Tracer | None = None) -> "TcpTransport":
        """Open a connection to a feed sink at ``host:port``.

        Raises:
            TransportError: if the connection cannot be established.
        """
        try:
            sock = socket.create_connection((host, port),
                                            timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to feed sink at {host}:{port}: {exc}"
            ) from exc
        return cls(sock, profile=profile, tracer=tracer)

    def _on_close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _roundtrip(self, message: str,
                   sent: dict[str, str | None]) -> Shipment:
        """Send one framed SOAP message, await the reply, and hold the
        receiver's ``Ack`` against ``sent`` (ack attribute → the value
        this side computed; ``None`` for one that must be absent).

        Raises:
            TransportError: on socket failure or send-after-close.
            SoapFault: when the receiver replies with a SOAP Fault
                (its verification rejected the message), or
                acknowledges something other than what was sent.
        """
        self._ensure_open()
        payload = message.encode("utf-8")
        started = time.perf_counter()
        try:
            with self._io_lock:
                send_frame(self._sock, payload)
                reply = recv_frame(self._sock)
        except OSError as exc:
            raise TransportError(
                f"socket send failed: {exc}"
            ) from exc
        if reply is None:
            raise TransportError(
                "feed sink closed the connection before replying"
            )
        seconds = time.perf_counter() - started
        self._account(len(payload), seconds)
        self.tracer.record(
            "wire", "wire", start=started, seconds=seconds,
            bytes=len(payload),
        )
        # Raises SoapFault when the receiver rejected the message.
        ack = parse_envelope(reply.decode("utf-8", "replace"))
        if ack.local_name() != "Ack":
            raise SoapFault(
                f"feed sink replied with a <{ack.name}>, not an Ack"
            )
        for attr, value in sent.items():
            if ack.get(attr) != value:
                raise SoapFault(
                    f"feed sink acknowledged {attr}={ack.get(attr)!r} "
                    f"but {value!r} was sent"
                )
        return Shipment(len(payload), seconds)

    def _charge(self, size_bytes: int, lost: bool = False) -> Shipment:
        """Account a transmission that never reaches the socket (the
        fault injector charging a dropped/duplicated copy): bytes are
        real, time is the profile's estimate — there was no round trip
        to measure."""
        self._ensure_open()
        seconds = self.transfer_cost(size_bytes)
        self._account(size_bytes, seconds, lost=lost)
        return Shipment(size_bytes, seconds)

    def ship_batch(self, batch: ColumnBatch) -> Shipment:
        message, checksum = encode_batch(batch)
        return self._roundtrip(message, {
            "of": "FragmentFeed",
            "fragment": batch.fragment.name,
            "count": str(batch.row_count()),
            CHECKSUM_ATTR: checksum,
            SEQ_ATTR: None if batch.seq is None else str(batch.seq),
        })

    def ship_document(self, text: str) -> Shipment:
        return self._roundtrip(
            wrap_document(text),
            {"of": "Document", "bytes": str(len(text))},
        )
