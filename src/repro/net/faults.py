"""Lossy-channel fault injection and the reliable shipping layer.

The paper's step 4 runs the transfer program over a real Internet path
(Table 3); real paths drop, corrupt, duplicate, re-order, and delay
messages.  This module makes transport failure a first-class input:

* :class:`FaultPlan` — a deterministic, seeded schedule of faults.
  Each wire transmission gets a global message index; the plan decides
  (by per-index seeded draw, or an explicit script) whether and how
  that transmission fails.  Same plan, same decisions — runs are
  reproducible, which is what lets the differential suite assert
  byte-identical output under loss.
* :class:`FaultyChannel` — wraps a transport and applies the plan:
  drops and corruptions raise (after charging the wasted bytes to the
  wrapped transport — a lost message burned the wire), duplicates
  deliver twice, re-orders hold a message back until the next one
  passes it, delays inflate transfer time.
* :class:`RetryPolicy` — at most ``max_attempts`` sends of one
  message; exhaustion raises :class:`~repro.errors.RetryExhausted`
  carrying the attempt count and last cause.
* :class:`ReliableBatchLink` — the healing layer the executor arms on
  every cross-edge (an unbatched feed is its stream's one batch):
  re-send on drop/corruption, de-duplicate re-deliveries by sequence
  number (idempotent delivery), and re-assemble re-ordered batch
  streams in ``seq`` order, so the written output stays byte-identical
  to a fault-free run.  It counts its healing work into the run's
  :class:`~repro.core.program.executor.ExecutionReport`.  Publish&map's
  one document is re-sent by :meth:`RetryPolicy.run` directly.

What a batch costs on the wire, and what message carries it, is the
transport's answer (:meth:`~repro.net.transport.Transport.frame`), the
same one its ``ship_batch`` sends.  So corruption detection is real
where the wire carries messages: the frame's message is garbled and
fails its Adler-32 feed checksum in the receivers' verifier
(:func:`~repro.net.soap.read_fragment_feed`); on a byte-counting wire,
which sends no message, the checksum verdict is simulated.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import Callable, Iterable, Mapping, TypeVar

from repro.errors import (
    MessageCorrupted,
    MessageDropped,
    RetryExhausted,
    SoapFault,
    TransportError,
)
from repro.core.columnar import ColumnBatch
from repro.core.program.executor import ExecutionReport, Shipment
from repro.net.soap import CHECKSUM_ATTR, read_fragment_feed
from repro.net.transport import Frame, Transport
from repro.obs.trace import NULL_TRACER, Tracer

_T = TypeVar("_T")


class FaultKind(str, Enum):
    """The ways one wire transmission can misbehave."""

    DROP = "drop"
    CORRUPT = "corrupt"
    DUPLICATE = "duplicate"
    REORDER = "reorder"
    DELAY = "delay"


#: Rate-style fields of :class:`FaultPlan`, in draw order.
_RATE_FIELDS = ("drop", "corrupt", "duplicate", "reorder", "delay")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of channel faults.

    Two modes:

    * **seeded rates** — each transmission index draws once from a
      ``random.Random`` seeded by ``(seed, index)``, so the decision
      for message *i* is stable regardless of thread interleaving or
      how many other messages were sent;
    * **scripted** — ``script`` maps message indices to fault kinds
      exactly (the fault-matrix tests use this to make every kind fire
      on schedule).

    ``delay_seconds`` is the extra in-flight time a ``delay`` (or a
    held ``reorder``) message suffers.
    """

    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.05
    seed: int = 0
    script: Mapping[int, FaultKind] | None = None

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate {name}={rate} must be in [0, 1]"
                )
        if sum(getattr(self, name) for name in _RATE_FIELDS) > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds cannot be negative")
        if self.script is not None and any(
            getattr(self, name) for name in _RATE_FIELDS
        ):
            raise ValueError(
                "a scripted plan cannot also carry fault rates"
            )
        if self.script is not None and any(
            index < 0 for index in self.script
        ):
            raise ValueError(
                f"scripted message indices start at 0, got "
                f"{min(self.script)}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI spec.

        Rate form: ``"drop=0.1,corrupt=0.05,seed=7"``.  Scripted form:
        ``"drop@3,corrupt@5"`` (fault kind at message index).  The two
        forms cannot be mixed, matching the dataclass's validation.

        Raises:
            ValueError: on unknown keys, bad numbers (naming the
                token), mixed forms, or a message index scripted twice
                or below 0.
        """
        numeric = {f.name for f in fields(cls)} - {"script", "seed"}
        rates: dict[str, float] = {}
        seed: int | None = None
        script: dict[int, FaultKind] = {}
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if "@" in token:
                kind_text, _, index_text = token.partition("@")
                try:
                    index = int(index_text)
                    kind = FaultKind(kind_text.strip())
                except ValueError as exc:
                    raise ValueError(
                        f"bad scripted fault {token!r}: {exc}"
                    ) from exc
                if index in script:
                    raise ValueError(
                        f"message {index} is scripted twice "
                        f"({script[index].value}@{index} and {token})"
                    )
                script[index] = kind
                continue
            key, _, value = token.partition("=")
            key = key.strip()
            if key == "seed":
                try:
                    seed = int(value)
                except ValueError as exc:
                    raise ValueError(f"bad fault seed {token!r}") from exc
            elif key in numeric:
                try:
                    rates[key] = float(value)
                except ValueError as exc:
                    raise ValueError(
                        f"bad fault rate {token!r}"
                    ) from exc
            else:
                raise ValueError(
                    f"unknown fault-plan key {key!r} (expected one of "
                    f"{sorted(numeric | {'seed'})} or kind@index)"
                )
        kwargs: dict[str, object] = dict(rates)
        if seed is not None:
            kwargs["seed"] = seed
        if script:
            kwargs["script"] = script
        return cls(**kwargs)  # type: ignore[arg-type]

    def fault_for(self, index: int) -> FaultKind | None:
        """The fault (if any) transmission number ``index`` suffers."""
        if self.script is not None:
            return self.script.get(index)
        draw = random.Random(f"{self.seed}:{index}").random()
        for name in _RATE_FIELDS:
            draw -= getattr(self, name)
            if draw < 0.0:
                return FaultKind(name)
        return None

    def describe(self) -> str:
        """Human-readable one-liner for reports and the CLI."""
        if self.script is not None:
            schedule = ",".join(
                f"{kind.value}@{index}"
                for index, kind in sorted(self.script.items())
            )
            return schedule or "no faults"
        parts = [
            f"{name}={getattr(self, name):g}"
            for name in _RATE_FIELDS
            if getattr(self, name)
        ]
        if not parts:
            return "no faults"
        return ",".join(parts) + f",seed={self.seed}"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-send policy for one message.

    At most ``max_attempts`` sends, back to back."""

    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def run(self, send: Callable[[], _T], describe: str,
            tracer: Tracer | None = None,
            on_retry: Callable[[], None] | None = None) -> _T:
        """Call ``send`` until it succeeds or attempts run out.

        Retryable failures are :class:`~repro.errors.TransportError`
        and :class:`~repro.errors.SoapFault` (drop, corruption);
        anything else propagates immediately.  Every failed attempt
        records one ``retry`` span on ``tracer``, and every re-send
        that follows one calls ``on_retry``.

        Raises:
            RetryExhausted: after ``max_attempts`` failures, carrying
                the attempt count and the last cause.
        """
        tracer = tracer or NULL_TRACER
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            attempt_started = time.perf_counter()
            try:
                return send()
            except (TransportError, SoapFault) as exc:
                if isinstance(exc, RetryExhausted):
                    raise
                last = exc
                tracer.record(
                    f"retry {describe}", "retry",
                    start=attempt_started,
                    seconds=time.perf_counter() - attempt_started,
                    attempt=attempt, error=type(exc).__name__,
                )
                if attempt < self.max_attempts and on_retry is not None:
                    on_retry()
        raise RetryExhausted(
            f"{describe}: gave up after {self.max_attempts} attempts "
            f"({last})",
            attempts=self.max_attempts,
            last_cause=last,
        ) from last


@dataclass(slots=True)
class FaultStats:
    """What a :class:`FaultyChannel` actually injected."""

    drops: int = 0
    corruptions: int = 0
    duplicates: int = 0
    reorders: int = 0
    delays: int = 0

    @property
    def injected(self) -> int:
        """Total faults fired."""
        return sum(astuple(self))


def corrupt_soap_message(message: str) -> str:
    """Flip content inside a SOAP message (the in-flight bit error).

    Mangles the first hex digit of the feed checksum every batch
    message declares — guaranteed to be caught by verification.
    """
    marker = f'{CHECKSUM_ATTR}="'
    position = message.index(marker) + len(marker)
    original = message[position]
    replacement = "0" if original != "0" else "1"
    return message[:position] + replacement + message[position + 1:]


#: The :class:`FaultStats` field each fault kind counts in.
_STAT_FIELDS = {
    FaultKind.DROP: "drops",
    FaultKind.CORRUPT: "corruptions",
    FaultKind.DUPLICATE: "duplicates",
    FaultKind.REORDER: "reorders",
    FaultKind.DELAY: "delays",
}


class FaultyChannel:
    """Deterministic fault-injecting wrapper around a transport.

    Wraps a :class:`~repro.net.transport.Transport` and implements
    the executors' ``ShippingChannel`` protocol: without a retry layer
    above it, injected drops/corruptions surface as raised
    :class:`~repro.errors.TransportError` subclasses (fail-fast, the
    pre-robustness behaviour).  :meth:`transmit_batch` additionally
    reports *what the receiver got* — zero, one, or two copies, possibly
    out of order — which is what :class:`ReliableBatchLink` heals from.

    Every transmission (including re-sends) consumes a fresh message
    index from the plan, and a copy that delivers nothing — a drop, a
    corruption, the discarded half of a duplicate — is charged to the
    wrapped transport (:meth:`~repro.net.transport.Transport.
    charge_lost`) at what the transport says it puts on the wire
    (:meth:`~repro.net.transport.Transport.frame`): loss is never
    free.  Unknown attributes delegate to the wrapped transport so
    accounting (``total_bytes``, ``reset``, …) reads through.
    """

    def __init__(self, inner: Transport, plan: FaultPlan,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.plan = plan
        self.stats = FaultStats()
        self.tracer = tracer or NULL_TRACER
        self._lock = threading.Lock()
        self._index = 0
        self._held: dict[object, list[ColumnBatch]] = {}

    def __getattr__(self, name: str) -> object:
        return getattr(self.inner, name)

    def _next_fault(self) -> tuple[int, FaultKind | None]:
        with self._lock:
            index = self._index
            self._index += 1
        kind = self.plan.fault_for(index)
        if kind is not None:
            self.tracer.record(
                f"fault:{kind.value}", "fault", seconds=0.0,
                index=index,
            )
        return index, kind

    def _count(self, kind: FaultKind) -> None:
        attr = _STAT_FIELDS[kind]
        with self._lock:
            setattr(self.stats, attr, getattr(self.stats, attr) + 1)

    def _delayed(self, shipment: Shipment) -> Shipment:
        self.inner.charge_delay(self.plan.delay_seconds)
        return Shipment(
            shipment.bytes_sent,
            shipment.seconds + self.plan.delay_seconds,
        )

    def _transmit(self, what: str, frame: Callable[[], Frame],
                  send: Callable[[], Shipment]
                  ) -> tuple[Shipment, FaultKind | None]:
        """One wire transmission of ``what`` under the plan — the one
        fault switch of both shipping verbs.  A drop or a corruption
        charges ``frame()`` lost and raises (a corrupted message fails
        the receivers' verifier; with no message, its verdict is
        simulated); otherwise ``send()`` ships, a duplicate charges
        its discarded copy and a delay adds the plan's delay.  Returns
        the receipt and the fault that fired."""
        index, kind = self._next_fault()
        if kind is FaultKind.DROP or kind is FaultKind.CORRUPT:
            self._count(kind)
            message, _, size = frame()
            self.inner.charge_lost(size)
            if kind is FaultKind.DROP:
                raise MessageDropped(
                    f"{what} (message {index}) dropped by fault plan"
                )
            if message is not None:
                try:
                    read_fragment_feed(corrupt_soap_message(message))
                except SoapFault as fault:
                    raise MessageCorrupted(
                        f"{what} (message {index}) corrupted in "
                        f"flight: {fault}"
                    ) from fault
            raise MessageCorrupted(
                f"{what} (message {index}) corrupted in flight "
                "(checksum mismatch)"
            )
        shipment = send()
        if kind is not None:
            self._count(kind)
        if kind is FaultKind.DUPLICATE:
            self.inner.charge_lost(frame().size)
        elif kind is FaultKind.DELAY:
            shipment = self._delayed(shipment)
        return shipment, kind

    # -- ShippingChannel protocol -------------------------------------------------

    def ship_batch(self, batch: ColumnBatch) -> Shipment:
        """Ship one batch; raises on injected drop/corruption."""
        return self.transmit_batch(batch)[0]

    def ship_document(self, text: str) -> Shipment:
        """Ship a published document; raises on drop/corruption.  A
        lost copy is charged what the transport puts on its wire
        (:meth:`~repro.net.transport.Transport.document_size`); a
        re-order is a delay, since one document has nothing to fall
        behind."""
        shipment, kind = self._transmit(
            "document",
            lambda: Frame(None, None, self.inner.document_size(text)),
            lambda: self.inner.ship_document(text),
        )
        if kind is FaultKind.REORDER:
            shipment = self._delayed(shipment)
        return shipment

    # -- delivery-level API (used by the reliable layer) ---------------------------

    def transmit_batch(
        self, batch: ColumnBatch, edge: object = None,
    ) -> tuple[Shipment, list[ColumnBatch]]:
        """One wire transmission of a stream batch.

        ``edge`` scopes the re-order holdback: a held batch is released
        right after the next successful transmission *of the same
        edge* (the same part stream, for a fragment shipped as its
        flat parts), arriving behind its successor (the out-of-order
        delivery the receiver's seq reassembly must fix).
        """
        shipment, kind = self._transmit(
            f"batch {batch.seq}", lambda: self.inner.frame(batch),
            lambda: self.inner.ship_batch(batch),
        )
        with self._lock:
            held = self._held.setdefault(edge, [])
            if kind is FaultKind.REORDER:
                # Transmitted now, delivered behind the next message.
                held.append(batch)
                return shipment, []
            delivered = [batch, *held]
            held.clear()
        if kind is FaultKind.DUPLICATE:
            delivered.insert(1, batch)
        return shipment, delivered

    def flush_batches(self, edge: object = None) -> list[ColumnBatch]:
        """Deliver any batches still held back on ``edge`` (stream
        end: the late messages do eventually arrive)."""
        with self._lock:
            return self._held.pop(edge, [])


class ReliableBatchLink:
    """Reliable in-order delivery of one cross-edge batch stream.

    The sender side re-sends on failure (per :class:`RetryPolicy`);
    the receiver side de-duplicates by batch ``seq`` and buffers
    out-of-order arrivals until the gap fills, emitting batches in
    exactly the order a fault-free channel would have.  The single
    ``seq``-less batch of an unbatched stream counts as batch 0.

    The healing work is counted straight into the run's ``report``:
    ``retries``/``redelivered_batches`` and, under this link's
    ``edge`` key, ``retries_by_edge``/``redelivered_by_edge`` — added
    to, so links sharing an edge key sum rather than overwrite.
    """

    def __init__(self, channel: object, policy: RetryPolicy,
                 report: ExecutionReport, edge: tuple,
                 start_seq: int = 0,
                 tracer: Tracer | None = None) -> None:
        self.channel = channel
        self.policy = policy
        self.report = report
        self.edge = edge
        self.tracer = tracer or NULL_TRACER
        self._transmit = getattr(channel, "transmit_batch", None)
        self._flush = getattr(channel, "flush_batches", None)
        self._expected = start_seq
        self._seen: set[int] = set()
        self._buffer: dict[int, ColumnBatch] = {}

    def _count(self, total: str, by_edge: dict[tuple, int]) -> None:
        setattr(self.report, total, getattr(self.report, total) + 1)
        by_edge[self.edge] = by_edge.get(self.edge, 0) + 1

    def _absorb(self, delivered: Iterable[ColumnBatch]
                ) -> list[ColumnBatch]:
        ready: list[ColumnBatch] = []
        for batch in delivered:
            seq = batch.seq or 0
            if seq in self._seen or seq < self._expected:
                self._count("redelivered_batches",
                            self.report.redelivered_by_edge)
                continue
            self._seen.add(seq)
            self._buffer[seq] = batch
        while self._expected in self._buffer:
            ready.append(self._buffer.pop(self._expected))
            self._seen.discard(self._expected)
            self._expected += 1
        return ready

    def send(self, batch: ColumnBatch
             ) -> tuple[Shipment, list[ColumnBatch]]:
        """Transmit one batch; return the charge receipt and every
        batch that became deliverable in order."""
        ready: list[ColumnBatch] = []

        def attempt() -> Shipment:
            if self._transmit is not None:
                shipment, delivered = self._transmit(batch, self.edge)
            else:
                shipment = self.channel.ship_batch(batch)
                delivered = [batch]
            ready.extend(self._absorb(delivered))
            return shipment

        shipment = self.policy.run(
            attempt,
            f"batch {batch.seq} of fragment {batch.fragment.name!r}",
            self.tracer,
            lambda: self._count("retries", self.report.retries_by_edge),
        )
        return shipment, ready

    def finish(self) -> list[ColumnBatch]:
        """Flush held-back deliveries at end of stream.

        Raises:
            TransportError: if a sequence gap survives the flush (a
                batch was never delivered despite retries).
        """
        delivered = (
            self._flush(self.edge) if self._flush is not None else []
        )
        ready = self._absorb(delivered)
        if self._buffer:
            missing = self._expected
            arrived = sorted(self._buffer)
            raise TransportError(
                f"batch stream gap: batch {missing} never arrived "
                f"(received {arrived} past it)"
            )
        return ready
