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
* :class:`FaultyChannel` — wraps any shipping channel and applies the
  plan: drops and corruptions raise (after charging the wasted bytes
  to the wrapped channel — a lost message burned the wire), duplicates
  deliver twice, re-orders hold a message back until the next one
  passes it, delays inflate transfer time.
* :class:`RetryPolicy` — bounded attempts with exponential backoff (a
  ``jitter`` hook decorates the delay) and an optional per-message
  timeout; exhaustion raises :class:`~repro.errors.RetryExhausted`
  carrying the attempt count and last cause.
* :class:`ReliableBatchLink` — the healing layer the executor arms on
  every cross-edge (an unbatched feed is its stream's one batch):
  re-send on drop/corruption/timeout, de-duplicate re-deliveries by
  sequence number (idempotent delivery), and re-assemble re-ordered
  batch streams in ``seq`` order, so the written output stays
  byte-identical to a fault-free run.  Publish&map's one document is
  re-sent by :meth:`RetryPolicy.run` directly.

Corruption detection is real where the wire is real: with a
``wire_format`` channel the batch is encoded as the channel would send
it (:func:`~repro.net.soap.encode_batch`, a flat batch as a tuple
feed straight from its columns) and the corrupted message fails its
Adler-32 feed checksum in the receivers' verifier
(:func:`~repro.net.soap.read_fragment_feed`);
on byte-counting channels the checksum verdict is simulated.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable, Mapping, TypeVar

from repro.errors import (
    MessageCorrupted,
    MessageDropped,
    MessageTimeout,
    RetryExhausted,
    SoapFault,
    TransportError,
)
from repro.core.columnar import ColumnBatch
from repro.core.program.executor import Shipment
from repro.core.stream import RowBatch
from repro.net.soap import (
    CHECKSUM_ATTR,
    encode_batch,
    read_fragment_feed,
)
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

    ``delay_for(failures)`` grows exponentially from
    ``base_delay_seconds`` by ``backoff_factor``, capped at
    ``max_delay_seconds``; a ``jitter`` hook (e.g. ``lambda d:
    d * random.random()``) decorates the computed delay.  ``sleep`` is
    injectable so tests never wait for real.  ``timeout_seconds``
    bounds one message's simulated delivery time — a slower delivery
    counts as a failure and is re-sent.
    """

    max_attempts: int = 4
    base_delay_seconds: float = 0.0
    backoff_factor: float = 2.0
    max_delay_seconds: float = 1.0
    timeout_seconds: float | None = None
    jitter: Callable[[float], float] | None = None
    sleep: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_seconds < 0:
            raise ValueError("base_delay_seconds cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")

    def delay_for(self, failures: int) -> float:
        """Backoff delay after the ``failures``-th consecutive failure
        (1-based)."""
        delay = min(
            self.base_delay_seconds
            * self.backoff_factor ** (failures - 1),
            self.max_delay_seconds,
        )
        if self.jitter is not None:
            delay = self.jitter(delay)
        return max(delay, 0.0)

    def check_timeout(self, shipment: Shipment) -> Shipment:
        """Enforce the per-message timeout on a delivery receipt.

        Raises:
            MessageTimeout: if the shipment took longer than allowed
                (the wasted transmission stays charged).
        """
        if self.timeout_seconds is not None \
                and shipment.seconds > self.timeout_seconds:
            raise MessageTimeout(
                f"message took {shipment.seconds:.3f}s, over the "
                f"{self.timeout_seconds:.3f}s timeout"
            )
        return shipment

    def run(self, send: Callable[[], _T], describe: str,
            stats: "RobustnessStats | _EdgeScopedStats | None" = None,
            tracer: "Tracer | None" = None) -> _T:
        """Call ``send`` until it succeeds or attempts run out.

        Retryable failures are :class:`~repro.errors.TransportError`
        and :class:`~repro.errors.SoapFault` (drop, corruption,
        timeout); anything else propagates immediately.  Every failed
        attempt records one ``retry`` span on ``tracer``.

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
                if stats is not None and isinstance(exc, MessageTimeout):
                    stats.count_timeout()
                if attempt == self.max_attempts:
                    break
                if stats is not None:
                    stats.count_retry()
                delay = self.delay_for(attempt)
                if delay > 0:
                    (self.sleep or time.sleep)(delay)
        raise RetryExhausted(
            f"{describe}: gave up after {self.max_attempts} attempts "
            f"({last})",
            attempts=self.max_attempts,
            last_cause=last,
        ) from last


class RobustnessStats:
    """Thread-safe counters of the reliable layer's healing work.

    Besides the run-wide totals, retries and discarded duplicates are
    broken down per edge (the producer-port key the executors use) in
    ``retries_by_edge``/``redelivered_by_edge``.  Edge counts are
    accumulated with ``+=`` under the lock — several links sharing one
    stats object (the streaming executors arm one
    :class:`ReliableBatchLink` per cross-edge over a single stats
    instance) sum per edge rather than overwrite each other.
    """

    __slots__ = ("_lock", "retries", "redelivered", "timeouts",
                 "retries_by_edge", "redelivered_by_edge")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.retries = 0
        self.redelivered = 0
        self.timeouts = 0
        self.retries_by_edge: dict[object, int] = {}
        self.redelivered_by_edge: dict[object, int] = {}

    def count_retry(self, edge: object = None) -> None:
        """One re-send after a transport failure (on ``edge``)."""
        with self._lock:
            self.retries += 1
            if edge is not None:
                self.retries_by_edge[edge] = (
                    self.retries_by_edge.get(edge, 0) + 1
                )

    def count_redelivered(self, copies: int = 1,
                          edge: object = None) -> None:
        """``copies`` duplicate deliveries discarded by seq dedup."""
        with self._lock:
            self.redelivered += copies
            if edge is not None:
                self.redelivered_by_edge[edge] = (
                    self.redelivered_by_edge.get(edge, 0) + copies
                )

    def count_timeout(self) -> None:
        """One delivery abandoned for exceeding the message timeout."""
        with self._lock:
            self.timeouts += 1

    def scoped(self, edge: object) -> "_EdgeScopedStats":
        """A view that attributes every count to ``edge``."""
        return _EdgeScopedStats(self, edge)


class _EdgeScopedStats:
    """Forwards to a :class:`RobustnessStats`, binding one edge."""

    __slots__ = ("_stats", "_edge")

    def __init__(self, stats: RobustnessStats, edge: object) -> None:
        self._stats = stats
        self._edge = edge

    def count_retry(self) -> None:
        self._stats.count_retry(self._edge)

    def count_redelivered(self, copies: int = 1) -> None:
        self._stats.count_redelivered(copies, self._edge)

    def count_timeout(self) -> None:
        self._stats.count_timeout()


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
        return (self.drops + self.corruptions + self.duplicates
                + self.reorders + self.delays)


def corrupt_soap_message(message: str) -> str:
    """Flip content inside a SOAP message (the in-flight bit error).

    Prefers mangling the feed checksum's first hex digit — guaranteed
    to be caught by verification — and falls back to rotating a
    character in the middle of the payload.
    """
    marker = f'{CHECKSUM_ATTR}="'
    position = message.find(marker)
    if position >= 0:
        position += len(marker)
    else:
        position = len(message) // 2
    original = message[position]
    replacement = "0" if original != "0" else "1"
    return message[:position] + replacement + message[position + 1:]


class FaultyChannel:
    """Deterministic fault-injecting wrapper around a shipping channel.

    Implements the executors' ``ShippingChannel`` protocol: without a
    retry layer above it, injected drops/corruptions surface as raised
    :class:`~repro.errors.TransportError` subclasses (fail-fast, the
    pre-robustness behaviour).  :meth:`transmit_batch` additionally
    reports *what the receiver got* — zero, one, or two copies, possibly
    out of order — which is what :class:`ReliableBatchLink` heals from.

    Every transmission (including re-sends) consumes a fresh message
    index from the plan and, when the wrapped channel supports it
    (:meth:`~repro.net.transport.SimulatedChannel.charge_lost`), failed
    transmissions charge their bytes — loss is never free.  Unknown
    attributes delegate to the wrapped channel so accounting
    (``total_bytes``, ``reset``, …) reads through.
    """

    def __init__(self, inner: object, plan: FaultPlan,
                 tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.plan = plan
        self.stats = FaultStats()
        self.tracer = tracer or NULL_TRACER
        self._lock = threading.Lock()
        self._index = 0
        self._held: dict[object, list[RowBatch]] = {}

    def __getattr__(self, name: str) -> object:
        return getattr(self.inner, name)

    # -- plan bookkeeping --------------------------------------------------------

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

    def _charge_lost(self, size_bytes: int) -> None:
        charge = getattr(self.inner, "charge_lost", None)
        if charge is not None:
            charge(size_bytes)

    def _charge_delay(self, seconds: float) -> None:
        charge = getattr(self.inner, "charge_delay", None)
        if charge is not None:
            charge(seconds)

    def _count(self, attr: str) -> None:
        with self._lock:
            setattr(self.stats, attr, getattr(self.stats, attr) + 1)

    # -- sizes mirror what the wrapped channel charges ----------------------------

    def _wire(self) -> bool:
        return bool(getattr(self.inner, "wire_format", False))

    def _encoded(self, batch: ColumnBatch | RowBatch) -> str | None:
        """The message a wire-format channel sends for ``batch``, or
        ``None`` on a byte-counting one."""
        if not self._wire():
            return None
        return encode_batch(batch)[0]

    def _size(self, batch: ColumnBatch | RowBatch) -> int:
        message = self._encoded(batch)
        return batch.feed_size() if message is None else len(message)

    def _corrupt(self, index: int, batch: ColumnBatch | RowBatch) -> None:
        """Charge the garbled transmission and raise its detection."""
        self._count("corruptions")
        message = self._encoded(batch)
        if message is None:
            self._charge_lost(batch.feed_size())
        else:
            garbled = corrupt_soap_message(message)
            self._charge_lost(len(garbled))
            try:
                read_fragment_feed(garbled)
            except SoapFault as fault:
                raise MessageCorrupted(
                    f"message {index} corrupted in flight: {fault}"
                ) from fault
        raise MessageCorrupted(
            f"message {index} corrupted in flight "
            "(feed checksum mismatch)"
        )

    # -- ShippingChannel protocol -------------------------------------------------

    def ship_batch(self, batch: RowBatch) -> Shipment:
        """Ship one batch; raises on injected drop/corruption."""
        shipment, _ = self.transmit_batch(batch)
        return shipment

    def ship_document(self, text: str) -> Shipment:
        """Ship a published document; raises on drop/corruption."""
        index, kind = self._next_fault()
        if kind is FaultKind.DROP:
            self._count("drops")
            self._charge_lost(len(text))
            raise MessageDropped(
                f"document message {index} dropped by fault plan"
            )
        if kind is FaultKind.CORRUPT:
            self._count("corruptions")
            self._charge_lost(len(text))
            raise MessageCorrupted(
                f"document message {index} corrupted in flight"
            )
        shipment = self.inner.ship_document(text)
        if kind is FaultKind.DUPLICATE:
            self._count("duplicates")
            self._charge_lost(len(text))
        elif kind in (FaultKind.DELAY, FaultKind.REORDER):
            self._count("delays" if kind is FaultKind.DELAY
                        else "reorders")
            self._charge_delay(self.plan.delay_seconds)
            shipment = Shipment(
                shipment.bytes_sent,
                shipment.seconds + self.plan.delay_seconds,
            )
        return shipment

    # -- delivery-level API (used by the reliable layer) ---------------------------

    def transmit_batch(
        self, batch: RowBatch, edge: object = None,
    ) -> tuple[Shipment, list[RowBatch]]:
        """One wire transmission of a stream batch.

        ``edge`` scopes the re-order holdback: a held batch is released
        right after the next successful transmission *of the same
        edge*, arriving behind its successor (the out-of-order
        delivery the receiver's seq reassembly must fix).
        """
        index, kind = self._next_fault()
        if kind is FaultKind.DROP:
            self._count("drops")
            self._charge_lost(self._size(batch))
            raise MessageDropped(
                f"message {index} (batch {batch.seq}) dropped by "
                "fault plan"
            )
        if kind is FaultKind.CORRUPT:
            self._corrupt(index, batch)
        shipment = self.inner.ship_batch(batch)
        with self._lock:
            held = self._held.setdefault(edge, [])
            if kind is FaultKind.REORDER:
                # Transmitted now, delivered behind the next message.
                self.stats.reorders += 1
                held.append(batch)
                return shipment, []
            delivered = [batch] + held[:]
            held.clear()
        if kind is FaultKind.DUPLICATE:
            self._count("duplicates")
            self._charge_lost(self._size(batch))
            delivered.insert(1, batch)
        elif kind is FaultKind.DELAY:
            self._count("delays")
            self._charge_delay(self.plan.delay_seconds)
            shipment = Shipment(
                shipment.bytes_sent,
                shipment.seconds + self.plan.delay_seconds,
            )
        return shipment, delivered

    def flush_batches(self, edge: object = None) -> list[RowBatch]:
        """Deliver any batches still held back on ``edge`` (stream
        end: the late messages do eventually arrive)."""
        with self._lock:
            held = self._held.pop(edge, [])
        return held


class ReliableBatchLink:
    """Reliable in-order delivery of one cross-edge batch stream.

    The sender side re-sends on failure (per :class:`RetryPolicy`);
    the receiver side de-duplicates by batch ``seq`` and buffers
    out-of-order arrivals until the gap fills, emitting batches in
    exactly the order a fault-free channel would have.  Deliveries are
    absorbed *before* the timeout verdict, so a late-but-delivered
    message is never lost — its re-send is simply discarded as a
    duplicate.  The single ``seq``-less batch of an unbatched stream
    counts as batch 0.
    """

    def __init__(self, channel: object, policy: RetryPolicy,
                 stats: RobustnessStats, edge: object,
                 start_seq: int = 0,
                 tracer: Tracer | None = None) -> None:
        self.channel = channel
        self.policy = policy
        self.stats = stats.scoped(edge)
        self.edge = edge
        self.tracer = tracer or NULL_TRACER
        self._transmit = getattr(channel, "transmit_batch", None)
        self._flush = getattr(channel, "flush_batches", None)
        self._expected = start_seq
        self._seen: set[int] = set()
        self._buffer: dict[int, RowBatch] = {}

    def _absorb(self, delivered: Iterable[RowBatch]) -> list[RowBatch]:
        ready: list[RowBatch] = []
        for batch in delivered:
            seq = batch.seq or 0
            if seq in self._seen or seq < self._expected:
                self.stats.count_redelivered()
                continue
            self._seen.add(seq)
            self._buffer[seq] = batch
        while self._expected in self._buffer:
            ready.append(self._buffer.pop(self._expected))
            self._seen.discard(self._expected)
            self._expected += 1
        return ready

    def send(self, batch: RowBatch
             ) -> tuple[Shipment, list[RowBatch]]:
        """Transmit one batch; return the charge receipt and every
        batch that became deliverable in order."""
        ready: list[RowBatch] = []

        def attempt() -> Shipment:
            if self._transmit is not None:
                shipment, delivered = self._transmit(batch, self.edge)
            else:
                shipment = self.channel.ship_batch(batch)
                delivered = [batch]
            ready.extend(self._absorb(delivered))
            return self.policy.check_timeout(shipment)

        shipment = self.policy.run(
            attempt,
            f"batch {batch.seq} of fragment {batch.fragment.name!r}",
            self.stats, self.tracer,
        )
        return shipment, ready

    def finish(self) -> list[RowBatch]:
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
