"""Delegating proxies: how the traced run sees the layers from outside.

The same seam ``DeltaSourceView`` and ``FaultyChannel`` use: an object
that presents the endpoint / transport interface, records a span
around each data-interface call, and passes everything else through.
Only the traced run wraps anything; untraced runs hand the program its
own objects.

Streams are lazy, so time is recorded where it is spent: inside each
``next()`` of a scanned stream, and — for a written stream — split into
the endpoint's own storing time and the ``core.program`` pull that
produced the batch (which in turn contains the upstream ship and scan
spans).
"""

from __future__ import annotations

from typing import Iterator

from bench.adapter import new_stream
from bench.trace import Tracer

SCAN = "relational.scan"
WRITE = "relational.write"
INDEX = "relational.index"
MERGE = "relational.merge"
DELETE = "relational.delete"
SHIP = "net.transport.ship"
PULL = "core.program.pull"


class _Proxy:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self._inner!r}>"


class EndpointProxy(_Proxy):
    """A ``SystemEndpoint`` with a span around every data call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner, tracer)
        self.scan_rows = 0
        self.write_rows = 0

    # -- scan side -----------------------------------------------------------------

    def scan(self, fragment):
        with self._tracer.span(SCAN):
            instance = self._inner.scan(fragment)
        self.scan_rows += instance.row_count()
        return instance

    def _scanned(self, fragment, open_stream):
        with self._tracer.span(SCAN):
            batches = iter(open_stream())
        return new_stream(fragment, self._each(batches, SCAN, True))

    def scan_stream(self, fragment, *args, **kwargs):
        return self._scanned(
            fragment,
            lambda: self._inner.scan_stream(fragment, *args, **kwargs),
        )

    def scan_stream_columnar(self, fragment, *args, **kwargs):
        return self._scanned(
            fragment,
            lambda: self._inner.scan_stream_columnar(
                fragment, *args, **kwargs
            ),
        )

    def _each(self, batches: Iterator, name: str,
              scanning: bool) -> Iterator:
        """Yield from ``batches`` with a span around each ``next()``."""
        while True:
            with self._tracer.span(name):
                batch = next(batches, None)
            if batch is None:
                return
            if scanning:
                self.scan_rows += batch.row_count()
            else:
                self.write_rows += batch.row_count()
            yield batch

    # -- write side ----------------------------------------------------------------

    def write(self, fragment, instance):
        self.write_rows += instance.row_count()
        with self._tracer.span(WRITE):
            return self._inner.write(fragment, instance)

    def write_stream(self, fragment, stream):
        pulled = new_stream(
            fragment, self._each(iter(stream), PULL, False)
        )
        with self._tracer.span(WRITE):
            return self._inner.write_stream(fragment, pulled)

    def build_indexes(self):
        with self._tracer.span(INDEX):
            return self._inner.build_indexes()

    def merge_rows(self, fragment, rows):
        self.write_rows += len(rows)
        with self._tracer.span(MERGE):
            return self._inner.merge_rows(fragment, rows)

    def delete_rows(self, fragment, eids):
        with self._tracer.span(DELETE):
            return self._inner.delete_rows(fragment, eids)


class TransportProxy(_Proxy):
    """A ``Transport`` with a span around every shipment.

    It also keeps what each fragment message carried over a
    wire-format transport, so the SOAP layer can be replayed on exactly
    the shipped batches once the exchange is over (a replay inside the
    exchange would be charged to it).
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner, tracer)
        self.shipped: list[tuple] = []
        self.messages = 0
        self.bytes = 0

    def _ship(self, send, payload):
        with self._tracer.span(SHIP):
            shipment = send(payload)
        self.messages += 1
        self.bytes += shipment.bytes_sent
        return shipment

    def _keep(self, carrier, seq) -> None:
        # Only a wire-format transport encodes anything worth
        # replaying (and only there are a columnar batch's rows
        # already materialized).
        if self._inner.wire_format:
            self.shipped.append(
                (carrier.fragment, list(carrier.rows), seq)
            )

    def ship_fragment(self, instance):
        shipment = self._ship(self._inner.ship_fragment, instance)
        self._keep(instance, None)
        return shipment

    def ship_batch(self, batch):
        shipment = self._ship(self._inner.ship_batch, batch)
        self._keep(batch, batch.seq)
        return shipment

    def ship_document(self, text):
        return self._ship(self._inner.ship_document, text)
