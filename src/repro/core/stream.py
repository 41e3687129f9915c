"""Fragment streams: what flows along every edge of a running program.

The execution core (:mod:`repro.core.program.run`) moves batches, never
whole instances.  A :class:`RowBatch` is an ordered slice of a
fragment's feed and a :class:`FragmentStream` is a single-use iterator
of batches, with bridges to and from the materialized
:class:`~repro.core.instance.FragmentInstance`.  With ``batch_rows=N``
a stream is cut into numbered slices of ``N`` rows, so operations hold
only a bounded frontier of rows; with ``batch_rows=None`` a stream is
exactly one unbounded batch with no ``seq`` — the whole feed, shipped
as the single message the paper's setup sends per fragment.
:class:`ResidencyMeter` counts the rows of the resident frontier
(``peak_resident_rows`` in the execution report) so the bound is
checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import OperationError
from repro.core.fragment import Fragment
from repro.core.instance import (
    FragmentInstance,
    FragmentRow,
    row_feed_size,
)

#: Batch size used when a stream is requested without an explicit one.
DEFAULT_BATCH_ROWS = 256


@dataclass(slots=True)
class RowBatch:
    """An ordered slice of a fragment's feed.

    Attributes:
        fragment: the fragment every row conforms to.
        rows: the slice, in feed order.
        seq: 0-based position of this batch within its stream;
            ``None`` on the single batch of an unbatched stream.
    """

    fragment: Fragment
    rows: list[FragmentRow]
    seq: int | None
    #: Memoized wire size.  Transport charging and the fault layer
    #: may each ask for the size of the same immutable slice; walking
    #: every row's tree per ask is pure waste.  Operations that mutate
    #: rows (Combine) emit a *new* RowBatch for the result, so a
    #: cached value never goes stale.
    _feed: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def row_count(self) -> int:
        """Number of fragment-root occurrences in the slice."""
        return len(self.rows)

    def feed_size(self) -> int:
        """Approximate tabular sorted-feed (wire) size in bytes
        (computed once per batch, then memoized)."""
        if self._feed is None:
            self._feed = sum(row_feed_size(row) for row in self.rows)
        return self._feed


class FragmentStream:
    """A single-use, ordered stream of :class:`RowBatch` for one
    fragment.

    Concatenating the batches of a stream in ``seq`` order yields
    exactly the rows of the materialized instance — that equivalence
    (checked by the determinism tests for every batch size) is what
    keeps the written output byte-identical whatever ``batch_rows``.
    """

    __slots__ = ("fragment", "_batches", "_consumed")

    def __init__(self, fragment: Fragment,
                 batches: Iterable[RowBatch]) -> None:
        self.fragment = fragment
        self._batches = iter(batches)
        self._consumed = False

    def __iter__(self) -> Iterator[RowBatch]:
        """Iterate the batches (once).

        Raises:
            OperationError: if the stream was already consumed.
        """
        if self._consumed:
            raise OperationError(
                f"stream of fragment {self.fragment.name!r} was "
                "already consumed"
            )
        self._consumed = True
        return self._batches

    # -- bridges ---------------------------------------------------------------

    @classmethod
    def from_instance(cls, instance: FragmentInstance,
                      batch_rows: int = DEFAULT_BATCH_ROWS,
                      copy_rows: bool = False) -> "FragmentStream":
        """Re-batch a materialized instance.

        With ``copy_rows`` each row is deep-copied lazily as its batch
        is produced, so consumers that mutate rows (Combine does) never
        touch the stored original — and only one batch of copies is
        resident at a time.
        """
        if copy_rows:
            rows: Iterable[FragmentRow] = (
                FragmentRow(row.data.copy(), row.parent)
                for row in instance.rows
            )
        else:
            rows = instance.rows
        return cls.from_rows(instance.fragment, rows, batch_rows)

    @classmethod
    def from_rows(cls, fragment: Fragment,
                  rows: Iterable[FragmentRow],
                  batch_rows: int = DEFAULT_BATCH_ROWS
                  ) -> "FragmentStream":
        """Slice an iterable of rows into batches of ``batch_rows``."""
        if batch_rows < 1:
            raise OperationError(
                f"batch_rows must be >= 1, got {batch_rows}"
            )

        def generate() -> Iterator[RowBatch]:
            buffer: list[FragmentRow] = []
            seq = 0
            for row in rows:
                buffer.append(row)
                if len(buffer) >= batch_rows:
                    yield RowBatch(fragment, buffer, seq)
                    seq += 1
                    buffer = []
            if buffer:
                yield RowBatch(fragment, buffer, seq)

        return cls(fragment, generate())

    def materialize(self) -> FragmentInstance:
        """Drain the stream into a materialized instance."""
        instance = FragmentInstance(self.fragment)
        for batch in self:
            instance.rows.extend(batch.rows)
        return instance


class ResidencyMeter:
    """Counts the rows resident in the dataplane and their peak.

    Producers :meth:`acquire` rows when they enter the dataplane (a
    Scan yields a batch, a Split queues a piece) and consumers
    :meth:`release` them when absorbed (a Write loaded the batch, a
    Combine inlined a buffered child row).  Rows, not bytes: the one
    size a batch is measured by is the wire size of a shipment.  One
    meter per run, touched by the run's one thread.  ``rows`` is the
    count resident now and ``peak_rows`` its high-water mark.
    """

    __slots__ = ("rows", "peak_rows")

    def __init__(self) -> None:
        self.rows = 0
        self.peak_rows = 0

    def acquire(self, rows: int) -> None:
        """Mark ``rows`` as resident."""
        self.rows += rows
        if self.rows > self.peak_rows:
            self.peak_rows = self.rows

    def release(self, rows: int) -> None:
        """Mark ``rows`` as absorbed."""
        self.rows -= rows
