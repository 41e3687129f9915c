"""Fragment streams: what flows along every edge of a running program.

The execution core (:mod:`repro.core.program.run`) moves batches, never
whole instances.  Every batch is a
:class:`~repro.core.columnar.ColumnBatch` — an ordered slice of a flat
fragment's feed — and a :class:`FragmentStream` is a single-use
iterator of them, with bridges to and from the materialized
:class:`~repro.core.instance.FragmentInstance`.  A fragment that does
not flatten travels as one stream per flat part
(:meth:`~repro.core.fragment.Fragment.flat_parts`), and
:func:`combine_parts` is how a store that holds trees takes it back.
With ``batch_rows=N`` a stream is cut into numbered slices of ``N``
rows, so operations hold only a bounded frontier of rows; with
``batch_rows=None`` a stream is exactly one unbounded batch with no
``seq`` — the whole feed, shipped as the single message the paper's
setup sends per fragment.  :class:`ResidencyMeter` counts the rows of
the resident frontier (``peak_resident_rows`` in the execution report)
so the bound is checkable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch
from repro.core.fragment import Fragment
from repro.core.instance import FragmentInstance, FragmentRow

#: Batch size used when a stream is requested without an explicit one.
DEFAULT_BATCH_ROWS = 256


class FragmentStream:
    """A single-use, ordered stream of column batches of a fragment.

    Every batch is a :class:`~repro.core.columnar.ColumnBatch`.
    Concatenating the batches of a stream in ``seq`` order yields
    exactly the rows of the materialized instance — that equivalence
    (checked by the determinism tests for every batch size) is what
    keeps the written output byte-identical whatever ``batch_rows``.
    """

    __slots__ = ("fragment", "_batches", "_consumed")

    def __init__(self, fragment: Fragment,
                 batches: Iterable[ColumnBatch]) -> None:
        self.fragment = fragment
        self._batches = iter(batches)
        self._consumed = False

    def __iter__(self) -> Iterator[ColumnBatch]:
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
                      batch_rows: int = DEFAULT_BATCH_ROWS
                      ) -> "FragmentStream":
        """Re-batch a materialized instance of a flat fragment.  The
        batches hold cells, never the instance's trees."""
        return cls.from_rows(instance.fragment, instance.rows, batch_rows)

    @classmethod
    def from_rows(cls, fragment: Fragment,
                  rows: Iterable[FragmentRow],
                  batch_rows: int = DEFAULT_BATCH_ROWS
                  ) -> "FragmentStream":
        """Slice an iterable of rows of a flat fragment into column
        batches of ``batch_rows``."""
        if batch_rows < 1:
            raise OperationError(
                f"batch_rows must be >= 1, got {batch_rows}"
            )

        def generate() -> Iterator[ColumnBatch]:
            buffer: list[FragmentRow] = []
            seq = 0
            for row in rows:
                buffer.append(row)
                if len(buffer) >= batch_rows:
                    yield ColumnBatch.from_rows(fragment, buffer, seq)
                    seq += 1
                    buffer = []
            if buffer:
                yield ColumnBatch.from_rows(fragment, buffer, seq)

        return cls(fragment, generate())

    def materialize(self) -> FragmentInstance:
        """Drain the stream into a materialized instance."""
        instance = FragmentInstance(self.fragment)
        for batch in self:
            instance.rows.extend(batch.rows)
        return instance


def combine_parts(fragment: Fragment,
                  parts: Mapping[Fragment, FragmentStream]
                  ) -> FragmentInstance:
    """Rebuild an instance of ``fragment`` from its part streams.

    The streams of its flat parts come in
    :meth:`~repro.core.fragment.Fragment.flat_parts` order; each part
    is drained in turn and inlined with
    :meth:`~repro.core.instance.FragmentInstance.combine`.

    Raises:
        OperationError: if part rows reference occurrences that no
            earlier part holds.
    """
    whole: FragmentInstance | None = None
    for stream in parts.values():
        part = stream.materialize()
        whole = part if whole is None else whole.combine(part)
    assert whole is not None and whole.fragment.elements == fragment.elements
    return FragmentInstance(fragment, whole.rows)


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
