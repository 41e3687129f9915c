"""``Split`` (Definition 3.8): project a fragment into disjoint pieces.

``Split(f, f1, ..., fn)`` partitions ``f``'s elements into fragments
``f1 ... fn``, introducing fresh ``ID``/``PARENT`` exposure on each piece
to preserve the parent/child relationships the schema dictates.

Splitting is row-local, so the operation runs batch by batch, and
:meth:`Split.apply_column_batches`, a column projection, is its one
kernel: concatenating the per-batch piece rows reproduces the
instance-level split of the whole feed
(:meth:`~repro.core.instance.FragmentInstance.split`) exactly.  The n
piece streams are drained by different consumers, so undrained piece
batches queue inside one shared :class:`_SplitState` — an input batch
is split only when some consumer finds its own queue empty.  An unbatched input (one
``seq``-less batch) yields exactly one ``seq``-less batch per piece,
empty pieces included; a batched input drops empty piece batches and
numbers the rest.

An input that does not flatten arrives as its flat parts
(:meth:`~repro.core.fragment.Fragment.flat_parts`); the execution core
projects each part, with this same kernel, onto the parts of the
pieces it holds (:mod:`repro.core.program.run`).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation
from repro.core.stream import ResidencyMeter


class Split(Operation):
    """Split ``fragment`` into the given disjoint pieces."""

    kind = "split"

    def __init__(self, fragment: Fragment, pieces: Sequence[Fragment],
                 location: Location | None = None) -> None:
        # Validates that `pieces` partitions `fragment`.
        fragment.split_into(
            [piece.elements for piece in pieces],
            [piece.name for piece in pieces],
        )
        super().__init__((fragment,), tuple(pieces), location)

    @property
    def fragment(self) -> Fragment:
        """The fragment being split."""
        return self.inputs[0]

    @property
    def pieces(self) -> tuple[Fragment, ...]:
        """The output fragments, in positional order."""
        return self.outputs

    def apply_column_batches(
        self, batches: Iterable[ColumnBatch], *,
        tick: Callable[[float, int], None] | None = None,
        meter: ResidencyMeter | None = None,
    ) -> list[Iterator[ColumnBatch]]:
        """Columnar split: pure projection/partition, no tree work.

        Each piece selects the input rows where its root's key column
        is non-null and projects the piece's columns by name — the
        piece root's key becomes its ``id``, the key of its schema
        parent becomes its ``parent`` (fresh ID/PARENT exposure straight
        from existing key columns).  The root piece keeps every row and
        reuses the input's column arrays zero-copy.  Each pulled
        input batch is projected onto every piece and queued on its
        output; pulling any piece refills from the input as needed.
        """
        pieces = len(self.pieces)
        state = _SplitState(
            pieces, self._column_partition(), iter(batches), tick, meter
        )
        return [state.stream(index) for index in range(pieces)]

    def _column_partition(
        self,
    ) -> Callable[[ColumnBatch], list[ColumnBatch]]:
        """The per-batch projection of :meth:`apply_column_batches`."""
        input_layout = layout_of(self.fragment)
        schema = self.fragment.schema
        # Per piece: (layout, key column in the input, input column
        # name per piece spec).
        plans = []
        for piece in self.pieces:
            layout = layout_of(piece)
            key_column = input_layout.eid_column(piece.root_name)
            sources: list[str] = []
            for spec in layout.specs:
                if spec.role == "id":
                    sources.append(key_column)
                elif spec.role == "parent":
                    if piece.root_name == self.fragment.root_name:
                        sources.append("parent")
                    else:
                        anchor = schema.parent_name(piece.root_name)
                        sources.append(
                            input_layout.eid_column(anchor)
                        )
                else:
                    sources.append(spec.name)
            plans.append((piece, layout, key_column, sources))

        def partition(batch: ColumnBatch) -> list[ColumnBatch]:
            in_rows = batch.row_count()
            out: list[ColumnBatch] = []
            for piece, layout, key_column, sources in plans:
                if key_column == "id":
                    kept = None  # the root piece keeps every row
                else:
                    kept = [
                        position for position, key
                        in enumerate(batch.column(key_column))
                        if key is not None
                    ]
                if kept is None or len(kept) == in_rows:
                    columns = [batch.column(name) for name in sources]
                elif not kept:
                    columns = [[] for _ in sources]
                else:
                    columns = [
                        [cells[position] for position in kept]
                        for cells in (batch.column(name)
                                      for name in sources)
                    ]
                out.append(ColumnBatch(piece, columns, None, layout))
            return out

        return partition


class _SplitState:
    """Shared refill state behind the piece streams of one Split.

    ``partition`` turns one input batch into one batch per piece.
    """

    def __init__(self, pieces: int,
                 partition: Callable[[ColumnBatch], list[ColumnBatch]],
                 batches: Iterator[ColumnBatch],
                 tick: Callable[[float, int], None] | None,
                 meter: ResidencyMeter | None) -> None:
        self._partition = partition
        self._batches = batches
        self._tick = tick
        self._meter = meter
        self._queues: list[deque[ColumnBatch]] = [
            deque() for _ in range(pieces)
        ]
        self._seqs = [0] * pieces
        self._exhausted = False
        self._failure: BaseException | None = None

    def _refill(self) -> None:
        """Split one more input batch into the queues.

        Raises:
            StopIteration: when the input stream is exhausted.
        """
        batch = next(self._batches)
        started = time.perf_counter()
        pieces = self._partition(batch)
        if self._tick is not None:
            self._tick(
                time.perf_counter() - started,
                sum(piece.row_count() for piece in pieces),
            )
        # An unbatched stream is exactly one seq-less batch per piece,
        # empty or not; a batched one skips empty slices and numbers
        # the rest.
        for index, piece in enumerate(pieces):
            if batch.seq is not None:
                if not piece.row_count():
                    continue
                piece.seq = self._seqs[index]
                self._seqs[index] += 1
            if self._meter is not None:
                self._meter.acquire(piece.row_count())
            self._queues[index].append(piece)
        if self._meter is not None:
            self._meter.release(batch.row_count())

    def _pull(self, index: int) -> ColumnBatch | None:
        while not self._queues[index]:
            if self._failure is not None:
                raise self._failure
            if self._exhausted:
                return None
            try:
                self._refill()
            except StopIteration:
                self._exhausted = True
            except BaseException as exc:
                self._failure = exc
                raise
        return self._queues[index].popleft()

    def stream(self, index: int) -> Iterator[ColumnBatch]:
        while True:
            batch = self._pull(index)
            if batch is None:
                return
            yield batch
