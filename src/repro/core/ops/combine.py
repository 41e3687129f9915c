"""``Combine`` (Definition 3.7): inline a child fragment into its parent.

``Combine(f1, f2)`` modifies ``f1`` by attaching each ``f2`` row under
the occurrence of ``f2``'s schema parent whose id matches the row's
``PARENT``; the child's ID/PARENT exposure is removed.  Order and
repetition of the inlined element are recovered from the schema
(:meth:`repro.core.instance.ElementData.to_xml` serializes children in
schema order).

The operation runs over column batch streams, and
:meth:`Combine.apply_column_batches` — a join over column arrays — is
its one kernel: child rows are buffered first (keyed by PARENT, the
frontier of rows still awaiting their parents) while the parent side,
which accumulates the combined result and is the large side in a
combine chain, streams through batch by batch.  The sorted feeds
arrive ordered by PARENT, so a parent batch's anchor keys are usually
the next run of the child's PARENT keys: the batch is *aligned* and
its child columns are a slice of the buffered ones.  Any other batch
is probed through a dict.  An unbatched run is the same kernel fed one
unbounded batch per side.  Each output batch keeps its parent batch's
``seq``.

A result that inlines a repeated child does not flatten and travels as
its flat parts (:meth:`~repro.core.fragment.Fragment.flat_parts`);
the execution core then joins, with this same kernel, only the part
the child's root joins (when that root is not repeated) and passes
every other part through (:mod:`repro.core.program.run`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.instance import combine_orphan_message
from repro.core.ops.base import Location, Operation
from repro.core.stream import ResidencyMeter


@dataclass(frozen=True, slots=True)
class JoinStatistics:
    """What one join did (after SNIPPETS.md Snippet 1).

    ``strategy`` is ``"aligned"`` when every parent batch lined up
    with the child's PARENT keys, ``"hash"`` when some batch was
    probed through the dict.  Seconds are the join's own work —
    upstream production pulled from inside it is not included;
    ``hash_table_rows`` is the size of that dict (0 when none was
    built).
    """

    strategy: str
    build_rows: int
    probe_rows: int
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    hash_table_rows: int = 0


#: Columnar build-side stand-in for a NULL PARENT key.  It can never
#: equal an anchor key — neither a real eid (a genuine negative eid
#: included) nor an absent anchor's ``None``.  Orphan reports
#: translate it back to ``None``.
_NO_PARENT = float("-inf")


def _repeated_key(keys: list) -> int | None:
    """The real PARENT key that occurs twice in ``keys`` and is named
    in the error: the last one seen next to itself, else the first
    seen a second time."""
    for later, earlier in zip(reversed(keys), islice(reversed(keys), 1,
                                                      None)):
        if later == earlier and later != _NO_PARENT:
            return later
    seen: set = set()
    for key in keys:
        if key in seen and key != _NO_PARENT:
            return key
        seen.add(key)
    return None


class Combine(Operation):
    """Combine ``child`` into ``parent`` (both fragments of one schema)."""

    kind = "combine"

    def __init__(self, parent: Fragment, child: Fragment,
                 location: Location | None = None, *,
                 result: Fragment | None = None) -> None:
        # ``result`` spares rebuilding (and re-validating) a combined
        # fragment the caller already holds — the plan search prices
        # many Combines that produce the same one.
        if (result is None or not parent.can_combine(child)
                or result.elements != parent.elements | child.elements):
            result = parent.combined_with(child)
        super().__init__((parent, child), (result,), location)

    @property
    def parent_fragment(self) -> Fragment:
        """The fragment being extended."""
        return self.inputs[0]

    @property
    def child_fragment(self) -> Fragment:
        """The fragment being inlined."""
        return self.inputs[1]

    @property
    def result(self) -> Fragment:
        """The combined fragment."""
        return self.outputs[0]

    def apply_column_batches(
        self, parent: Iterable[ColumnBatch],
        child: Iterable[ColumnBatch], *,
        tick: Callable[[float, int], None] | None = None,
        meter: ResidencyMeter | None = None,
        observe: Callable[[JoinStatistics], None] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Columnar join with the semantics of
        :meth:`~repro.core.instance.FragmentInstance.combine`: the
        parent's rows in their order, each anchor adopting its child
        row.

        **Build**: the child stream — the small side, since a combine
        chain accumulates everything into the parent — is drained into
        column arrays (a one-batch stream's own lists, uncopied).
        **Probe**: parent batches stream through; each parent row's
        anchor key is its own ``id`` when the anchor is the parent
        root, the anchor's ``eid`` column otherwise.  Parent-derived
        result columns are reused zero-copy.  When a batch's anchor
        keys equal the next run of the child's PARENT keys — the
        sorted feeds arrive ordered by ``parent, id``, so they usually
        do — the batch is **aligned** and its child-derived columns
        are that run's slice of the child columns (the lists
        themselves when the batch covers them all).  Any other batch
        probes a dict index, built on the first such batch, and
        gathers its child cells by match position.

        ``observe(statistics)`` fires once after probing with the
        join's :class:`JoinStatistics`, feeding the ``join.*`` metrics;
        its strategy is ``"aligned"`` when no batch needed the dict,
        ``"hash"`` otherwise.

        Raises:
            OperationError: after the build, if two child rows carry
                the same PARENT key — a flat result means the child is
                not repeated under its anchor, so the data is wrong
                and nothing has been emitted yet; at end of stream,
                listing orphaned PARENT keys exactly as the instance
                combine does.
        """
        result_fragment = self.result
        result_layout = layout_of(result_fragment)
        parent_fragment = self.parent_fragment
        child_fragment = self.child_fragment
        anchor = child_fragment.parent_element()
        anchor_column = layout_of(parent_fragment).eid_column(anchor)
        child_elements = child_fragment.elements
        child_root = child_fragment.root_name

        # Result columns come from one side each: ``(gathered, name)``
        # — a child column gathered by match, or a parent column
        # reused.
        column_plan: list[tuple[bool, str]] = []
        for spec in result_layout.specs:
            if spec.role not in ("id", "parent") \
                    and spec.element in child_elements:
                source = ("id" if spec.role == "eid"
                          and spec.element == child_root else spec.name)
                column_plan.append((True, source))
            else:
                column_plan.append((False, spec.name))
        child_names = ["parent"] + [name for gathered, name
                                    in column_plan if gathered]

        def generate() -> Iterator[ColumnBatch]:
            # ---- build: drain the child side into column arrays ----
            build_seconds = 0.0
            drained: list[list] = []
            owned = False  # whether ``drained`` are lists of our own
            for batch in child:
                started = time.perf_counter()
                cells = list(map(batch.column, child_names))
                if not drained:
                    drained = cells  # read, never written
                else:
                    if not owned:
                        drained, owned = list(map(list, drained)), True
                    for stored, more in zip(drained, cells):
                        stored += more
                elapsed = time.perf_counter() - started
                build_seconds += elapsed
                if tick is not None:
                    tick(elapsed, 0)

            started = time.perf_counter()
            keys, *columns = drained or [[] for _ in child_names]
            child_columns = dict(zip(child_names[1:], columns))
            nulls = keys.count(None)
            if nulls:
                keys = [_NO_PARENT if key is None else key
                        for key in keys]
            build_rows = len(keys)
            repeated = None  # a real PARENT key on two child rows
            if len(set(keys)) - bool(nulls) < build_rows - nulls:
                repeated = _repeated_key(keys)
            elapsed = time.perf_counter() - started
            build_seconds += elapsed
            if tick is not None:
                tick(elapsed, 0)
            if repeated is not None:
                raise OperationError(
                    f"combine({parent_fragment.name!r}, "
                    f"{child_fragment.name!r}): PARENT key {repeated} "
                    f"appears on {keys.count(repeated)} child rows, "
                    f"but {child_root!r} is not repeated under "
                    f"{anchor!r}"
                )

            # ---- probe: stream parent batches past the child keys ----
            probe_rows = 0
            probe_seconds = 0.0
            by_key: dict | None = None  # built for the first unaligned batch
            cursor = 0  # where the next aligned run starts
            adopted = bytearray(build_rows)  # 1 per child row inlined
            for batch in parent:
                started = time.perf_counter()
                in_rows = batch.row_count()
                probe_rows += in_rows
                anchors = batch.column(anchor_column)
                stop = cursor + in_rows
                if anchors == keys[cursor:stop]:
                    misses = 0
                    adopted[cursor:stop] = b"\1" * in_rows
                    inlined = child_columns if cursor == 0 \
                        and stop == build_rows else {
                            name: cells[cursor:stop]
                            for name, cells in child_columns.items()
                        }
                    cursor = stop
                else:
                    if by_key is None:
                        by_key = dict(zip(keys, range(build_rows)))
                    matches = list(map(by_key.get, anchors))
                    misses = matches.count(None)
                    for hit in matches:
                        if hit is not None:
                            adopted[hit] = 1
                    inlined = {
                        name: [None if hit is None else cells[hit]
                               for hit in matches] if misses
                        else list(map(cells.__getitem__, matches))
                        for name, cells in child_columns.items()
                    }
                    cursor += in_rows - misses
                out = ColumnBatch(
                    result_fragment,
                    [inlined[name] if gathered else batch.column(name)
                     for gathered, name in column_plan],
                    batch.seq, result_layout,
                )
                elapsed = time.perf_counter() - started
                probe_seconds += elapsed
                if tick is not None:
                    tick(elapsed, out.row_count())
                if meter is not None:
                    # The output replaces the parent batch, and every
                    # matched child row is inlined into it.
                    meter.acquire(in_rows)
                    meter.release(in_rows + in_rows - misses)
                yield out
            if observe is not None:
                observe(JoinStatistics(
                    "aligned" if by_key is None else "hash",
                    build_rows, probe_rows, build_seconds,
                    probe_seconds, 0 if by_key is None else len(by_key),
                ))
            if 0 in adopted:
                raise OperationError(combine_orphan_message(
                    parent_fragment.name, child_fragment.name,
                    [None if key == _NO_PARENT else key
                     for key, hit in zip(keys, adopted) if not hit],
                ))

        return generate()
