"""``Combine`` (Definition 3.7): inline a child fragment into its parent.

``Combine(f1, f2)`` modifies ``f1`` by attaching each ``f2`` row under
the occurrence of ``f2``'s schema parent whose id matches the row's
``PARENT``; the child's ID/PARENT exposure is removed.  Order and
repetition of the inlined element are recovered from the schema
(:meth:`repro.core.instance.ElementData.to_xml` serializes children in
schema order).

The operation runs over batch streams: child rows are buffered first
(keyed by PARENT, the frontier of rows still awaiting their parents)
while the parent side, which accumulates the combined result and is
the large side in a combine chain, streams through batch by batch.
:meth:`Combine.apply_column_batches` — a build/probe join over column
arrays — is the kernel whenever the result is flat-storable;
:meth:`Combine.apply_batches` does the same over row trees (a grouped
merge) for results that inline a repeated child and therefore do not
flatten.  An unbatched run is the same kernels fed one unbounded batch
per side.  Each output batch keeps its parent batch's ``seq``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Callable, Iterable, Iterator

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.instance import FragmentRow, combine_orphan_message
from repro.core.ops.base import Location, Operation
from repro.core.stream import ResidencyMeter, RowBatch

#: Join strategies of the columnar combine.
JOIN_STRATEGIES = ("hash", "merge")

@dataclass(frozen=True, slots=True)
class JoinStatistics:
    """What one build/probe join did (after SNIPPETS.md Snippet 1).

    Seconds are the join's own work — upstream production pulled from
    inside it is not included; ``hash_table_rows`` is the size of the
    hash join's dict index (0 for a merge join, which probes the
    sorted key array itself).
    """

    strategy: str
    build_rows: int
    probe_rows: int
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    hash_table_rows: int = 0


#: Columnar build-side stand-in for a NULL PARENT key.  It orders
#: strictly before every real eid (so the merge join's sortedness check
#: and binary search stay valid) and can never equal one — unlike the
#: old sentinel ``-1``, which a genuine negative eid would collide
#: with.  Orphan reports translate it back to ``None``.
_NO_PARENT = float("-inf")


def _repeated_key(keys: list, sorted_keys: bool) -> int | None:
    """The real PARENT key that occurs twice in ``keys`` and is named
    in the error: the last one seen next to itself, else (unsorted
    keys only) the first seen a second time."""
    for later, earlier in zip(reversed(keys), islice(reversed(keys), 1,
                                                      None)):
        if later == earlier and later != _NO_PARENT:
            return later
    if sorted_keys:
        return None
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

    def apply_batches(self, parent: Iterable[RowBatch],
                      child: Iterable[RowBatch], *,
                      tick: Callable[[float, int], None] | None = None,
                      meter: ResidencyMeter | None = None
                      ) -> Iterator[RowBatch]:
        """Grouped merge over row batches (Definition 3.7's semantics,
        :meth:`~repro.core.instance.FragmentInstance.combine`).

        The child stream is drained first into a PARENT-keyed frontier
        of pending rows; parent batches then stream through, each row
        adopting its pending children, and are re-emitted under the
        result fragment — so only the child frontier plus one parent
        batch is resident here at any time.  Emitted rows are the
        parent's own row objects in their original order, and children
        attach per anchor in child-feed order: byte-identical whatever
        the batch size.

        ``tick(seconds, rows)`` reports local work (excluding upstream
        production time) to the executor's per-operation accounting;
        ``meter`` tracks row residency.

        Raises:
            OperationError: if child rows reference parent occurrences
                that never arrive.  Detection happens at end-of-stream,
                after earlier parent batches were already forwarded
                downstream — a failed run may leave partial output
                behind.
        """
        result_fragment = self.result
        anchor = self.child_fragment.parent_element()
        parent_name = self.parent_fragment.name
        child_name = self.child_fragment.name

        def generate() -> Iterator[RowBatch]:
            pending: dict[int | None, list[FragmentRow]] = {}
            for batch in child:
                started = time.perf_counter()
                for row in batch.rows:
                    # None keys can never match an anchor eid, so such
                    # rows simply stay pending and surface as orphans;
                    # folding them onto -1 (the old sentinel) would
                    # collide with a genuine negative eid.
                    pending.setdefault(row.parent, []).append(row)
                if tick is not None:
                    tick(time.perf_counter() - started, 0)
            for batch in parent:
                started = time.perf_counter()
                in_rows = len(batch.rows)
                attached_rows = 0
                for row in batch.rows:
                    for occurrence in row.data.occurrences_of(anchor):
                        group = pending.pop(occurrence.eid, None)
                        if group is None:
                            continue
                        attached_rows += len(group)
                        for child_row in group:
                            occurrence.add_child(child_row.data)
                out = RowBatch(result_fragment, batch.rows, batch.seq)
                if tick is not None:
                    tick(time.perf_counter() - started, len(out.rows))
                if meter is not None:
                    meter.acquire(in_rows)
                    meter.release(in_rows + attached_rows)
                yield out
            if pending:
                orphan_keys = [
                    key for key, group in pending.items()
                    for _ in group
                ]
                raise OperationError(combine_orphan_message(
                    parent_name, child_name, orphan_keys
                ))

        return generate()

    def apply_column_batches(
        self, parent: Iterable[ColumnBatch],
        child: Iterable[ColumnBatch], *,
        tick: Callable[[float, int], None] | None = None,
        meter: ResidencyMeter | None = None,
        observe: Callable[[JoinStatistics], None] | None = None,
        force: str | None = None,
    ) -> Iterator[ColumnBatch]:
        """Columnar build/probe join (same semantics as
        :meth:`apply_batches`) — what runs whenever the result is
        flat-storable.

        **Build**: the child stream — the small side, since a combine
        chain accumulates everything into the parent — is drained into
        consolidated column arrays plus a join index on its PARENT key.
        **Probe**: parent batches stream through; each parent row's
        anchor key (its own ``id`` when the anchor is the parent root,
        the anchor's ``eid`` column otherwise) probes the index, and
        result columns are assembled without building a single tree:
        parent-derived columns are reused zero-copy and child-derived
        columns are gathered by match position.

        Strategy selection: the sorted-outer-union feeds arrive
        ordered by ``parent, id``, so when the child's PARENT keys are
        non-decreasing after the build the probe runs a **merge** join:
        one cursor walks the sorted key array while a batch's anchor
        keys ascend, and a key that goes backwards bisects; shuffled
        feeds fall back to a **hash** join (dict index).  ``force``
        pins ``"hash"`` or ``"merge"`` regardless (a forced merge over
        unsorted keys sorts a permutation first); it exists for the
        unit tests of the two strategies.

        ``observe(statistics)`` fires once after probing with the
        join's :class:`JoinStatistics`, feeding the ``join.*`` metrics.

        Raises:
            OperationError: after the build, if two child rows carry
                the same PARENT key — a flat result means the child is
                not repeated under its anchor, so the data is wrong
                and nothing has been emitted yet; at end of stream,
                listing orphaned PARENT keys exactly as the row kernel
                does.
        """
        if force is not None and force not in JOIN_STRATEGIES:
            raise OperationError(
                f"unknown join strategy {force!r} "
                f"(expected one of {JOIN_STRATEGIES})"
            )
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

        def generate() -> Iterator[ColumnBatch]:
            # ---- build: drain the child side into column arrays ----
            build_seconds = 0.0
            keys: list[int | float] = []
            child_columns: dict[str, list] = {
                name: [] for gathered, name in column_plan if gathered
            }
            for batch in child:
                started = time.perf_counter()
                parents = batch.column("parent")
                if None in parents:
                    parents = [_NO_PARENT if key is None else key
                               for key in parents]
                keys.extend(parents)
                for name, cells in child_columns.items():
                    cells.extend(batch.column(name))
                elapsed = time.perf_counter() - started
                build_seconds += elapsed
                if tick is not None:
                    tick(elapsed, 0)

            started = time.perf_counter()
            sorted_keys = all(map(le, keys, islice(keys, 1, None)))
            strategy = force or ("merge" if sorted_keys else "hash")
            build_rows = len(keys)
            hash_table_rows = 0
            if strategy == "merge":
                if sorted_keys:
                    order = None
                    probe_keys = keys
                else:
                    order = sorted(range(build_rows),
                                   key=keys.__getitem__)
                    probe_keys = [keys[i] for i in order]
                # The walk's position: the last probe key and where
                # it landed in the sorted build keys.
                cursor = 0
                last = _NO_PARENT

                def matches_of(anchor_keys: list) -> list:
                    """Merge walk: each key advances the cursor from
                    where the previous one left it (a step, then a
                    bisection over the rest if that was not enough);
                    a key that goes backwards bisects from the start."""
                    nonlocal cursor, last
                    found: list[int | None] = []
                    append = found.append
                    for key in anchor_keys:
                        if key is None:
                            append(None)
                            continue
                        if key < last:
                            cursor = bisect_left(probe_keys, key)
                        elif (cursor < build_rows
                              and probe_keys[cursor] < key):
                            cursor += 1
                            if (cursor < build_rows
                                    and probe_keys[cursor] < key):
                                cursor = bisect_left(
                                    probe_keys, key, cursor
                                )
                        last = key
                        if (cursor < build_rows
                                and probe_keys[cursor] == key):
                            append(order[cursor] if order else cursor)
                        else:
                            append(None)
                    return found
            else:
                by_key = dict(zip(keys, range(build_rows)))
                hash_table_rows = len(by_key)

                def matches_of(anchor_keys: list) -> list:
                    return [None if key is None else by_key.get(key)
                            for key in anchor_keys]
            nulls = keys.count(_NO_PARENT)
            repeated = None  # a real PARENT key on two child rows
            if len(set(keys)) - bool(nulls) < build_rows - nulls:
                repeated = _repeated_key(keys, sorted_keys)
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

            # ---- probe: stream parent batches through the index ----
            probe_rows = 0
            probe_seconds = 0.0
            matched: set[int | None] = set()
            for batch in parent:
                started = time.perf_counter()
                in_rows = batch.row_count()
                probe_rows += in_rows
                matches = matches_of(batch.column(anchor_column))
                misses = matches.count(None)
                out_columns: list[list] = []
                for gathered, name in column_plan:
                    if gathered:
                        cells = child_columns[name]
                        out_columns.append(
                            [None if hit is None else cells[hit]
                             for hit in matches] if misses
                            else list(map(cells.__getitem__, matches))
                        )
                    else:
                        out_columns.append(batch.column(name))
                matched.update(matches)
                out = ColumnBatch(result_fragment, out_columns,
                                  batch.seq, result_layout)
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
                    strategy, build_rows, probe_rows, build_seconds,
                    probe_seconds, hash_table_rows,
                ))
            matched.discard(None)
            if len(matched) < build_rows:
                raise OperationError(combine_orphan_message(
                    parent_fragment.name, child_fragment.name,
                    [None if key == _NO_PARENT else key
                     for index, key in enumerate(keys)
                     if index not in matched],
                ))

        return generate()
