"""Column storage with type checking, bulk loading and a clustered order."""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import is_not, le
from types import NoneType
from typing import Iterable, Iterator, Sequence

from repro.errors import TableError
from repro.relational.index import HashIndex
from repro.relational.schema import TableSchema

_is_not_none = partial(is_not, None)


def _non_decreasing(values: list) -> bool:
    """Whether ``values`` never goes down (compared at C speed)."""
    return all(map(le, values, islice(values, 1, None)))


#: Rows :func:`transpose` turns at a time.  ``zip(*rows)`` holds one
#: iterator per row alive until it is done; over a paper-scale table
#: that is hundreds of thousands of objects for the cyclic collector
#: to scan, while a few hundred rows at a time leave it idle and keep
#: ``zip``'s speed on small loads.
_TRANSPOSE_ROWS = 512


def transpose(rows: Sequence[Sequence[object]], width: int) -> list[list]:
    """``rows``, each ``width`` cells long, as ``width`` column lists.

    Raises:
        ValueError: if a row is not ``width`` cells long.
    """
    columns: list[list] = [[] for _ in range(width)]
    for start in range(0, len(rows), _TRANSPOSE_ROWS):
        chunk = zip(*rows[start:start + _TRANSPOSE_ROWS], strict=True)
        for column, cells in zip(columns, chunk, strict=True):
            column.extend(cells)
    return columns


class Table:
    """A heap of typed rows, stored one list per column, plus its
    indexes.

    Two write disciplines.  ``bulk_load`` / ``load_columns`` append
    and leave every index stale (LOAD, then INDEX — the paper's Table
    4 times them separately).  ``upsert`` / ``delete_where`` touch
    single rows and patch every *built* index for exactly those rows,
    so they cost what they change; an index that is not built stays
    stale until :meth:`lookup_index` next reads through it.

    Heap order.  A table with a NOT NULL ``id`` and a ``parent``
    column — every fragment table — is clustered on (``parent`` NULLs
    first, ``parent``, ``id``), the order of the paper's sorted feed.
    The table tracks how long a prefix of its heap is known to be in
    that order: an append leaves the prefix alone, a write that moves
    or re-keys a row (a swap-remove, an upsert that changes the
    order's key) cuts it back to that row.
    :meth:`clustered_columns` checks the rest once, at C speed, and
    only if it is out of order sorts the heap physically (rebuilding
    the built indexes); until the next such write, every ordered read
    is the stored columns as they are.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: list[list] = [[] for _ in schema.columns]
        # Per column: the cell types stored as they are, and whether
        # NULL is allowed (what :meth:`_stored_as_is` tests).
        self._cell_types = [
            ({column.type.python_type, NoneType}, column.nullable)
            for column in schema.columns
        ]
        self.indexes: dict[str, HashIndex] = {}
        # Leading heap rows known to be in clustered order.
        self._ordered_rows = 0
        self._cluster: tuple[int, int] | None = None
        if schema.has_column("id") and schema.has_column("parent") \
                and not schema.column("id").nullable:
            self._cluster = (
                schema.position("parent"), schema.position("id")
            )

    # -- writes ---------------------------------------------------------------

    def _coerced(self, values: Sequence[object]) -> tuple:
        columns = self.schema.columns
        if len(values) != len(columns):
            raise TableError(
                f"table {self.schema.name!r} expects "
                f"{len(columns)} values, got {len(values)}"
            )
        row = []
        for column, value in zip(columns, values):
            coerced = column.type.coerce(value)
            if coerced is None and not column.nullable:
                raise TableError(
                    f"column {column.name!r} of {self.schema.name!r} "
                    "is NOT NULL"
                )
            row.append(coerced)
        return tuple(row)

    def _stored_as_is(self, columns: Sequence[list]) -> bool:
        """Whether :meth:`_coerced` would leave every cell of
        ``columns`` untouched: the right width, every cell already of
        its column's storage type or ``None``, no ``None`` in a NOT
        NULL column — tested once per column."""
        return len(columns) == len(self._cell_types) and all(
            set(map(type, cells)) <= allowed
            and (nullable or None not in cells)
            for (allowed, nullable), cells in zip(self._cell_types, columns)
        )

    def _append(self, row: tuple) -> int:
        for cells, value in zip(self._columns, row):
            cells.append(value)
        return len(self._columns[0]) - 1

    def _unordered_from(self, row_id: int) -> None:
        """Heap rows from ``row_id`` on are no longer known to be in
        clustered order."""
        if row_id < self._ordered_rows:
            self._ordered_rows = row_id

    def bulk_load(self, rows: Iterable[Sequence[object]]) -> int:
        """Append many rows *without* touching indexes (LOAD semantics —
        the paper's Table 4 times loading and indexing separately);
        returns the number of rows loaded."""
        count = 0
        for values in rows:
            self._append(self._coerced(values))
            count += 1
        self._mark_stale()
        return count

    def load_columns(self, columns: Sequence[list]) -> int:
        """:meth:`bulk_load` for rows that arrive as one list per
        column (same LOAD semantics, same checks, same errors).

        If :meth:`_stored_as_is` passes, each stored column is
        extended by its incoming one.  Anything else (a wrong width, a
        cell that needs coercing or cannot be stored, a missing NOT
        NULL value) goes through the per-cell path, which coerces what
        can be and raises what it always raised.
        """
        if not self._stored_as_is(columns):
            return self.bulk_load(zip(*columns))
        for stored, cells in zip(self._columns, columns):
            stored.extend(cells)
        self._mark_stale()
        return len(columns[0]) if columns else 0

    def _mark_stale(self) -> None:
        for index in self.indexes.values():
            index.built = False

    def truncate(self) -> None:
        """Remove all rows (indexes are emptied too)."""
        for cells in self._columns:
            cells.clear()
        self._ordered_rows = 0
        self._rebuild(self.indexes.values())

    def upsert(self, rows: Iterable[Sequence[object]]) -> int:
        """Store ``rows`` by primary key: a row whose key is already
        stored replaces that row in place, any other is appended.
        Checked per cell like :meth:`bulk_load`; indexes are patched,
        not invalidated.  Returns the number of rows stored.

        Raises:
            TableError: if the table declares no primary key.
        """
        return self._upsert([self._coerced(values) for values in rows])

    def upsert_columns(self, columns: Sequence[list]) -> int:
        """:meth:`upsert` for rows that arrive as one list per column,
        with :meth:`load_columns`' one type test per column."""
        if not self._stored_as_is(columns):
            return self.upsert(zip(*columns))
        return self._upsert(list(zip(*columns)))

    def _key_index(self) -> tuple[int, HashIndex]:
        """The primary key's position and its built hash index.

        Raises:
            TableError: if the table declares no primary key.
        """
        key = self.schema.primary_key
        if key is None:
            raise TableError(
                f"table {self.schema.name!r} has no primary key to "
                "upsert by"
            )
        return self.schema.position(key), self.lookup_index(key)

    def _watched(self, key_at: int, live: list[HashIndex]) -> list[int]:
        """The positions whose change in a replaced row matters beyond
        the heap itself: indexed and clustering cells, but not the key
        (it is what found the row)."""
        positions = {index.position for index in live}
        return sorted(positions.union(self._cluster or ()) - {key_at})

    def _upsert(self, rows: list[tuple]) -> int:
        key_at, by_key = self._key_index()
        live = self._live_indexes()
        columns = self._columns
        watched = [(at, columns[at]) for at in self._watched(key_at, live)]
        for row in rows:
            held = by_key.entry(row[key_at])
            if held.__class__ is list:
                # Duplicates of one key (only a LOAD can leave them)
                # collapse into the one incoming row.
                self._remove(list(held))
                held = None
            if held is not None:
                row_id = held
                for at, cells in watched:
                    if cells[row_id] != row[at]:
                        self._rekeyed(row_id, row, live)
                        break
                for cells, value in zip(columns, row):
                    cells[row_id] = value
            else:
                row_id = self._append(row)
                for index in live:
                    index.add(row_id, row[index.position])
        return len(rows)

    def _rekeyed(self, row_id: int, row: tuple,
                 live: list[HashIndex]) -> None:
        """``row`` is about to replace the row at ``row_id`` and
        changes an indexed or clustering cell: patch ``live`` and the
        ordered prefix."""
        old = self.row(row_id)
        if any(old[at] != row[at] for at in self._cluster or ()):
            self._unordered_from(row_id)
        for index in live:
            was, now = old[index.position], row[index.position]
            if was != now:
                index.discard(row_id, was)
                index.add(row_id, now)

    def delete_where(self, column: str,
                     keys: Iterable[object]) -> int:
        """Delete rows whose ``column`` value is in ``keys``; returns
        how many were removed.  The rows are found through a built
        hash index on ``column`` when there is one (else by reading
        the column) and swap-removed with the indexes patched.

        Raises:
            TableError: for unknown columns.
        """
        position = self.schema.position(column)
        wanted = set(keys)
        if not wanted:
            return 0
        index = self.get_index(column)
        if index is not None:
            doomed = index.row_ids(wanted)
        else:
            doomed = [
                row_id for row_id, value in enumerate(self._columns[position])
                if value in wanted
            ]
        self._remove(doomed)
        return len(doomed)

    def _live_indexes(self) -> list[HashIndex]:
        """The indexes a write keeps current: the built ones."""
        return [index for index in self.indexes.values() if index.built]

    def _remove(self, row_ids: list[int]) -> None:
        """Swap-remove the rows at ``row_ids`` (distinct), highest
        first so that the row filling a hole is never itself doomed."""
        if not row_ids:
            return
        columns = self._columns
        live = [(index, columns[index.position])
                for index in self._live_indexes()]
        last = len(self)
        for row_id in sorted(row_ids, reverse=True):
            last -= 1
            for index, keys in live:
                index.discard(row_id, keys[row_id])
            if row_id == last:
                for cells in columns:
                    cells.pop()
                continue
            for index, keys in live:
                index.renumber(last, row_id, keys[last])
            for cells in columns:
                cells[row_id] = cells.pop()
        self._unordered_from(min(row_ids))

    # -- clustered order ------------------------------------------------------------

    def clustered_columns(self) -> list[list]:
        """The stored columns, in (``parent`` NULLs first, ``parent``,
        ``id``) order — the heap's own lists, so read them (slice,
        copy) and never write to them.  The rows past the known
        ordered prefix are checked once; only if they are out of
        order is the heap sorted (:meth:`_sort_heap`).

        Raises:
            TableError: if the table has no (``parent``, ``id``) order.
        """
        self._cluster_positions()
        count = len(self)
        if self._ordered_rows < count:
            if not self._in_order_from(max(self._ordered_rows - 1, 0)):
                self._sort_heap()
            self._ordered_rows = count
        return self._columns

    def _cluster_positions(self) -> tuple[int, int]:
        if self._cluster is None:
            raise TableError(
                f"table {self.schema.name!r} has no parent/id order"
            )
        return self._cluster

    def _in_order_from(self, start: int) -> bool:
        """Whether heap rows ``start`` on are in clustered order."""
        parent_at, id_at = self._cluster
        parents = self._columns[parent_at][start:]
        ids = self._columns[id_at][start:]
        nulls = parents.count(None)
        if parents[:nulls].count(None) != nulls:
            return False  # a NULL parent after a real one
        return (_non_decreasing(ids[:nulls])
                and _non_decreasing(
                    list(zip(parents[nulls:], ids[nulls:]))
                ))

    def _sort_heap(self) -> None:
        """Permute every column into clustered order (a stable sort)
        and rebuild the indexes that were built."""
        parent_at, id_at = self._cluster
        parents = self._columns[parent_at]
        keys = list(zip(
            map(_is_not_none, parents), parents, self._columns[id_at]
        ))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._columns = [
            list(map(cells.__getitem__, order)) for cells in self._columns
        ]
        self._rebuild(self._live_indexes())

    # -- indexes ------------------------------------------------------------------

    def _rebuild(self, indexes: Iterable[HashIndex]) -> None:
        for index in indexes:
            index.build_column(self._columns[index.position])

    def create_index(self, column: str) -> HashIndex:
        """Create and build a hash index on ``column``.

        Raises:
            TableError: for unknown columns or duplicate indexes.
        """
        position = self.schema.position(column)
        key = column.lower()
        if key in self.indexes:
            raise TableError(
                f"index on {column!r} already exists on "
                f"{self.schema.name!r}"
            )
        index = HashIndex(self.schema.name, column, position)
        self._rebuild([index])
        self.indexes[key] = index
        return index

    def lookup_index(self, column: str) -> HashIndex:
        """The index on ``column``, built: created here if the table
        has none, rebuilt here if a LOAD left it stale.  The keyed
        reads and writes (:meth:`row_ids_where`, :meth:`upsert`) come
        through this, so an index exists only on tables that are read
        or written by key, from the first time they are."""
        index = self.indexes.get(column.lower())
        if index is None:
            return self.create_index(column)
        if not index.built:
            self._rebuild([index])
        return index

    def get_index(self, column: str) -> HashIndex | None:
        """The index on ``column`` if it is built, else None."""
        index = self.indexes.get(column.lower())
        if index is not None and index.built:
            return index
        return None

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def columns(self) -> list[list]:
        """The stored columns in heap order — the heap's own lists, so
        read them and never write to them."""
        return self._columns

    @property
    def rows(self) -> list[tuple]:
        """A read-only copy of the heap as row tuples, in heap order."""
        return list(zip(*self._columns))

    def row(self, row_id: int) -> tuple:
        """The row stored at ``row_id``."""
        return tuple([cells[row_id] for cells in self._columns])

    def scan(self) -> Iterator[tuple]:
        """All rows in heap order (insertion order until a delete
        moves the last row into the hole it leaves, or an ordered
        read sorts the heap)."""
        return zip(*self._columns)

    def row_ids_where(self, column: str,
                      keys: Iterable[object]) -> list[int]:
        """Heap positions of the rows whose ``column`` value is in
        ``keys`` (distinct), read through :meth:`lookup_index` —
        proportional to the answer."""
        return self.lookup_index(column).row_ids(keys)

    def clustered_columns_where(self, column: str,
                                keys: Iterable[object]) -> list[list]:
        """The rows :meth:`row_ids_where` finds, gathered into new
        column lists in clustered order — work proportional to the
        answer, the heap is not sorted."""
        parent_at, id_at = self._cluster_positions()
        row_ids = self.row_ids_where(column, keys)
        parents = self._columns[parent_at]
        ids = self._columns[id_at]
        row_ids.sort(key=lambda row_id: (
            parents[row_id] is not None, parents[row_id], ids[row_id]
        ))
        return [list(map(cells.__getitem__, row_ids))
                for cells in self._columns]
