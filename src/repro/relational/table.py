"""Row storage with type checking and bulk loading."""

from __future__ import annotations

from types import NoneType
from typing import Iterable, Iterator, Sequence

from repro.errors import TableError
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.schema import TableSchema


class Table:
    """A heap of typed rows plus its indexes.

    Two write disciplines.  ``bulk_load`` / ``load_columns`` append
    and leave every index stale (LOAD, then INDEX — the paper's Table
    4 times them separately).  ``insert`` / ``upsert`` /
    ``delete_where`` touch single rows and patch every *built* hash
    index for exactly those rows, so they cost what they change; an
    index that is not built, and any sorted index, is left stale for
    the next :meth:`build_indexes`.  Heap order carries no meaning
    (a delete fills its hole with the last row): ordered reads sort.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple] = []
        self.indexes: dict[str, HashIndex | SortedIndex] = {}

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

    def insert(self, values: Sequence[object]) -> int:
        """Insert one row (maintains existing indexes); returns row id."""
        row = self._coerced(values)
        row_id = len(self.rows)
        self.rows.append(row)
        for index in self.indexes.values():
            index.add(row_id, row)
        return row_id

    def bulk_load(self, rows: Iterable[Sequence[object]]) -> int:
        """Append many rows *without* touching indexes (LOAD semantics —
        the paper's Table 4 times loading and indexing separately);
        returns the number of rows loaded."""
        count = 0
        append = self.rows.append
        for values in rows:
            append(self._coerced(values))
            count += 1
        for index in self.indexes.values():
            index.built = False
        return count

    def load_columns(self, columns: Sequence[list]) -> int:
        """:meth:`bulk_load` for rows that arrive as one list per
        column (same LOAD semantics, same checks, same errors).

        Each column is tested once for what :meth:`_coerced` would
        leave untouched — every cell already of the column's storage
        type or ``None``, no ``None`` in a NOT NULL column — and if all
        pass, the transposed tuples are appended as they are.  Anything
        else (a wrong width, a cell that needs coercing or cannot be
        stored, a missing NOT NULL value) goes through the per-cell
        path, which coerces what can be and raises what it always
        raised.
        """
        schema_columns = self.schema.columns
        stored_as_is = len(columns) == len(schema_columns) and all(
            set(map(type, cells)) <= {column.type.python_type, NoneType}
            and (column.nullable or None not in cells)
            for column, cells in zip(schema_columns, columns)
        )
        if not stored_as_is:
            return self.bulk_load(zip(*columns))
        before = len(self.rows)
        self.rows.extend(zip(*columns))
        for index in self.indexes.values():
            index.built = False
        return len(self.rows) - before

    def truncate(self) -> None:
        """Remove all rows (indexes are emptied too)."""
        self.rows.clear()
        for index in self.indexes.values():
            index.build(self.rows)

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
        with :meth:`load_columns`' one type test per column (that
        method's own copy of the test is left alone: it is the
        full-exchange hot path)."""
        schema_columns = self.schema.columns
        stored_as_is = len(columns) == len(schema_columns) and all(
            set(map(type, cells)) <= {column.type.python_type, NoneType}
            and (column.nullable or None not in cells)
            for column, cells in zip(schema_columns, columns)
        )
        if not stored_as_is:
            return self.upsert(zip(*columns))
        return self._upsert(list(zip(*columns)))

    def _upsert(self, rows: list[tuple]) -> int:
        key = self.schema.primary_key
        if key is None:
            raise TableError(
                f"table {self.schema.name!r} has no primary key to "
                "upsert by"
            )
        key_at = self.schema.position(key)
        by_key = self.lookup_index(key)
        live = self._live_indexes()
        stored = self.rows
        for row in rows:
            held = by_key.lookup(row[key_at])
            if len(held) > 1:
                # Duplicates of one key (only a LOAD can leave them)
                # collapse into the one incoming row.
                self._remove(list(held))
                held = []
            if held:
                row_id = held[0]
                old = stored[row_id]
                stored[row_id] = row
                for index in live:
                    if old[index.position] != row[index.position]:
                        index.discard(row_id, old)
                        index.add(row_id, row)
            else:
                stored.append(row)
                for index in live:
                    index.add(len(stored) - 1, row)
        return len(rows)

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
            doomed = [
                row_id for key in wanted for row_id in index.lookup(key)
            ]
        else:
            doomed = [
                row_id for row_id, row in enumerate(self.rows)
                if row[position] in wanted
            ]
        self._remove(doomed)
        return len(doomed)

    def _live_indexes(self) -> list[HashIndex]:
        """The indexes a row-at-a-time write patches — every built
        hash index; all others are marked stale here."""
        live = []
        for index in self.indexes.values():
            if index.built and index.kind == "hash":
                live.append(index)
            else:
                index.built = False
        return live

    def _remove(self, row_ids: list[int]) -> None:
        """Swap-remove the rows at ``row_ids`` (distinct), highest
        first so that the row filling a hole is never itself doomed."""
        if not row_ids:
            return
        live = self._live_indexes()
        rows = self.rows
        for row_id in sorted(row_ids, reverse=True):
            doomed = rows[row_id]
            last = rows.pop()
            for index in live:
                index.discard(row_id, doomed)
            if row_id != len(rows):
                rows[row_id] = last
                for index in live:
                    index.renumber(len(rows), row_id, last)

    # -- indexes ------------------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash",
                     build: bool = True) -> HashIndex | SortedIndex:
        """Create (and optionally build) an index on ``column``.

        Raises:
            TableError: for unknown columns/kinds or duplicate indexes.
        """
        position = self.schema.position(column)
        key = f"{kind}:{column.lower()}"
        if key in self.indexes:
            raise TableError(
                f"index {key!r} already exists on {self.schema.name!r}"
            )
        if kind == "hash":
            index: HashIndex | SortedIndex = HashIndex(
                self.schema.name, column, position
            )
        elif kind == "sorted":
            index = SortedIndex(self.schema.name, column, position)
        else:
            raise TableError(f"unknown index kind {kind!r}")
        if build:
            index.build(self.rows)
        self.indexes[key] = index
        return index

    def build_indexes(self) -> int:
        """(Re)build all stale indexes; returns how many were rebuilt."""
        rebuilt = 0
        for index in self.indexes.values():
            if not index.built:
                index.build(self.rows)
                rebuilt += 1
        return rebuilt

    def lookup_index(self, column: str) -> HashIndex:
        """The hash index on ``column``, built: created here if the
        table has none, rebuilt here if a LOAD left it stale.  The
        keyed reads and writes (:meth:`rows_where`, :meth:`upsert`)
        come through this, so an index exists only on tables that
        are read or written by key, from the first time they are."""
        index = self.indexes.get(f"hash:{column.lower()}")
        if index is None:
            return self.create_index(column)
        if not index.built:
            index.build(self.rows)
        return index

    def get_index(self, column: str,
                  kind: str = "hash") -> HashIndex | SortedIndex | None:
        """Return a *built* index on ``column`` of ``kind``, else None."""
        index = self.indexes.get(f"{kind}:{column.lower()}")
        if index is not None and index.built:
            return index
        return None

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def scan(self) -> Iterator[tuple]:
        """All rows in heap order (insertion order until a delete
        moves the last row into the hole it leaves)."""
        return iter(self.rows)

    def rows_where(self, column: str,
                   keys: Iterable[object]) -> list[tuple]:
        """Rows whose ``column`` value is in ``keys`` (distinct), read
        through :meth:`lookup_index` — proportional to the answer."""
        lookup = self.lookup_index(column).lookup
        rows = self.rows
        return [rows[row_id] for key in keys for row_id in lookup(key)]

    def column_values(self, column: str) -> list[object]:
        """All values of one column, in row order."""
        position = self.schema.position(column)
        return [row[position] for row in self.rows]

    def estimated_bytes(self) -> int:
        """Rough storage footprint, for statistics and reports."""
        total = 0
        for row in self.rows:
            for value in row:
                if value is None:
                    total += 1
                elif isinstance(value, str):
                    total += len(value)
                else:
                    total += 8
        return total
