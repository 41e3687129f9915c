"""Row storage with type checking and bulk loading."""

from __future__ import annotations

from types import NoneType
from typing import Iterable, Iterator, Sequence

from repro.errors import TableError
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.schema import TableSchema


class Table:
    """An append-oriented heap of typed rows plus its indexes."""

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

    def delete_where(self, column: str,
                     keys: Iterable[object]) -> int:
        """Delete rows whose ``column`` value is in ``keys``; returns
        how many were removed.  Indexes go stale (DELETE then rebuild,
        matching the separately timed LOAD/INDEX discipline).

        Raises:
            TableError: for unknown columns.
        """
        position = self.schema.position(column)
        wanted = set(keys)
        if not wanted:
            return 0
        before = len(self.rows)
        self.rows = [
            row for row in self.rows if row[position] not in wanted
        ]
        deleted = before - len(self.rows)
        if deleted:
            for index in self.indexes.values():
                index.built = False
        return deleted

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
        """All rows in insertion order."""
        return iter(self.rows)

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
