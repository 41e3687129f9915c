"""The database façade: named tables plus row counts."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import TableError
from repro.relational.schema import TableSchema
from repro.relational.table import Table


class Database:
    """A named collection of tables (one per system in the exchange)."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema object.

        Raises:
            TableError: if the name is taken.
        """
        key = schema.name.lower()
        if key in self._tables:
            raise TableError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def table(self, name: str) -> Table:
        """Return table ``name``.

        Raises:
            TableError: if it does not exist.
        """
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise TableError(
                f"database {self.name!r} has no table {name!r}"
            ) from exc

    def load(self, table_name: str,
             rows: Iterable[Sequence[object]]) -> int:
        """Bulk-load rows (LOAD semantics: indexes left stale)."""
        return self.table(table_name).bulk_load(rows)

    def row_count(self, table_name: str) -> int:
        """Rows currently stored in ``table_name``."""
        return len(self.table(table_name))

    def total_rows(self) -> int:
        """Rows across all tables."""
        return sum(len(table) for table in self._tables.values())
