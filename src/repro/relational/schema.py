"""Relational schemas: columns, tables, keys."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TableError
from repro.relational.types import ColumnType


@dataclass(frozen=True, slots=True)
class Column:
    """One column: name, type, nullability."""

    name: str
    type: ColumnType
    nullable: bool = True


@dataclass(slots=True)
class TableSchema:
    """A table definition with an optional primary key.

    Column names are case-preserving but matched case-insensitively,
    like MySQL's default collation for identifiers.
    """

    name: str
    columns: list[Column]
    primary_key: str | None = None
    _positions: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise TableError(f"table {self.name!r} needs columns")
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in self._positions:
                raise TableError(
                    f"duplicate column {column.name!r} in {self.name!r}"
                )
            self._positions[key] = position
        if (self.primary_key is not None
                and self.primary_key.lower() not in self._positions):
            raise TableError(
                f"primary key {self.primary_key!r} is not a column of "
                f"{self.name!r}"
            )

    def position(self, name: str) -> int:
        """Index of column ``name`` (case-insensitive).

        Raises:
            TableError: if the column does not exist.
        """
        try:
            return self._positions[name.lower()]
        except KeyError as exc:
            raise TableError(
                f"table {self.name!r} has no column {name!r}"
            ) from exc

    def has_column(self, name: str) -> bool:
        """True if ``name`` is a column (case-insensitive)."""
        return name.lower() in self._positions

    def column(self, name: str) -> Column:
        """The column named ``name``."""
        return self.columns[self.position(name)]
