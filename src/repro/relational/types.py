"""Column types and value coercion for the relational engine."""

from __future__ import annotations

import enum

from repro.errors import TableError


class ColumnType(enum.Enum):
    """The three storage types the workloads need."""

    INTEGER = "INTEGER"
    TEXT = "TEXT"
    REAL = "REAL"

    @property
    def python_type(self) -> type:
        """The exact Python type :meth:`coerce` stores values as (a
        value already of it passes through unchanged)."""
        return _PYTHON_TYPES[self]

    def coerce(self, value: object) -> object:
        """Coerce ``value`` to this type (``None`` passes through).

        Raises:
            TableError: if the value cannot represent this type.
        """
        if value is None:
            return None
        try:
            if self is ColumnType.INTEGER:
                if isinstance(value, bool):
                    raise ValueError("booleans are not integers")
                return int(value)
            if self is ColumnType.REAL:
                return float(value)
            return str(value)
        except (TypeError, ValueError) as exc:
            raise TableError(
                f"cannot store {value!r} in a {self.value} column"
            ) from exc


_PYTHON_TYPES = {
    ColumnType.INTEGER: int,
    ColumnType.TEXT: str,
    ColumnType.REAL: float,
}
