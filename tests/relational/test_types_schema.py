"""Column types and table schemas."""

import pytest

from repro.errors import TableError
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType


class TestColumnType:
    def test_coerce_integer(self):
        assert ColumnType.INTEGER.coerce("42") == 42
        assert ColumnType.INTEGER.coerce(7.0) == 7
        assert ColumnType.INTEGER.coerce(None) is None
        with pytest.raises(TableError):
            ColumnType.INTEGER.coerce("abc")
        with pytest.raises(TableError):
            ColumnType.INTEGER.coerce(True)

    def test_coerce_text_and_real(self):
        assert ColumnType.TEXT.coerce(5) == "5"
        assert ColumnType.REAL.coerce("2.5") == 2.5
        with pytest.raises(TableError):
            ColumnType.REAL.coerce("x")


class TestTableSchema:
    def make(self):
        return TableSchema("t", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("Name", ColumnType.TEXT),
        ], primary_key="id")

    def test_positions_case_insensitive(self):
        schema = self.make()
        assert schema.position("ID") == 0
        assert schema.position("name") == 1
        assert schema.has_column("NAME")
        assert not schema.has_column("zz")
        with pytest.raises(TableError):
            schema.position("zz")

    def test_column_names_preserve_case(self):
        assert [column.name for column in self.make().columns] \
            == ["id", "Name"]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            TableSchema("t", [
                Column("a", ColumnType.TEXT),
                Column("A", ColumnType.TEXT),
            ])

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(TableError):
            TableSchema("t", [Column("a", ColumnType.TEXT)],
                        primary_key="b")

    def test_no_columns_rejected(self):
        with pytest.raises(TableError):
            TableSchema("t", [])
