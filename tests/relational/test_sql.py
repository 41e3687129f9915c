"""The database façade: tables by name, bulk loads, keyed reads and
deletes, and the per-cell checks every write runs."""

import pytest

from repro.errors import TableError
from repro.relational.engine import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType


@pytest.fixture
def db():
    database = Database("test")
    database.create_table(TableSchema("customer", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("name", ColumnType.TEXT),
        Column("region", ColumnType.TEXT),
    ], primary_key="id"))
    database.create_table(TableSchema("orders", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("custkey", ColumnType.INTEGER),
        Column("total", ColumnType.REAL),
    ], primary_key="id"))
    database.load("customer", [
        (1, "acme", "east"), (2, "globex", "west"), (3, "initech", "east"),
    ])
    database.load("orders", [
        (10, 1, 99.5), (11, 1, 15.0), (12, 2, 42.0), (13, None, 7.0),
    ])
    return database


def _rows_where(table, column, keys):
    """The rows whose ``column`` value is in ``keys``, by index."""
    return [table.row(row_id)
            for row_id in table.row_ids_where(column, keys)]


class TestExecutor:
    """Reads and deletes by value, through the table API."""

    def test_delete_with_where(self, db):
        assert db.table("orders").delete_where("custkey", [1]) == 2
        assert db.row_count("orders") == 2

    def test_delete_all(self, db):
        db.table("orders").truncate()
        assert db.row_count("orders") == 0

    def test_index_assisted_equality(self, db):
        customer = db.table("customer")
        rows = _rows_where(customer, "region", ["east"])
        assert sorted(row[1] for row in rows) == ["acme", "initech"]
        assert customer.get_index("region") is not None
        # And the read can be repeated through the same index.
        assert _rows_where(customer, "region", ["east"]) == rows

    def test_unknown_table_and_column(self, db):
        with pytest.raises(TableError):
            db.table("nope")
        with pytest.raises(TableError):
            db.table("customer").row_ids_where("nope", [1])

    def test_create_duplicate_table_rejected(self, db):
        with pytest.raises(TableError):
            db.create_table(TableSchema("CUSTOMER", [
                Column("a", ColumnType.INTEGER),
            ]))


class TestDatabase:
    def test_table_names(self, db):
        assert db.table("Orders").schema.name == "orders"

    def test_totals(self, db):
        assert db.total_rows() == 7

    def test_load_bulk(self, db):
        index = db.table("orders").lookup_index("custkey")
        db.load("orders", [[20, 3, 1.0], [21, 3, 2.0]])
        assert db.row_count("orders") == 6
        assert not index.built  # LOAD leaves indexes stale


class TestColumnListInsert:
    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(TableError):
            db.load("customer", [[1]])

    def test_not_null_still_enforced(self, db):
        db.create_table(TableSchema("strict", [
            Column("k", ColumnType.INTEGER, nullable=False),
            Column("v", ColumnType.TEXT),
        ]))
        with pytest.raises(TableError):
            db.load("strict", [[None, "x"]])
        db.load("strict", [["7", 5]])  # coerced per column type
        assert db.table("strict").rows == [(7, "5")]
