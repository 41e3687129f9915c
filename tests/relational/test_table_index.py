"""Row storage and indexes."""

import pytest

from repro.errors import TableError
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import ColumnType


@pytest.fixture
def table():
    return Table(TableSchema("t", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("name", ColumnType.TEXT),
    ], primary_key="id"))


class TestTable:
    def test_insert_and_scan(self, table):
        table.insert([1, "a"])
        table.insert(["2", None])
        assert list(table.scan()) == [(1, "a"), (2, None)]

    def test_arity_check(self, table):
        with pytest.raises(TableError):
            table.insert([1])

    def test_not_null_check(self, table):
        with pytest.raises(TableError):
            table.insert([None, "x"])

    def test_bulk_load_leaves_indexes_stale(self, table):
        index = table.create_index("id")
        table.bulk_load([[1, "a"], [2, "b"]])
        assert not index.built
        assert table.build_indexes() == 1
        assert index.built
        assert index.lookup(2) == [1]

    def test_insert_maintains_indexes(self, table):
        index = table.create_index("name")
        table.insert([1, "x"])
        assert index.lookup("x") == [0]

    def test_truncate(self, table):
        table.create_index("id")
        table.bulk_load([[1, "a"]])
        table.truncate()
        assert len(table) == 0
        assert table.get_index("id").lookup(1) == []

    def test_duplicate_index_rejected(self, table):
        table.create_index("id")
        with pytest.raises(TableError):
            table.create_index("id")

    def test_unknown_index_kind(self, table):
        with pytest.raises(TableError):
            table.create_index("id", kind="btree")

    def test_column_values(self, table):
        table.bulk_load([[1, "a"], [2, "b"]])
        assert table.column_values("name") == ["a", "b"]

    def test_estimated_bytes(self, table):
        table.insert([1, "hello"])
        assert table.estimated_bytes() == 8 + 5


class TestHashIndex:
    def test_build_and_lookup(self):
        index = HashIndex("t", "c", 0)
        index.build([(1,), (2,), (1,)])
        assert index.lookup(1) == [0, 2]
        assert index.lookup(9) == []
        assert len(index) == 3


class TestSortedIndex:
    def test_order_and_range(self):
        index = SortedIndex("t", "c", 0)
        index.build([(5,), (1,), (None,), (3,)])
        assert list(index.row_ids_in_order()) == [1, 3, 0]
        assert index.range(2, 5) == [3, 0]
        assert index.range(None, 1) == [1]
        assert index.range(6, None) == []

    def test_incremental_add(self):
        index = SortedIndex("t", "c", 0)
        index.build([(2,)])
        index.add(5, (1,))
        assert list(index.row_ids_in_order()) == [5, 0]
        index.add(6, (None,))  # NULLs are not indexed
        assert len(index) == 2


class TestLoadColumns:
    """``load_columns`` against ``bulk_load`` of the same rows: the
    column-wise fast path and the per-cell fallback must store the
    same tuples and fail the same way, rows loaded so far included."""

    @staticmethod
    def _both(table_factory, rows, width=2):
        """``(stored rows, error text or None)`` per loader."""
        outcomes = []
        columns = [list(cells) for cells in zip(*rows)] \
            or [[] for _ in range(width)]
        for load in (
            lambda table: table.bulk_load(rows),
            lambda table: table.load_columns(columns),
        ):
            table = table_factory()
            index = table.create_index("id")
            try:
                loaded, error = load(table), None
                assert loaded == len(rows) and not index.built
            except TableError as exc:
                error = str(exc)
            outcomes.append((list(table.scan()), error))
        return outcomes

    @pytest.fixture
    def factory(self):
        return lambda: Table(TableSchema("t", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT),
        ], primary_key="id"))

    def test_fast_path_stores_the_same_tuples(self, factory):
        rows = [(1, "a"), (2, None), (3, "")]
        by_row, by_column = self._both(factory, rows)
        assert by_column == by_row == (rows, None)

    def test_empty_and_appending_loads(self, factory):
        assert self._both(factory, []) == [([], None)] * 2
        table = factory()
        table.load_columns([[1], ["a"]])
        table.load_columns([[2, 3], ["b", None]])
        assert list(table.scan()) == [(1, "a"), (2, "b"), (3, None)]

    def test_coercible_cells_take_the_per_cell_path(self, factory):
        rows = [(1, "a"), ("2", 7), (3, None)]
        by_row, by_column = self._both(factory, rows)
        assert by_column == by_row
        assert by_column[0] == [(1, "a"), (2, "7"), (3, None)]

    @pytest.mark.parametrize("rows,message", [
        ([(1, "a"), ("zz", "b"), (3, "c")],
         "cannot store 'zz' in a INTEGER column"),
        ([(1, "a"), (True, "b")],
         "cannot store True in a INTEGER column"),
        ([(1, "a"), (None, "b"), (3, "c")],
         "column 'id' of 't' is NOT NULL"),
        ([(1, "a", "extra"), (2, "b", "extra")],
         "table 't' expects 2 values, got 3"),
    ], ids=["wrong-type", "bool-is-no-integer", "null-in-not-null",
            "width-mismatch"])
    def test_errors_are_the_row_loaders(self, factory, rows, message):
        by_row, by_column = self._both(factory, rows)
        assert by_column == by_row
        stored, error = by_column
        assert error == message
        assert len(stored) < len(rows)
