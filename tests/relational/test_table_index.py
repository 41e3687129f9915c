"""Column storage and hash indexes."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import TableError
from repro.relational.index import HashIndex
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table, transpose
from repro.relational.types import ColumnType


def _assert_answers_like_a_fresh_build(index, table, keys):
    """``index`` answers every key of ``keys`` and counts its rows as
    a fresh :meth:`HashIndex.build_column` over the heap would."""
    fresh = HashIndex(table.schema.name, index.column, index.position)
    fresh.build_column(table.columns[index.position])
    for key in keys:
        assert index.row_ids([key]) == fresh.row_ids([key])
    assert len(index) == len(fresh) == len(table)


@pytest.fixture
def table():
    return Table(TableSchema("t", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("name", ColumnType.TEXT),
    ], primary_key="id"))


class TestTable:
    def test_insert_and_scan(self, table):
        table.bulk_load([[1, "a"], ["2", None]])
        assert list(table.scan()) == [(1, "a"), (2, None)]

    def test_arity_check(self, table):
        with pytest.raises(TableError):
            table.bulk_load([[1]])

    def test_not_null_check(self, table):
        with pytest.raises(TableError):
            table.bulk_load([[None, "x"]])

    def test_bulk_load_leaves_indexes_stale(self, table):
        index = table.create_index("id")
        table.bulk_load([[1, "a"], [2, "b"]])
        assert not index.built
        assert table.lookup_index("id") is index
        assert index.built
        assert index.row_ids((2,)) == [1]

    def test_insert_maintains_indexes(self, table):
        index = table.create_index("name")
        table.upsert([[1, "x"]])
        assert index.row_ids(("x",)) == [0]

    def test_truncate(self, table):
        table.create_index("id")
        table.bulk_load([[1, "a"]])
        table.truncate()
        assert len(table) == 0
        assert table.get_index("id").row_ids((1,)) == []

    def test_duplicate_index_rejected(self, table):
        table.create_index("id")
        with pytest.raises(TableError):
            table.create_index("id")


class TestHashIndex:
    def test_build_and_lookup(self):
        index = HashIndex("t", "c", 0)
        index.build_column([1, 2, 1])
        assert index.row_ids((1,)) == [0, 2]
        assert index.row_ids((9,)) == []
        assert index.row_ids([2, 9, 1]) == [1, 0, 2]
        assert len(index) == 3

    def test_distinct_keys_store_no_list(self):
        """A build over distinct keys (an ``id`` column) stores one
        row id per key and no container the collector would track."""
        index = HashIndex("t", "id", 0)
        index.build_column([f"k{n}" for n in range(1000)] + [None])
        assert all(type(held) is int for held in index._rows.values())
        assert not gc.is_tracked(index._rows)
        assert index.row_ids(("k7",)) == [7] and index.row_ids((None,)) == [1000]
        assert len(index) == 1001

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["add", "discard", "renumber"]),
        st.integers(0, 9), st.integers(0, 2),
    ), max_size=30))
    def test_maintenance_answers_like_the_model(self, steps):
        """``add`` / ``discard`` / ``renumber`` against a plain map of
        row id → key, whatever they do to how many rows hold a key."""
        index = HashIndex("t", "c", 0)
        index.build_column([])
        model: dict[int, int] = {}
        for step, row_id, key in steps:
            if step == "add" and row_id not in model:
                index.add(row_id, key)
                model[row_id] = key
            elif step == "discard" and row_id in model:
                index.discard(row_id, model.pop(row_id))
            elif step == "renumber" and model:
                old_id = sorted(model)[key % len(model)]
                if row_id not in model:
                    index.renumber(old_id, row_id, model[old_id])
                    model[row_id] = model.pop(old_id)
            for held_key in range(3):
                expected = sorted(at for at, value in model.items()
                                  if value == held_key)
                assert index.row_ids((held_key,)) == expected
                held = index.entry(held_key)
                assert held == (None if not expected else expected[0]
                                if len(expected) == 1 else expected)
            assert len(index) == len(model)


class TestTranspose:
    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1300])
    def test_columns_are_the_rows_cells(self, count):
        rows = [(n, f"n{n}", None) for n in range(count)]
        expected = [list(cells) for cells in zip(*rows)] or [[], [], []]
        assert transpose(rows, 3) == expected

    @pytest.mark.parametrize("rows", [[(1, "a"), (2,)], [(1, "a", 3)]],
                             ids=["short-row", "wide-rows"])
    def test_rows_of_another_width_raise(self, rows):
        with pytest.raises(ValueError):
            transpose(rows, 2)


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


class TestUpsertAndDelete:
    def test_upsert_replaces_in_place_and_appends(self, table):
        table.bulk_load([[1, "a"], [2, "b"]])
        by_name = table.create_index("name")
        assert table.upsert([[2, "B"], [3, "c"]]) == 2
        assert list(table.scan()) == [(1, "a"), (2, "B"), (3, "c")]
        assert by_name.built
        assert by_name.row_ids(("b",)) == []
        assert by_name.row_ids(("B",)) == [1]
        assert by_name.row_ids(("c",)) == [2]
        # The key index upsert made for itself is a built one too.
        assert table.get_index("id").row_ids((3,)) == [2]

    def test_upsert_collapses_loaded_duplicates(self, table):
        table.bulk_load([[1, "a"], [2, "b"], [1, "again"]])
        table.upsert([[1, "once"]])
        assert sorted(table.scan()) == [(1, "once"), (2, "b")]

    def test_upsert_checks_like_the_loaders(self, table):
        with pytest.raises(TableError, match="NOT NULL"):
            table.upsert([[None, "x"]])
        table.upsert_columns([["7"], [5]])  # coercible: per-cell path
        assert list(table.scan()) == [(7, "5")]
        keyless = Table(TableSchema("k", [
            Column("id", ColumnType.INTEGER),
        ]))
        with pytest.raises(TableError, match="no primary key"):
            keyless.upsert([[1]])

    def test_delete_swap_removes_and_patches(self, table):
        table.bulk_load([[n, f"n{n % 2}"] for n in range(6)])
        by_id = table.create_index("id")
        by_name = table.create_index("name")
        assert table.delete_where("id", [0, 4, 99]) == 2
        assert sorted(table.scan()) == [
            (1, "n1"), (2, "n0"), (3, "n1"), (5, "n1"),
        ]
        assert by_id.built and by_name.built
        for index in (by_id, by_name):
            _assert_answers_like_a_fresh_build(
                index, table, {0, 1, 2, 3, 4, 5, 99, "n0", "n1"}
            )

    def test_delete_without_an_index_reads_the_column(self, table):
        table.bulk_load([[1, "a"], [2, "b"], [3, "a"]])
        assert table.delete_where("name", ["a"]) == 2
        assert list(table.scan()) == [(2, "b")]
        assert table.indexes == {}


class TestIndexMaintenance:
    """Any interleaving of the two write disciplines: an index that
    says it is built answers exactly as a fresh build over the heap
    would, and what the table holds does not depend on heap order."""

    KEYS = st.integers(0, 12)
    NAMES = st.sampled_from(["a", "b", "c", None])
    ROWS = st.lists(st.tuples(KEYS, NAMES), max_size=6)
    STEPS = st.one_of(
        st.tuples(st.just("bulk_load"), ROWS),
        st.tuples(st.just("load_columns"), ROWS),
        st.tuples(st.just("upsert"), ROWS),
        st.tuples(st.just("upsert_columns"), ROWS),
        st.tuples(st.just("delete"), st.lists(KEYS, max_size=4)),
        st.tuples(st.just("delete_names"),
                  st.lists(NAMES, max_size=2)),
        st.tuples(st.just("truncate"), st.none()),
        st.tuples(st.just("lookup_index"),
                  st.sampled_from(["id", "name"])),
        st.tuples(st.just("one_two_one_none"),
                  st.tuples(KEYS, KEYS, NAMES).filter(
                      lambda argument: argument[0] != argument[1])),
    )

    @staticmethod
    def _expanded(steps):
        """The steps, a ``one_two_one_none`` taken apart: a built
        ``name`` index, then ``name`` upserted into two rows and
        deleted from them one at a time — a key held by 1, 2, 1 and
        0 of those rows, checked after each."""
        for step, argument in steps:
            if step != "one_two_one_none":
                yield step, argument
                continue
            first, second, name = argument
            yield "lookup_index", "name"
            yield "upsert", [(first, name)]
            yield "upsert", [(second, name)]
            yield "delete", [first]
            yield "delete", [second]

    @staticmethod
    def _apply(table, model, step, argument):
        """Run one step on the table and on ``model``, a plain list
        of rows with upsert-by-key semantics."""
        if step in ("bulk_load", "load_columns"):
            if step == "bulk_load":
                table.bulk_load(argument)
            else:
                table.load_columns(
                    [list(cells) for cells in zip(*argument)]
                    or [[], []]
                )
            model.extend(argument)
        elif step in ("upsert", "upsert_columns"):
            if step == "upsert":
                table.upsert(argument)
            else:
                table.upsert_columns(
                    [list(cells) for cells in zip(*argument)]
                    or [[], []]
                )
            for row in argument:
                model[:] = [old for old in model if old[0] != row[0]]
                model.append(row)
        elif step == "delete":
            table.delete_where("id", argument)
            model[:] = [row for row in model if row[0] not in argument]
        elif step == "delete_names":
            table.delete_where("name", argument)
            model[:] = [row for row in model if row[1] not in argument]
        elif step == "truncate":
            table.truncate()
            model.clear()
        else:
            table.lookup_index(argument)  # creates, or rebuilds if stale

    @settings(max_examples=200, deadline=None)
    @given(st.lists(STEPS, max_size=12))
    def test_built_indexes_answer_like_a_fresh_build(self, steps):
        table = Table(TableSchema("t", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT),
        ], primary_key="id"))
        model: list[tuple] = []
        for step, argument in self._expanded(steps):
            self._apply(table, model, step, argument)
            # Heap order is free; the rows are not.  (An upsert keeps
            # the newest row per key, so order the model's ties too.)
            assert sorted(table.scan(), key=repr) \
                == sorted(model, key=repr)
            for index in table.indexes.values():
                if index.built:
                    _assert_answers_like_a_fresh_build(
                        index, table,
                        {row[index.position] for row in model} | {99},
                    )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(STEPS, max_size=12), st.randoms())
    def test_ordered_scan_ignores_heap_order(self, steps, rng):
        """The clustered (``parent``, ``id``) read of a fragment table
        is the same whatever the swap-removes did to the heap."""
        def fragment_table():
            return Table(TableSchema("f", [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("parent", ColumnType.TEXT),
            ], primary_key="id"))

        table = fragment_table()
        model: list[tuple] = []
        for step, argument in self._expanded(steps):
            if step in ("bulk_load", "load_columns"):
                continue  # unique ids: the order is then total
            if step == "delete_names" or argument == "name":
                continue  # the table has no ``name`` column
            self._apply(table, model, step, argument)
        shuffled = list(model)
        rng.shuffle(shuffled)
        reference = fragment_table()
        reference.bulk_load(shuffled)
        assert table.clustered_columns() == reference.clustered_columns()


def _feed_key(row):
    """(``parent`` NULLs first, ``parent``, ``id``): the sorted feed."""
    return (row[1] is not None, row[1] or 0, row[0])


class ClusteredTableMachine(RuleBasedStateMachine):
    """A fragment table against a plain ``list[tuple]``: whatever mix
    of in-order and out-of-order loads and keyed writes ran, the
    ordered scan is the sorted model, keyed reads answer like a fresh
    build, and the heap holds the model's rows."""

    IDS = st.integers(0, 30)
    PARENTS = st.one_of(st.none(), st.integers(0, 5))
    ROWS = st.lists(
        st.tuples(IDS, PARENTS, st.sampled_from(["a", "b", None])),
        max_size=6,
    )

    def __init__(self):
        super().__init__()
        self.table = Table(TableSchema("f", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("parent", ColumnType.INTEGER),
            Column("name", ColumnType.TEXT),
        ], primary_key="id"))
        self.model: list[tuple] = []

    @staticmethod
    def _columns(rows):
        return [list(cells) for cells in zip(*rows)] or [[], [], []]

    def _upserted(self, rows):
        for row in rows:
            self.model = [old for old in self.model if old[0] != row[0]]
            self.model.append(row)

    @rule(rows=ROWS, in_order=st.booleans(), by_column=st.booleans())
    def load(self, rows, in_order, by_column):
        if in_order:
            rows = sorted(rows, key=_feed_key)
        if by_column:
            self.table.load_columns(self._columns(rows))
        else:
            self.table.bulk_load(rows)
        self.model.extend(rows)

    @rule(rows=ROWS, by_column=st.booleans())
    def upsert(self, rows, by_column):
        if by_column:
            self.table.upsert_columns(self._columns(rows))
        else:
            self.table.upsert(rows)
        self._upserted(rows)

    @rule(ids=st.lists(IDS, max_size=4))
    def delete(self, ids):
        self.table.delete_where("id", ids)
        self.model = [row for row in self.model if row[0] not in ids]

    @rule()
    def truncate(self):
        self.table.truncate()
        self.model.clear()

    @rule(column=st.sampled_from(["id", "parent"]))
    def index(self, column):
        self.table.lookup_index(column)

    @rule()
    def ordered_read(self):
        """A read in clustered order, which sorts a disordered heap
        and rebuilds the built indexes (the invariants check them)."""
        self.table.clustered_columns()

    @rule(ids=st.lists(IDS, min_size=2, max_size=2, unique=True),
          parent=st.integers(0, 5))
    def parent_one_two_one_none(self, ids, parent):
        """``parent`` held by 1, 2, 1 and 0 of the rows ``ids``, the
        keyed reads checked after each write."""
        self.table.lookup_index("parent")
        for row_id in ids:
            rows = [(row_id, parent, "a")]
            self.table.upsert(rows)
            self._upserted(rows)
            self.keyed_reads_answer_like_a_fresh_build()
        for row_id in ids:
            self.delete([row_id])
            self.keyed_reads_answer_like_a_fresh_build()

    @invariant()
    def ordered_scan_is_the_sorted_model(self):
        scanned = list(zip(*self.table.clustered_columns()))
        assert [_feed_key(row) for row in scanned] \
            == sorted(map(_feed_key, self.model))
        assert sorted(scanned, key=repr) == sorted(self.model, key=repr)
        if len({row[0] for row in self.model}) == len(self.model):
            assert scanned == sorted(self.model, key=_feed_key)

    @invariant()
    def keyed_reads_answer_like_a_fresh_build(self):
        for index in self.table.indexes.values():
            if index.built:
                _assert_answers_like_a_fresh_build(
                    index, self.table,
                    {row[index.position] for row in self.model} | {99},
                )
        for column, at in (("id", 0), ("parent", 1)):
            keys = {row[at] for row in self.model} | {99}
            found = [self.table.row(row_id) for row_id
                     in self.table.row_ids_where(column, keys)]
            assert sorted(found, key=repr) \
                == sorted([row for row in self.model if row[at] in keys],
                          key=repr)

    @invariant()
    def the_heap_holds_the_model(self):
        assert sorted(self.table.rows, key=repr) \
            == sorted(self.model, key=repr)


TestClusteredTable = ClusteredTableMachine.TestCase
TestClusteredTable.settings = settings(
    max_examples=150, stateful_step_count=15, deadline=None
)


class TestSortsOnlyWhenDisordered:
    """A clustered table's ordered reads are the stored columns; only
    a write that breaks the order costs one sort, at the next read."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        counted = []
        original = Table._sort_heap

        def counting(table):
            counted.append(table.schema.name)
            original(table)

        monkeypatch.setattr(Table, "_sort_heap", counting)
        return counted

    @pytest.fixture
    def feed(self):
        table = Table(TableSchema("f", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("parent", ColumnType.INTEGER),
        ], primary_key="id"))
        table.load_columns([[1, 2, 3, 4, 5, 6], [None, 1, 1, 2, 2, 2]])
        table.load_columns([[7, 8], [3, 3]])  # continues the order
        return table

    def test_in_order_loads_never_sort(self, feed, sorts):
        first = feed.clustered_columns()
        for _ in range(5):
            assert feed.clustered_columns() is first
        assert sorts == []

    def test_one_sort_after_a_disordering_write(self, feed, sorts):
        feed.clustered_columns()
        feed.upsert([[2, 9]])  # re-parents a row: out of order now
        for _ in range(4):
            assert feed.clustered_columns()[0] \
                == [1, 3, 4, 5, 6, 7, 8, 2]
        assert sorts == ["f"]
        feed.load_columns([[9], [0]])  # an append out of order
        feed.clustered_columns()
        feed.clustered_columns()
        assert sorts == ["f", "f"]

    def test_the_sort_rebuilds_the_built_indexes(self, feed, sorts):
        by_id = feed.lookup_index("id")
        by_parent = feed.lookup_index("parent")
        feed.upsert([[2, 3], [6, None]])  # re-parents two rows
        assert by_parent.row_ids((3,)) == [1, 6, 7]
        feed.clustered_columns()
        assert sorts == ["f"]
        assert by_parent.row_ids((3,)) == [5, 6, 7]
        assert by_parent.row_ids((None,)) == [0, 1]
        assert by_id.row_ids((2,)) == [5] and by_id.row_ids((6,)) == [1]
        for index in (by_id, by_parent):
            _assert_answers_like_a_fresh_build(
                index, feed, set(range(10)) | {None}
            )

    def test_swap_remove_sorts_once(self, feed, sorts):
        feed.lookup_index("id")
        feed.delete_where("id", [3])
        assert feed.clustered_columns()[0] == [1, 2, 4, 5, 6, 7, 8]
        assert feed.get_index("id").row_ids((4,)) == [2]
        feed.clustered_columns()
        assert sorts == ["f"]
