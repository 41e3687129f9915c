"""Relational storage of fragmentations.

A registered (flat-storable) fragmentation maps to one table per
fragment: ``id`` (the fragment root's element id), ``parent`` (the
paper's PARENT attribute), an ``<element>_eid`` key column for every
internal element (document structure is captured through foreign keys,
Section 5), a text column per leaf, and a column per declared XML
attribute.  The mapper moves whole documents and fragment instances in
and out of that schema.  ``Scan`` is the sorted feed of [5, 6] —
``parent`` (NULLs first), then ``id`` — read straight off the table,
which stores its rows as columns clustered in that order
(:meth:`~repro.relational.table.Table.clustered_columns`): a loaded
document is already in feed order, so a scan is a slice of the stored
columns and runs no SQL and no sort.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from repro.errors import RelationalError, TableError
from repro.core.columnar import ColumnBatch, ColumnLayout
from repro.core.delta import RowKeys
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.relational.engine import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.table import transpose
from repro.relational.types import ColumnType


class _FragmentLayout(ColumnLayout):
    """Column layout of one fragment's table.

    Extends the dataplane's :class:`~repro.core.columnar.ColumnLayout`
    (same specs, same order — that identity is what makes a columnar
    scan a straight slice of the sorted feed and a columnar write a
    straight bulk load, and gives the materialized scan/write the
    same row <-> cells converters) with the table name and DDL
    generation.
    """

    def __init__(self, fragment: Fragment) -> None:
        if not fragment.is_flat_storable():
            raise RelationalError(
                f"fragment {fragment.name!r} has repeated inner elements "
                "and cannot be stored as a flat relation (see DESIGN.md)"
            )
        super().__init__(fragment)
        self.table_name = fragment.name
        names = [spec.name for spec in self.specs]
        if len(names) != len(set(names)):
            raise TableError(
                f"column name collision in fragment {fragment.name!r}: "
                f"{sorted(names)}"
            )

    def table_schema(self) -> TableSchema:
        columns = []
        for spec in self.specs:
            if spec.role in ("id", "parent", "eid"):
                column_type = ColumnType.INTEGER
            else:
                column_type = ColumnType.TEXT
            nullable = spec.role != "id"
            columns.append(Column(spec.name, column_type, nullable))
        return TableSchema(self.table_name, columns, primary_key="id")


class FragmentRelationMapper:
    """Create, populate and scan the tables of one fragmentation."""

    def __init__(self, fragmentation: Fragmentation) -> None:
        self.fragmentation = fragmentation
        self.layouts: dict[str, _FragmentLayout] = {
            fragment.name: _FragmentLayout(fragment)
            for fragment in fragmentation
        }
        # One lock per fragment table: concurrent sessions scan one
        # source together, and while distinct fragments always hit
        # distinct tables, same-table access must serialize.
        self._table_locks: dict[str, threading.Lock] = {
            name: threading.Lock() for name in self.layouts
        }

    def layout_for(self, fragment: Fragment) -> _FragmentLayout:
        """The layout of ``fragment``'s table.

        Raises:
            RelationalError: if the fragment is not part of the
                registered fragmentation.
        """
        try:
            return self.layouts[fragment.name]
        except KeyError as exc:
            raise RelationalError(
                f"fragment {fragment.name!r} is not stored under "
                f"fragmentation {self.fragmentation.name!r}"
            ) from exc

    def table_name(self, fragment: Fragment) -> str:
        """Table that stores ``fragment``."""
        return self.layout_for(fragment).table_name

    # -- DDL ---------------------------------------------------------------------

    def create_tables(self, db: Database) -> None:
        """Create one (empty) table per fragment."""
        for layout in self.layouts.values():
            db.create_table(layout.table_schema())

    def create_indexes(self, db: Database) -> int:
        """Create and build the standard indexes (hash on ``id`` and on
        ``parent``) on every fragment table; returns indexes built.
        This is the separately-timed indexing step of Table 4."""
        built = 0
        for layout in self.layouts.values():
            table = db.table(layout.table_name)
            for column in ("id", "parent"):
                if table.get_index(column) is None:
                    table.lookup_index(column)
                    built += 1
        return built

    # -- loading --------------------------------------------------------------------

    def load_document(self, db: Database, root: ElementData) -> int:
        """Shred an in-memory document straight into the fragment
        tables (initial population of a source system); returns the
        number of rows loaded."""
        buffers: dict[str, list[list]] = {
            name: [] for name in self.layouts
        }

        def walk(node: ElementData, parent_eid: int | None) -> None:
            fragment = self.fragmentation.fragment_of(node.name)
            if fragment.root_name == node.name:
                layout = self.layouts[fragment.name]
                buffers[fragment.name].append(
                    layout.cells_from_row(FragmentRow(node, parent_eid))
                )
            for group in node.children.values():
                for child in group:
                    walk(child, node.eid)

        walk(root, None)
        loaded = 0
        for name, rows in buffers.items():
            layout = self.layouts[name]
            loaded += db.table(layout.table_name).load_columns(
                transpose(rows, len(layout.specs))
            )
        return loaded

    def load_instance(self, db: Database, fragment: Fragment,
                      instance: FragmentInstance) -> int:
        """Bulk-load one fragment instance into its table (Write)."""
        return self.load_rows(db, fragment, instance.rows)

    def load_rows(self, db: Database, fragment: Fragment,
                  rows: Iterable[FragmentRow]) -> int:
        """Bulk-load a slice of a fragment's feed into its table — the
        per-batch unit of a streaming Write."""
        layout = self.layout_for(fragment)
        flat = [tuple(layout.cells_from_row(row)) for row in rows]
        with self._table_locks[fragment.name]:
            return db.load(layout.table_name, flat)

    def delete_rows(self, db: Database, fragment: Fragment,
                    eids: Iterable[int]) -> int:
        """Delete fragment rows by root eid (the ``id`` primary key) —
        the removal half of a delta merge; returns rows removed."""
        layout = self.layout_for(fragment)
        with self._table_locks[fragment.name]:
            return db.table(layout.table_name).delete_where(
                "id", eids
            )

    def merge_rows(self, db: Database, fragment: Fragment,
                   rows: "Iterable[FragmentRow] | ColumnBatch") -> int:
        """Upsert by root eid — the storing half of a delta merge:
        stored ids are replaced in place, new ones appended, the
        table's built indexes patched row by row (no LOAD, so nothing
        goes stale).  A columnar batch goes in as its columns, row
        trees are flattened per row."""
        layout = self.layout_for(fragment)
        with self._table_locks[fragment.name]:
            table = db.table(layout.table_name)
            if isinstance(rows, ColumnBatch):
                return table.upsert_columns(
                    [rows.column(spec.name) for spec in layout.specs]
                )
            return table.upsert(map(layout.cells_from_row, rows))

    # -- keyed reads (delta detection) ---------------------------------------------

    def row_keys(self, db: Database, fragment: Fragment, column: str,
                 values: Iterable[int]) -> list[RowKeys]:
        """The keys of the rows whose key ``column`` — ``id``,
        ``parent`` or an ``<element>_eid`` — holds one of ``values``,
        read through a hash index on that column.  The index is made
        by the first read that needs it: ``id``, ``parent`` and the
        anchor columns child fragments point into, on the tables
        delta detection reads and on no other."""
        layout = self.layout_for(fragment)
        with self._table_locks[fragment.name]:
            table = db.table(layout.table_name)
            stored = table.columns
            ids, parents = stored[0], stored[1]
            plan = [
                (stored[at], name, None if up is None else stored[up])
                for at, name, up in layout.keys
            ]
            return [
                RowKeys(ids[row_id], parents[row_id], tuple([
                    (cells[row_id], name,
                     None if ups is None else ups[row_id])
                    for cells, name, ups in plan
                    if cells[row_id] is not None
                ]))
                for row_id in table.row_ids_where(column, values)
            ]

    # -- scanning ----------------------------------------------------------------------

    def _sorted_columns(self, db: Database, fragment: Fragment,
                        eids: "set[int] | None" = None
                        ) -> tuple["_FragmentLayout", list[list], int]:
        """The fragment's layout, its table's clustered columns (the
        table's columns are the layout's, in order) and their row
        count — the sorted feed.  With ``eids`` the feed of just those
        rows, fetched by id and gathered in the same ``parent`` (NULLs
        first), ``id`` order — work proportional to the answer.  Read
        under the table's lock; the full feed is the table's own
        lists, which the caller copies before letting go of it."""
        layout = self.layout_for(fragment)
        table = db.table(layout.table_name)
        if eids is None:
            columns = table.clustered_columns()
        else:
            columns = table.clustered_columns_where("id", eids)
        return layout, columns, len(columns[0])

    def scan_fragment(self, db: Database,
                      fragment: Fragment) -> FragmentInstance:
        """Read a fragment back as a sorted feed (Scan, Def. 3.6)."""
        return FragmentInstance(
            fragment, map(self.layout_for(fragment).row_from_cells,
                          self.scan_fragment_tuples(db, fragment))
        )

    def scan_fragment_tuples(self, db: Database,
                             fragment: Fragment) -> list[tuple]:
        """The sorted feed as the stored tuples, in the layout's
        column order (``id``, then ``parent``, ...): a copy of the
        table's clustered columns, taken under the table's lock."""
        with self._table_locks[fragment.name]:
            _, columns, _ = self._sorted_columns(db, fragment)
            return list(zip(*columns))

    def scan_fragment_columns(self, db: Database, fragment: Fragment,
                              batch_rows: int,
                              eids: "set[int] | None" = None
                              ) -> Iterator[ColumnBatch]:
        """Read a fragment — or just its rows ``eids`` — as a stream
        of columnar batches, each a slice (a copy) of the table's
        clustered columns; no trees are built at all.

        The stored types already give keys as ``int``/``None`` and
        text as ``str``/``None``; what is left of the dataplane's cell
        invariant (text of a present element is a string — SQL
        ``NULL`` normalizes to ``""`` exactly as the tree round-trip
        does; cells of absent elements are ``None``) is applied only
        to a column that a whole-column test shows needs it.
        """
        with self._table_locks[fragment.name]:
            layout, stored, count = self._sorted_columns(
                db, fragment, eids
            )
            columns = _normalized(layout, stored)
            batches = [
                [cells[start:start + batch_rows] for cells in columns]
                for start in range(0, count, batch_rows)
            ]
        return (
            ColumnBatch(fragment, batch, seq, layout)
            for seq, batch in enumerate(batches)
        )

    def load_columns(self, db: Database, fragment: Fragment,
                     batch: ColumnBatch) -> int:
        """Bulk-load one columnar batch into the fragment's table —
        the per-batch unit of a Write.  The batch's layout matches the
        table's column order by construction, so the columns go to
        :meth:`~repro.relational.table.Table.load_columns` as they
        are: checked and stored a column at a time, no tree
        flattening."""
        layout = self.layout_for(fragment)
        columns = [batch.column(spec.name) for spec in layout.specs]
        with self._table_locks[fragment.name]:
            return db.table(layout.table_name).load_columns(columns)


def _normalized(layout: ColumnLayout, stored: list[list]) -> list[list]:
    """``stored`` (a table's columns) under the dataplane's cell
    invariant: a text cell of a present element is a string (``NULL``
    becomes ``""``), every text and attribute cell of an absent
    element — one whose key cell is ``None`` — is ``None``.  A column
    that already holds this is returned as it is, so only a column
    with a ``None`` where it matters is rebuilt."""
    columns = list(stored)
    for key_at, text_at, attr_ats, _ in layout.element_cells.values():
        keys = stored[key_at]
        absent = None in keys
        if text_at is not None and (absent or None in stored[text_at]):
            columns[text_at] = [
                None if key is None else "" if cell is None else cell
                for key, cell in zip(keys, stored[text_at])
            ]
        if absent:
            for _, at in attr_ats:
                columns[at] = [
                    None if key is None else cell
                    for key, cell in zip(keys, stored[at])
                ]
    return columns
