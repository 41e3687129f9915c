"""Relational storage of fragmentations.

A registered (flat-storable) fragmentation maps to one table per
fragment: ``id`` (the fragment root's element id), ``parent`` (the
paper's PARENT attribute), an ``<element>_eid`` key column for every
internal element (document structure is captured through foreign keys,
Section 5), a text column per leaf, and a column per declared XML
attribute.  The mapper moves whole documents and fragment instances in
and out of that schema; ``Scan`` is a ``SELECT * ... ORDER BY parent,
id`` (a sorted feed, as in [5, 6]).
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from repro.errors import RelationalError, TableError
from repro.core.columnar import ColumnBatch, ColumnLayout, ColumnSpec
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.stream import RowBatch
from repro.relational.engine import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType

#: The table layout and the columnar dataplane share one spec type —
#: a fragment's table columns ARE its :class:`~repro.core.columnar.
#: ColumnBatch` columns, in the same order.
_ColumnSpec = ColumnSpec


class _FragmentLayout(ColumnLayout):
    """Column layout of one fragment's table.

    Extends the dataplane's :class:`~repro.core.columnar.ColumnLayout`
    (same specs, same order — that identity is what makes a columnar
    scan a straight slice of the sorted feed and a columnar write a
    straight bulk load) with the table name, DDL generation and the
    row<->occurrence converters of the materialized paths.
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

    # -- ElementData -> row -------------------------------------------------------

    def row_from_occurrence(self, occurrence: ElementData,
                            parent_eid: int | None) -> tuple:
        """Flatten one fragment-root occurrence into a table row."""
        found: dict[str, ElementData] = {}

        def collect(node: ElementData) -> None:
            found[node.name] = node
            for child_name, group in node.children.items():
                if child_name in self.fragment.elements:
                    for child in group:
                        collect(child)

        collect(occurrence)
        values: list[object] = []
        for spec in self.specs:
            if spec.role == "id":
                values.append(occurrence.eid)
            elif spec.role == "parent":
                values.append(parent_eid)
            else:
                node = found.get(spec.element or "")
                if node is None:
                    values.append(None)
                elif spec.role == "eid":
                    values.append(node.eid)
                elif spec.role == "text":
                    values.append(node.text)
                else:
                    values.append(node.attrs.get(spec.attribute or ""))
        return tuple(values)

    # -- row -> ElementData ---------------------------------------------------------

    def occurrence_from_row(self, row: tuple,
                            positions: dict[str, int]
                            ) -> tuple[ElementData, int | None]:
        """Rebuild the nested occurrence (and its PARENT) from a row."""
        by_element_eid: dict[str, object] = {}
        texts: dict[str, str] = {}
        attrs: dict[str, dict[str, str]] = {}
        for spec in self.specs:
            value = row[positions[spec.name]]
            if spec.role in ("id", "eid") and spec.element:
                by_element_eid[spec.element] = value
            elif spec.role == "text" and spec.element:
                if value is not None:
                    texts[spec.element] = str(value)
            elif spec.role == "attr" and spec.element and spec.attribute:
                if value is not None:
                    attrs.setdefault(spec.element, {})[
                        spec.attribute
                    ] = str(value)
        parent_value = row[positions["parent"]]
        parent_eid = None if parent_value is None else int(parent_value)

        def build(element: str) -> ElementData | None:
            eid = by_element_eid.get(element)
            if eid is None:
                return None
            node = ElementData(
                element,
                int(eid),
                dict(attrs.get(element, {})),
                texts.get(element, ""),
            )
            for child in self.fragment.children_of(element):
                built = build(child.name)
                if built is not None:
                    node.add_child(built)
            return node

        root = build(self.fragment.root_name)
        if root is None:
            raise RelationalError(
                f"row in {self.table_name!r} has NULL id"
            )
        return root, parent_eid


class FragmentRelationMapper:
    """Create, populate and scan the tables of one fragmentation."""

    def __init__(self, fragmentation: Fragmentation) -> None:
        self.fragmentation = fragmentation
        self.layouts: dict[str, _FragmentLayout] = {
            fragment.name: _FragmentLayout(fragment)
            for fragment in fragmentation
        }
        # One lock per fragment table: a multi-worker run scans and
        # writes concurrently, and while distinct fragments always hit
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
                    key = f"hash:{column}"
                    if key in table.indexes:
                        table.indexes[key].build(table.rows)
                    else:
                        table.create_index(column, "hash")
                    built += 1
        return built

    # -- loading --------------------------------------------------------------------

    def load_document(self, db: Database, root: ElementData) -> int:
        """Shred an in-memory document straight into the fragment
        tables (initial population of a source system); returns the
        number of rows loaded."""
        buffers: dict[str, list[tuple]] = {
            name: [] for name in self.layouts
        }

        def walk(node: ElementData, parent_eid: int | None) -> None:
            fragment = self.fragmentation.fragment_of(node.name)
            if fragment.root_name == node.name:
                layout = self.layouts[fragment.name]
                buffers[fragment.name].append(
                    layout.row_from_occurrence(node, parent_eid)
                )
            for group in node.children.values():
                for child in group:
                    walk(child, node.eid)

        walk(root, None)
        loaded = 0
        for name, rows in buffers.items():
            loaded += db.load(self.layouts[name].table_name, rows)
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
        flat = [
            layout.row_from_occurrence(row.data, row.parent)
            for row in rows
        ]
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

    # -- scanning ----------------------------------------------------------------------

    def _sorted_feed(self, db: Database, fragment: Fragment
                     ) -> tuple["_FragmentLayout", dict[str, int],
                                list[tuple]]:
        """The raw sorted feed of a fragment's table plus its layout."""
        layout = self.layout_for(fragment)
        with self._table_locks[fragment.name]:
            result = db.execute(
                f"SELECT * FROM {layout.table_name} ORDER BY parent, id"
            )
        positions = {
            name.lower(): index
            for index, name in enumerate(result.columns)
        }
        return layout, positions, result.rows

    def scan_fragment(self, db: Database,
                      fragment: Fragment) -> FragmentInstance:
        """Read a fragment back as a sorted feed (Scan, Def. 3.6)."""
        layout, positions, raw_rows = self._sorted_feed(db, fragment)
        rows = []
        for raw in raw_rows:
            data, parent_eid = layout.occurrence_from_row(raw, positions)
            rows.append(FragmentRow(data, parent_eid))
        return FragmentInstance(fragment, rows)

    def scan_fragment_batches(self, db: Database, fragment: Fragment,
                              batch_rows: int) -> Iterator[RowBatch]:
        """Read a fragment as a stream of batches (streaming Scan).

        The raw tuples come from the same sorted ``SELECT`` as
        :meth:`scan_fragment`, but the nested :class:`ElementData`
        occurrences — the expensive, memory-heavy representation — are
        built lazily one batch at a time, so only ``batch_rows`` worth
        of trees exist per pulled batch.
        """
        layout, positions, raw_rows = self._sorted_feed(db, fragment)

        def generate() -> Iterator[RowBatch]:
            buffer: list[FragmentRow] = []
            seq = 0
            for raw in raw_rows:
                data, parent_eid = layout.occurrence_from_row(
                    raw, positions
                )
                buffer.append(FragmentRow(data, parent_eid))
                if len(buffer) >= batch_rows:
                    yield RowBatch(fragment, buffer, seq)
                    seq += 1
                    buffer = []
            if buffer:
                yield RowBatch(fragment, buffer, seq)

        return generate()

    def scan_fragment_columns(self, db: Database, fragment: Fragment,
                              batch_rows: int
                              ) -> Iterator[ColumnBatch]:
        """Read a fragment as a stream of columnar batches.

        Same sorted ``SELECT`` as :meth:`scan_fragment`, but no trees
        are built at all: the raw tuples are transposed into the
        fragment's column arrays, normalized to the dataplane's cell
        invariant (keys as ``int``/``None``; text of a present element
        is a string — SQL ``NULL`` normalizes to ``""`` exactly as the
        tree round-trip does; cells of absent elements are ``None``).
        """
        layout, positions, raw_rows = self._sorted_feed(db, fragment)
        specs = layout.specs
        # Presence of an element is keyed by its id/eid column.
        key_positions = {
            spec.element: positions[spec.name]
            for spec in specs
            if spec.role in ("id", "eid") and spec.element
        }

        def generate() -> Iterator[ColumnBatch]:
            seq = 0
            for start in range(0, len(raw_rows), batch_rows):
                chunk = raw_rows[start:start + batch_rows]
                columns: list[list] = []
                for spec in specs:
                    at = positions[spec.name]
                    if spec.role == "id":
                        cells: list = []
                        for raw in chunk:
                            value = raw[at]
                            if value is None:
                                raise RelationalError(
                                    f"row in {layout.table_name!r} "
                                    "has NULL id"
                                )
                            cells.append(int(value))
                    elif spec.role in ("parent", "eid"):
                        cells = [
                            None if raw[at] is None else int(raw[at])
                            for raw in chunk
                        ]
                    elif spec.role == "text":
                        key_at = key_positions[spec.element]
                        cells = [
                            None if raw[key_at] is None
                            else "" if raw[at] is None
                            else str(raw[at])
                            for raw in chunk
                        ]
                    else:  # attr
                        key_at = key_positions[spec.element]
                        cells = [
                            None if (raw[key_at] is None
                                     or raw[at] is None)
                            else str(raw[at])
                            for raw in chunk
                        ]
                    columns.append(cells)
                yield ColumnBatch(fragment, columns, seq, layout)
                seq += 1

        return generate()

    def load_columns(self, db: Database, fragment: Fragment,
                     batch: ColumnBatch) -> int:
        """Bulk-load one columnar batch into the fragment's table —
        the per-batch unit of a columnar Write.  The batch's layout
        matches the table's column order by construction, so this is a
        straight transpose-and-load with no tree flattening."""
        layout = self.layout_for(fragment)
        rows = batch.row_tuples()
        with self._table_locks[fragment.name]:
            return db.load(layout.table_name, rows)

    def truncate_all(self, db: Database) -> None:
        """Empty every fragment table (fresh target before a run)."""
        for layout in self.layouts.values():
            db.table(layout.table_name).truncate()
