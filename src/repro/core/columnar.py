"""Columnar fragment batches: the one batch type of the dataplane.

A fragment whose repeated elements are all fragment roots
(:meth:`~repro.core.fragment.Fragment.is_flat_storable`) spends its
whole journey tabular — it comes out of a relational sorted feed and
goes back into a relational bulk load — so the execution core moves it
as a :class:`ColumnBatch`: one parallel array per column of the
fragment's relational layout — ``id``, ``parent``, an
``<element>_eid`` key per non-root element, a text column per leaf, a
column per XML attribute — in exactly the order
:class:`~repro.relational.frag_store.FragmentRelationMapper` stores
them, so a scan is a slice of the raw sorted feed and a write is a
straight bulk load.  ``Combine`` is a build/probe join on the key
columns, ``Split`` a column projection; no trees are built anywhere in
between.  A fragment with repeated inner elements, which only
in-memory and directory endpoints hold, moves as the column batches of
its flat parts (:meth:`~repro.core.fragment.Fragment.flat_parts`),
keyed to each other by ID/PARENT.

Invariant: column cells hold the values a tree store round-trips —
text cells of present elements are strings without leading or
trailing whitespace (SQL ``NULL`` normalizes to ``""``, and the
shredder and the tuple-feed writer strip text alike), cells of absent
elements (every column of an element whose key cell is ``None``, and
of its descendants) are ``None``.  That is what keeps a load from
trees and a load from shredded text byte-identical.

One size is measured on a batch: :meth:`~ColumnBatch.feed_size`, the
tabular sorted-feed (wire) estimate a byte-counting channel charges
for a shipped batch.  It is one pass per column, taken on first use,
and agrees exactly with the per-row formula
(:func:`~repro.core.instance.row_feed_size`).  Slicing is zero-copy: a
slice shares the parent's column lists and narrows ``start``/``stop``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OperationError
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentRow


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """How one column relates to the fragment's elements.

    Roles: ``id`` (fragment-root key), ``parent`` (the PARENT
    reference), ``eid`` (a non-root element's key), ``text`` (a leaf's
    character content), ``attr`` (one declared XML attribute).
    """

    name: str
    role: str  # "id" | "parent" | "eid" | "text" | "attr"
    element: str | None = None
    attribute: str | None = None


class ColumnLayout:
    """The column layout of one (flat-storable) fragment.

    Column order is deterministic from the fragment alone — ``id``,
    ``parent``, then per element in schema pre-order: its ``eid`` key
    (non-root elements), its text (leaves), its attributes.  The
    relational mapper derives its table layout from this same class,
    so a source scan, every combine/split along the program, and the
    target load all agree on positions without negotiation.

    Raises:
        OperationError: if the fragment has repeated inner elements —
            such fragments do not flatten to one row per occurrence
            and travel as their flat parts.
    """

    __slots__ = ("fragment", "specs", "positions", "keys",
                 "element_cells")

    def __init__(self, fragment: Fragment) -> None:
        if not fragment.is_flat_storable():
            raise OperationError(
                f"fragment {fragment.name!r} has repeated inner "
                "elements and no flat column layout (it travels as "
                "its flat parts)"
            )
        self.fragment = fragment
        specs: list[ColumnSpec] = [
            ColumnSpec("id", "id", fragment.root_name),
            ColumnSpec("parent", "parent"),
        ]
        schema = fragment.schema
        for node in schema.iter_nodes():
            element = node.name
            if element not in fragment.elements:
                continue
            if element != fragment.root_name:
                specs.append(
                    ColumnSpec(f"{element.lower()}_eid", "eid", element)
                )
            if node.is_leaf:
                specs.append(
                    ColumnSpec(element.lower(), "text", element)
                )
            for attribute in node.attributes:
                specs.append(
                    ColumnSpec(
                        f"{element.lower()}_{attribute.lower()}",
                        "attr", element, attribute,
                    )
                )
        self.specs = specs
        self.positions = {
            spec.name: index for index, spec in enumerate(specs)
        }
        #: The key columns in schema pre-order (the root's ``id``
        #: first) as ``(position, element, position of the key of the
        #: element's parent in the fragment)`` — the last ``None`` at
        #: the root.  What a stored tuple's occurrences are read off.
        self.keys = [
            (
                self.positions[self.eid_column(spec.element)],
                spec.element,
                None if spec.role == "id" else self.positions[
                    self.eid_column(schema.parent_name(spec.element))
                ],
            )
            for spec in specs if spec.role in ("id", "eid")
        ]
        #: Per element, where its cells are: key position, text
        #: position (``None`` off the leaves), ``(attribute,
        #: position)`` pairs, child elements in schema order — what
        #: :meth:`row_from_cells` and the wire codec
        #: (:mod:`repro.net.soap`) read an occurrence off.
        self.element_cells = {
            element: (
                self.positions[self.eid_column(element)],
                self.positions[element.lower()]
                if schema.node(element).is_leaf else None,
                [(spec.attribute, self.positions[spec.name])
                 for spec in specs
                 if spec.role == "attr" and spec.element == element],
                [child.name for child in fragment.children_of(element)],
            )
            for element in fragment.elements
        }

    def __len__(self) -> int:
        return len(self.specs)

    def eid_column(self, element: str) -> str:
        """Name of the column keying ``element``'s occurrences."""
        if element == self.fragment.root_name:
            return "id"
        return f"{element.lower()}_eid"

    # -- row <-> cells --------------------------------------------------------

    def cells_from_row(self, row: FragmentRow) -> list[object]:
        """Flatten one row's tree into this layout's cells, leaf text
        stripped of leading and trailing whitespace (as the shredder
        stores it); attribute values stay as they are."""
        found: dict[str, ElementData] = {}
        elements = self.fragment.elements

        def collect(node: ElementData) -> None:
            found[node.name] = node
            for child_name, group in node.children.items():
                if child_name in elements:
                    for child in group:
                        collect(child)

        collect(row.data)
        cells: list[object] = []
        for spec in self.specs:
            if spec.role == "id":
                cells.append(row.data.eid)
            elif spec.role == "parent":
                cells.append(row.parent)
            else:
                node = found.get(spec.element or "")
                if node is None:
                    cells.append(None)
                elif spec.role == "eid":
                    cells.append(node.eid)
                elif spec.role == "text":
                    cells.append(node.text.strip())
                else:
                    cells.append(node.attrs.get(spec.attribute or ""))
        return cells

    def row_from_cells(self, cells: "list[object] | tuple") -> FragmentRow:
        """Rebuild the nested occurrence from one row of cells (a
        batch's row, or a stored tuple of the fragment's table)."""
        elements = self.element_cells

        def build(element: str) -> ElementData | None:
            eid_at, text_at, attr_ats, children = elements[element]
            eid = cells[eid_at]
            if eid is None:
                return None
            text = None if text_at is None else cells[text_at]
            data = ElementData(
                element, int(eid),
                {attribute: str(cells[at]) for attribute, at in attr_ats
                 if cells[at] is not None},
                "" if text is None else str(text),
            )
            for child in children:
                built = build(child)
                if built is not None:
                    data.add_child(built)
            return data

        root = build(self.fragment.root_name)
        if root is None:
            raise OperationError(
                f"columnar row of {self.fragment.name!r} has NULL id"
            )
        parent = cells[self.positions["parent"]]
        return FragmentRow(root, None if parent is None else int(parent))


#: Shared layout cache — layouts are pure functions of the fragment.
_LAYOUTS: dict[Fragment, ColumnLayout] = {}


def layout_of(fragment: Fragment) -> ColumnLayout:
    """The (cached) column layout of ``fragment``."""
    layout = _LAYOUTS.get(fragment)
    if layout is None:
        layout = _LAYOUTS[fragment] = ColumnLayout(fragment)
    return layout


class ColumnBatch:
    """An ordered slice of a flat fragment's feed, column-wise.

    What the pipeline reads off a batch — ``fragment``/``seq``/
    ``row_count``/``feed_size`` — is columnar; a lazily materialized
    ``rows`` view serves the stores that hold trees.  The wire does
    not need the row view: a channel encodes the cells and a receiver
    decodes into columns (:mod:`repro.net.soap`).
    """

    __slots__ = ("fragment", "layout", "columns", "seq", "start",
                 "stop", "_rows", "_feed")

    def __init__(self, fragment: Fragment, columns: list[list],
                 seq: int | None, layout: ColumnLayout | None = None,
                 start: int = 0, stop: int | None = None) -> None:
        self.fragment = fragment
        self.layout = layout or layout_of(fragment)
        if len(columns) != len(self.layout.specs):
            raise OperationError(
                f"fragment {fragment.name!r} expects "
                f"{len(self.layout.specs)} columns, got {len(columns)}"
            )
        self.columns = columns
        self.seq = seq
        self.start = start
        self.stop = len(columns[0]) if stop is None else stop
        self._rows: list[FragmentRow] | None = None
        self._feed: int | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, fragment: Fragment, rows: "list[FragmentRow]",
                  seq: int | None) -> "ColumnBatch":
        """Flatten row trees into columns (the row→columnar bridge)."""
        layout = layout_of(fragment)
        width = len(layout.specs)
        columns: list[list] = [[] for _ in range(width)]
        for row in rows:
            cells = layout.cells_from_row(row)
            for index in range(width):
                columns[index].append(cells[index])
        return cls(fragment, columns, seq, layout)

    def column(self, name: str) -> list:
        """The cells of column ``name`` for this slice's rows.

        A full-range batch returns the underlying array itself
        (zero-copy); a narrowed view pays one list slice.
        """
        return self._cells(self.layout.positions[name])

    def _cells(self, position: int) -> list:
        cells = self.columns[position]
        if self.start == 0 and self.stop == len(cells):
            return cells
        return cells[self.start:self.stop]

    # -- the batch surface ------------------------------------------------------

    def row_count(self) -> int:
        """Number of fragment-root occurrences in the slice."""
        return self.stop - self.start

    __len__ = row_count

    def where_id_in(self, keep: "set[int]") -> "ColumnBatch":
        """The rows whose ``id`` is in ``keep``, in order — this batch
        itself when that is all of them, else their cells gathered
        into a new one."""
        ids = self.column("id")
        positions = [
            index for index, eid in enumerate(ids) if eid in keep
        ]
        if len(positions) == len(ids):
            return self
        return ColumnBatch(
            self.fragment,
            [[cells[index] for index in positions]
             for cells in map(self._cells, range(len(self.columns)))],
            self.seq, self.layout,
        )

    def rebind(self, columns: list[list]) -> None:
        """Point this batch at ``columns``, one cell per row of it: the
        batch becomes a whole-range view of them.

        The wire hands on what crossed this way — the encoder rebinds
        copies of the columns whose cells it normalised, a
        self-receiving channel the columns it decoded — and the feed
        size is measured again on use.  The lists the batch pointed at
        before are left as they were: sibling slices and the store may
        share them.

        Raises:
            OperationError: if ``columns`` does not fit the layout or
                holds another number of rows.
        """
        count = self.row_count()
        if len(columns) != len(self.columns) \
                or any(len(cells) != count for cells in columns):
            raise OperationError(
                f"cannot rebind {count} rows of {self.fragment.name!r} "
                f"to columns of other shape"
            )
        self.columns = columns
        self.start, self.stop = 0, count
        self._rows = self._feed = None

    @property
    def rows(self) -> list[FragmentRow]:
        """Materialized row view (built once, cached) — the bridge
        back to the stores that hold trees."""
        if self._rows is None:
            layout = self.layout
            width = len(layout.specs)
            self._rows = [
                layout.row_from_cells(
                    [self.columns[col][index] for col in range(width)]
                )
                for index in range(self.start, self.stop)
            ]
        return self._rows

    # -- wire size -------------------------------------------------------------

    def feed_size(self) -> int:
        """Approximate tabular sorted-feed (wire) size in bytes —
        agrees with :func:`~repro.core.instance.row_feed_size`: the
        PARENT key of every row, key and separators per present
        element, and the characters of text and attribute values.

        Measured once, one pass per column.  Text and attribute cells
        are strings or ``None`` (the relational store's typed columns
        and :meth:`from_rows` keep them so); a column holding a truthy
        value of another type is measured by its cells' ``str()``
        form instead, while one whose only non-strings are falsy (a
        ``0``) passes them over like ``""``."""
        if self._feed is None:
            total = 8 * self.row_count()  # the PARENT key per row
            for position, spec in enumerate(self.layout.specs):
                role = spec.role
                if role == "parent":
                    continue
                cells = self._cells(position)
                if role in ("id", "eid"):
                    total += 10 * (len(cells) - cells.count(None))
                    continue
                try:
                    # filter(None) also drops "", which weighs nothing.
                    total += sum(map(len, filter(None, cells)))
                except TypeError:
                    total += sum(len(str(cell)) for cell in cells
                                 if cell is not None)
            self._feed = total
        return self._feed
