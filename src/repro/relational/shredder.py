"""Stack-based XML shredding into per-fragment tuple feeds.

This mirrors the paper's Section 5.1 implementation: a SAX-style pass
(the paper used Expat; we read :func:`repro.xmlkit.parser.tokens`)
keeps a stack of open elements and a stack of open fragment rows;
tuples are flushed as soon as their fragment root closes, so memory
stays bounded by document depth.  Fresh element ids are assigned
during the parse — the published document carries no keys, exactly
like the paper's pipeline.

Every element name resolves once, through a dispatch table made per
schema from the fragment layouts, to where its cells go: its
fragment's open rows, whether it is that fragment's root, its key,
text and attribute positions.  An open row is a preallocated cell
list in the table's column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RelationalError, SchemaError
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.table import transpose
from repro.xmlkit.parser import END, START, TEXT, tokens

#: Where one element's cells go: ``(open rows of its fragment, row
#: width, key position or None at the fragment root, text position or
#: None off the leaves, attribute -> position, flushed tuples of its
#: table, fragment name)``.
_Dispatch = tuple


@dataclass(slots=True)
class ShredResult:
    """Tuples produced by one shred run, per fragment table."""

    rows: dict[str, list[tuple]] = field(default_factory=dict)
    elements_parsed: int = 0

    def load_into(self, db: Database) -> int:
        """Bulk-load every table's tuples a column at a time
        (publish&map step 5), with every check a row load makes."""
        loaded = 0
        for table_name, rows in self.rows.items():
            table = db.table(table_name)
            loaded += table.load_columns(
                transpose(rows, len(table.schema.columns))
            )
        return loaded


def _shredding(mapper: FragmentRelationMapper
               ) -> tuple[ShredResult, dict[str, _Dispatch]]:
    """An empty result and, per element of the schema, where its cells
    go; tuples are flushed into the result."""
    tables: dict[str, list[tuple]] = {
        layout.table_name: [] for layout in mapper.layouts.values()
    }
    dispatch: dict[str, _Dispatch] = {}
    for layout in mapper.layouts.values():
        open_rows: list[list] = []
        root = layout.fragment.root_name
        for element, (key_at, text_at, attr_ats, _) in \
                layout.element_cells.items():
            dispatch[element] = (
                open_rows, len(layout.specs),
                None if element == root else key_at,
                text_at, dict(attr_ats), tables[layout.table_name],
                layout.fragment.name,
            )
    return ShredResult(tables), dispatch


def _shred(text: str, dispatch: dict[str, _Dispatch],
           start_eid: int) -> int:
    """Shred ``text`` through ``dispatch``, numbering elements from
    ``start_eid``; returns how many elements it parsed."""
    eid = start_eid
    # Open elements, innermost last: (dispatch entry, its fragment
    # row's cells, its eid, its text parts — None off the leaves).
    stack: list[tuple] = []
    for kind, name, attrs in tokens(text):
        if kind == START:
            entry = dispatch.get(name)
            if entry is None:
                raise SchemaError(
                    f"document element {name!r} is not in the schema"
                )
            open_rows, width, key_at, text_at, attr_ats, _, fragment = \
                entry
            if key_at is None:
                cells = [None] * width
                cells[0] = eid
                cells[1] = stack[-1][2] if stack else None
                open_rows.append(cells)
            elif open_rows:
                cells = open_rows[-1]
                cells[key_at] = eid
            else:
                raise RelationalError(
                    f"element {name!r} appeared outside its fragment "
                    f"root ({fragment!r})"
                )
            if attrs:
                for attribute, value in attrs.items():
                    at = attr_ats.get(attribute)
                    if at is None:
                        raise SchemaError(
                            f"document element {name!r} has undeclared "
                            f"attribute {attribute!r}"
                        )
                    cells[at] = value
            stack.append(
                (entry, cells, eid, None if text_at is None else [])
            )
            eid += 1
        elif kind == END:
            entry, cells, _, parts = stack.pop()
            if parts is not None:
                # A present leaf with no text holds "", as a loaded
                # row and a tuple feed hold it; NULL means absent.
                cells[entry[3]] = "".join(parts).strip()
            if entry[2] is None:
                entry[5].append(tuple(entry[0].pop()))
        elif kind == TEXT:
            parts = stack[-1][3]
            if parts is not None:
                parts.append(name)
    return eid - start_eid


def shred_document(text: str, mapper: FragmentRelationMapper,
                   start_eid: int = 1) -> ShredResult:
    """Parse ``text`` and shred it into ``mapper``'s fragment tables'
    tuple format (publish&map step 4).

    ``start_eid`` is the first element id assigned; shredding several
    documents into one store must use disjoint id ranges.

    Raises:
        XmlSyntaxError: on malformed XML.
        SchemaError: if the document uses undeclared elements or
            attributes.
        RelationalError: if an element appears outside its fragment's
            root.
    """
    result, dispatch = _shredding(mapper)
    result.elements_parsed = _shred(text, dispatch, start_eid)
    return result
