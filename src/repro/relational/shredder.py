"""Stack-based XML shredding into per-fragment tuple feeds.

This mirrors the paper's Section 5.1 implementation: a SAX handler (the
paper used Expat; we use :mod:`repro.xmlkit.parser`) maintains a stack
of open elements and a stack of open fragment rows; tuples are flushed
as soon as their fragment root closes, so memory stays bounded by
document depth.  Fresh element ids are assigned during the parse — the
published document carries no keys, exactly like the paper's pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RelationalError, SchemaError
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.xmlkit.parser import ContentHandler, push_parse


@dataclass(slots=True)
class ShredResult:
    """Tuples produced by one shred run, per fragment table."""

    rows: dict[str, list[tuple]] = field(default_factory=dict)
    elements_parsed: int = 0

    @property
    def tuple_count(self) -> int:
        """Total tuples across all tables."""
        return sum(len(rows) for rows in self.rows.values())

    def load_into(self, db: Database) -> int:
        """Bulk-load every table's tuples (publish&map step 5)."""
        loaded = 0
        for table_name, rows in self.rows.items():
            loaded += db.load(table_name, rows)
        return loaded


class _ShredHandler(ContentHandler):
    """The SAX callbacks that do the shredding."""

    def __init__(self, mapper: FragmentRelationMapper,
                 start_eid: int = 1) -> None:
        self.mapper = mapper
        self.fragmentation = mapper.fragmentation
        self.schema = mapper.fragmentation.schema
        self.result = ShredResult(
            rows={
                layout.table_name: []
                for layout in mapper.layouts.values()
            }
        )
        self._next_eid = start_eid
        #: Stack of (element name, eid).
        self._elements: list[tuple[str, int]] = []
        #: Per-element text accumulation, parallel to ``_elements``.
        self._texts: list[list[str]] = []
        #: Open row stacks, keyed by fragment name.
        self._open_rows: dict[str, list[dict[str, object]]] = {}

    # -- SAX callbacks ------------------------------------------------------------

    def start_element(self, name: str, attrs: dict[str, str]) -> None:
        if name not in self.schema:
            raise SchemaError(
                f"document element {name!r} is not in the schema"
            )
        eid = self._next_eid
        self._next_eid += 1
        fragment = self.fragmentation.fragment_of(name)
        if fragment.root_name == name:
            parent_eid = self._elements[-1][1] if self._elements else None
            row: dict[str, object] = {"id": eid, "parent": parent_eid}
            self._open_rows.setdefault(fragment.name, []).append(row)
        else:
            row = self._current_row(fragment.name, name)
            row[f"{name.lower()}_eid"] = eid
        for attribute, value in attrs.items():
            row[f"{name.lower()}_{attribute.lower()}"] = value
        self._elements.append((name, eid))
        self._texts.append([])
        self.result.elements_parsed += 1

    def characters(self, text: str) -> None:
        if self._texts:
            self._texts[-1].append(text)

    def end_element(self, name: str) -> None:
        self._elements.pop()
        text = "".join(self._texts.pop()).strip()
        fragment = self.fragmentation.fragment_of(name)
        row = self._current_row(fragment.name, name)
        if self.schema.node(name).is_leaf and text:
            row[name.lower()] = text
        if fragment.root_name == name:
            self._flush(fragment.name)

    # -- internals -------------------------------------------------------------------

    def _current_row(self, fragment_name: str,
                     element: str) -> dict[str, object]:
        stack = self._open_rows.get(fragment_name)
        if not stack:
            raise RelationalError(
                f"element {element!r} appeared outside its fragment "
                f"root ({fragment_name!r})"
            )
        return stack[-1]

    def _flush(self, fragment_name: str) -> None:
        row = self._open_rows[fragment_name].pop()
        layout = self.mapper.layouts[fragment_name]
        self.result.rows[layout.table_name].append(
            tuple(row.get(spec.name) for spec in layout.specs)
        )


def shred_document(text: str, mapper: FragmentRelationMapper,
                   start_eid: int = 1) -> ShredResult:
    """Parse ``text`` and shred it into ``mapper``'s fragment tables'
    tuple format (publish&map step 4).

    ``start_eid`` is the first element id assigned; shredding several
    documents into one store must use disjoint id ranges (see
    :func:`shred_documents`).

    Raises:
        XmlSyntaxError: on malformed XML.
        SchemaError: if the document uses undeclared elements.
    """
    handler = _ShredHandler(mapper, start_eid)
    push_parse(text, handler)
    return handler.result


def shred_documents(texts: "list[str] | tuple[str, ...]",
                    mapper: FragmentRelationMapper) -> ShredResult:
    """Shred a document *set* (one per service result, Section 1.1)
    into one combined result, assigning globally unique element ids."""
    combined = ShredResult(
        rows={
            layout.table_name: []
            for layout in mapper.layouts.values()
        }
    )
    next_eid = 1
    for text in texts:
        result = shred_document(text, mapper, start_eid=next_eid)
        next_eid += result.elements_parsed
        combined.elements_parsed += result.elements_parsed
        for table_name, rows in result.rows.items():
            combined.rows[table_name].extend(rows)
    return combined
