"""Tree-based publish & shred: the oracles of the column tagger and the
dispatch shredder.

The publisher here rebuilds every stored row as an
:class:`~repro.core.instance.ElementData` tree (``scan_fragment``),
groups the trees by PARENT and tags them by walking the schema; the
shredder is a SAX handler driven by ``push_parse``.  Both are the
straightforward reading of Section 5.1, independent of the plans and
dispatch tables ``repro.relational`` runs, so the differential tests
(``test_publish_shred_oracle.py``) can hold the fast paths to them byte
for byte and tuple for tuple.
"""

from __future__ import annotations

from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData
from repro.errors import RelationalError, SchemaError
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.xmlkit.escape import escape_attr, escape_text
from repro.xmlkit.parser import ContentHandler, push_parse

#: Feed of one fragment grouped by PARENT: parent eid -> occurrences.
GroupedFeed = dict[int | None, list[ElementData]]


def fetch_feeds(db: Database, mapper: FragmentRelationMapper
                ) -> dict[str, GroupedFeed]:
    """Scan every fragment's table in (parent, id) order and group
    each feed by PARENT."""
    feeds: dict[str, GroupedFeed] = {}
    for fragment in mapper.fragmentation:
        grouped: GroupedFeed = {}
        instance = mapper.scan_fragment(db, fragment)
        for row in instance.rows:
            grouped.setdefault(row.parent, []).append(row.data)
        feeds[fragment.name] = grouped
    return feeds


def merge_and_tag(fragmentation: Fragmentation,
                  feeds: dict[str, GroupedFeed],
                  root: ElementData) -> str:
    """The document under ``root``, a root-fragment occurrence: each
    occurrence's children come from its own fragment's data or, across
    a fragment boundary, from the child fragment's feed group keyed by
    the occurrence's eid."""
    schema = fragmentation.schema
    out = ['<?xml version="1.0"?>']

    def emit(fragment: Fragment, occurrence: ElementData) -> None:
        out.append(f"<{occurrence.name}")
        for key, value in occurrence.attrs.items():
            out.append(f' {key}="{escape_attr(value)}"')
        out.append(">")
        if occurrence.text:
            out.append(escape_text(occurrence.text))
        for child_node in schema.node(occurrence.name).children:
            if child_node.name in fragment.elements:
                for child in occurrence.children.get(child_node.name, []):
                    emit(fragment, child)
            else:
                child_fragment = fragmentation.fragment_of(
                    child_node.name
                )
                for child in feeds[child_fragment.name].get(
                        occurrence.eid, []):
                    emit(child_fragment, child)
        out.append(f"</{occurrence.name}>")

    emit(fragmentation.root_fragment(), root)
    return "".join(out)


def tree_publish_document(db: Database,
                          mapper: FragmentRelationMapper) -> str:
    """The one stored document, tagged from trees.

    Raises:
        RelationalError: unless exactly one document root is stored.
    """
    fragmentation = mapper.fragmentation
    feeds = fetch_feeds(db, mapper)
    roots = feeds[fragmentation.root_fragment().name].get(None, [])
    if len(roots) != 1:
        raise RelationalError(
            f"expected exactly one document root, found {len(roots)}"
        )
    return merge_and_tag(fragmentation, feeds, roots[0])


def tree_publish_document_set(db: Database,
                              mapper: FragmentRelationMapper
                              ) -> list[str]:
    """One document per stored root occurrence, tagged from trees."""
    fragmentation = mapper.fragmentation
    feeds = fetch_feeds(db, mapper)
    return [
        merge_and_tag(fragmentation, feeds, root)
        for root in feeds[fragmentation.root_fragment().name].get(None, [])
    ]


class ShredHandler(ContentHandler):
    """The SAX callbacks that shred: a stack of open elements, one of
    open rows per fragment, a row dict keyed by column name."""

    def __init__(self, mapper: FragmentRelationMapper,
                 start_eid: int = 1) -> None:
        self.mapper = mapper
        self.fragmentation = mapper.fragmentation
        self.schema = mapper.fragmentation.schema
        self.rows: dict[str, list[tuple]] = {
            layout.table_name: [] for layout in mapper.layouts.values()
        }
        self.elements_parsed = 0
        self._next_eid = start_eid
        #: Stack of (element name, eid).
        self._elements: list[tuple[str, int]] = []
        #: Per-element text accumulation, parallel to ``_elements``.
        self._texts: list[list[str]] = []
        #: Open row stacks, keyed by fragment name.
        self._open_rows: dict[str, list[dict[str, object]]] = {}

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
        self.elements_parsed += 1

    def characters(self, text: str) -> None:
        if self._texts:
            self._texts[-1].append(text)

    def end_element(self, name: str) -> None:
        self._elements.pop()
        text = "".join(self._texts.pop()).strip()
        fragment = self.fragmentation.fragment_of(name)
        row = self._current_row(fragment.name, name)
        if self.schema.node(name).is_leaf:
            row[name.lower()] = text
        if fragment.root_name == name:
            row = self._open_rows[fragment.name].pop()
            layout = self.mapper.layouts[fragment.name]
            self.rows[layout.table_name].append(
                tuple(row.get(spec.name) for spec in layout.specs)
            )

    def _current_row(self, fragment_name: str,
                     element: str) -> dict[str, object]:
        stack = self._open_rows.get(fragment_name)
        if not stack:
            raise RelationalError(
                f"element {element!r} appeared outside its fragment "
                f"root ({fragment_name!r})"
            )
        return stack[-1]


def tree_shred_document(text: str, mapper: FragmentRelationMapper,
                        start_eid: int = 1) -> ShredHandler:
    """Shred ``text`` through the SAX handler; the handler holds the
    tuples (``rows``) and the element count."""
    handler = ShredHandler(mapper, start_eid)
    push_parse(text, handler)
    return handler
