"""Optimized XML publishing from relational fragments (after [6]).

Publishing a full document from a fragmentation reads one sorted feed
per fragment table — the paper's per-fragment ``ORDER BY parent, id``
query, here a scan of the table's columns, which are stored in that
order — groups each feed by PARENT, and *merges & tags* the feeds into
a single XML document by walking the schema tree: the strategy of
Fernández, Morishima & Suciu that the paper uses as its optimized
publish&map baseline (Section 5.1).  The tagger streams through
:class:`~repro.xmlkit.writer.XmlStreamWriter`, so no element tree is
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RelationalError
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.xmlkit.writer import XmlStreamWriter

#: Feed of one fragment grouped by PARENT: parent eid -> occurrences.
GroupedFeed = dict[int | None, list[ElementData]]


@dataclass(slots=True)
class PublishReport:
    """What a publish run produced."""

    document: str
    fragments_queried: int
    rows_merged: int

    @property
    def bytes(self) -> int:
        """Size of the published document."""
        return len(self.document)


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


def _merge_and_tag(fragmentation: Fragmentation,
                   feeds: dict[str, GroupedFeed],
                   root: ElementData) -> str:
    """The document under ``root``, a root-fragment occurrence: each
    occurrence's children come from its own fragment's data or, across
    a fragment boundary, from the child fragment's feed group keyed by
    the occurrence's eid."""
    schema = fragmentation.schema
    writer = XmlStreamWriter()

    def emit(fragment: Fragment, occurrence: ElementData) -> None:
        writer.start(occurrence.name, occurrence.attrs)
        if occurrence.text:
            writer.characters(occurrence.text)
        for child_node in schema.node(occurrence.name).children:
            if child_node.name in fragment.elements:
                for child in occurrence.child_list(child_node.name):
                    emit(fragment, child)
            else:
                child_fragment = fragmentation.fragment_of(
                    child_node.name
                )
                for child in feeds[child_fragment.name].get(
                        occurrence.eid, []):
                    emit(child_fragment, child)
        writer.end(occurrence.name)

    emit(fragmentation.root_fragment(), root)
    return writer.getvalue()


def publish_document(db: Database, mapper: FragmentRelationMapper
                     ) -> PublishReport:
    """Publish the full XML document stored under ``mapper``'s
    fragmentation (publish&map steps 1–2: read the feeds, tag).

    Raises:
        RelationalError: if the stored data does not contain exactly one
            document root.
    """
    fragmentation = mapper.fragmentation
    feeds = fetch_feeds(db, mapper)
    rows_merged = sum(
        len(group) for feed in feeds.values() for group in feed.values()
    )
    roots = feeds[fragmentation.root_fragment().name].get(None, [])
    if len(roots) != 1:
        raise RelationalError(
            f"expected exactly one document root, found {len(roots)} "
            "(use publish_document_set for multi-document services)"
        )
    return PublishReport(
        _merge_and_tag(fragmentation, feeds, roots[0]),
        len(fragmentation.fragments), rows_merged,
    )


def publish_document_set(db: Database,
                         mapper: FragmentRelationMapper
                         ) -> list[PublishReport]:
    """Publish one document per stored root occurrence.

    Services like CustomerInfoService return *a set of XML documents*,
    one per customer (Section 1.1); a store whose root-fragment table
    holds several parentless rows publishes that set.  Feeds are
    fetched once and shared across the documents.
    """
    fragmentation = mapper.fragmentation
    feeds = fetch_feeds(db, mapper)
    reports: list[PublishReport] = []
    for root in feeds[fragmentation.root_fragment().name].get(None, []):
        document = _merge_and_tag(fragmentation, feeds, root)
        reports.append(
            PublishReport(
                document, len(fragmentation.fragments),
                _count_elements(document),
            )
        )
    return reports


def _count_elements(document: str) -> int:
    """Rows merged into one published document (its element count)."""
    from repro.xmlkit.parser import iterparse
    from repro.xmlkit.events import StartElement

    return sum(
        1 for event in iterparse(document)
        if isinstance(event, StartElement)
    )
