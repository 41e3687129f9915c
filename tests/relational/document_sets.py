"""Multi-document publish and shred: a service result that is a *set*
of XML documents, one per customer (Section 1.1), built from the
single-document publisher's and shredder's own steps."""

from __future__ import annotations

from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.publisher import PublishReport, _fetch_feeds, _roots, _tag
from repro.relational.shredder import ShredResult, _shred, _shredding
from repro.xmlkit.writer import DECLARATION


def publish_document_set(db: Database,
                         mapper: FragmentRelationMapper
                         ) -> list[PublishReport]:
    """Publish one document per stored root occurrence.

    Feeds are fetched once and shared across the documents; each
    report's ``rows_merged`` is the elements its document holds.
    """
    feeds = _fetch_feeds(db, mapper)
    roots, plan = _roots(mapper, feeds)
    reports: list[PublishReport] = []
    for root in roots:
        out = [DECLARATION]
        written = _tag(out, plan, root, feeds)
        reports.append(PublishReport("".join(out), len(feeds), written))
    return reports


def shred_documents(texts: "list[str] | tuple[str, ...]",
                    mapper: FragmentRelationMapper) -> ShredResult:
    """Shred a document set into one combined result, assigning
    globally unique element ids."""
    result, dispatch = _shredding(mapper)
    for text in texts:
        result.elements_parsed += _shred(
            text, dispatch, 1 + result.elements_parsed
        )
    return result


def tuple_count(result: ShredResult) -> int:
    """Total tuples across all tables of a shred result."""
    return sum(len(rows) for rows in result.rows.values())
