"""Optimized XML publishing from relational fragments (after [6]).

Publishing a full document from a fragmentation reads one sorted feed
per fragment table — the paper's per-fragment ``ORDER BY parent, id``
query, here the table's clustered columns, which are stored in that
order — groups each feed by PARENT, and *merges & tags* the feeds into
a single XML document by walking the schema tree: the strategy of
Fernández, Morishima & Suciu that the paper uses as its optimized
publish&map baseline (Section 5.1).

The tagger reads the stored tuples themselves.  A feed's rows under
one PARENT are contiguous, so a group is a ``(start, stop)`` range;
each element is tagged by a plan made once from its fragment's
:class:`~repro.core.columnar.ColumnLayout` — where its key, text and
attribute cells are, and which of its schema children sit in the same
row and which in a child fragment's feed.  No element tree is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.errors import RelationalError
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.xmlkit.escape import escape_attr, escape_text
from repro.xmlkit.writer import DECLARATION

#: How one element is tagged: ``(open tag, attributes, text position,
#: key position, children, close tag)``.  The open tag lacks its ``>``
#: when there are attributes, each an ``(' name="', position)`` pair.
#: A child is ``(its plan, None)`` in the same row, or ``(None, child
#: fragment name)`` for that feed's group under this element's key.
_Plan = tuple

#: One fragment's sorted feed: ``(rows, first row of each PARENT, row
#: past the last of each PARENT, plan of the fragment's root)``.
_Feed = tuple


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


def _plan(mapper: FragmentRelationMapper, element: str) -> _Plan:
    """The tagging plan of ``element`` in its fragment's layout."""
    fragmentation = mapper.fragmentation
    fragment = fragmentation.fragment_of(element)
    key_at, text_at, attr_ats, _ = \
        mapper.layouts[fragment.name].element_cells[element]
    children = tuple(
        (_plan(mapper, child.name), None)
        if child.name in fragment.elements
        else (None, fragmentation.fragment_of(child.name).name)
        for child in fragmentation.schema.node(element).children
    )
    attributes = tuple(
        (f' {attribute}="', at) for attribute, at in attr_ats
    )
    return (f"<{element}" if attributes else f"<{element}>",
            attributes, text_at, key_at, children, f"</{element}>")


def _fetch_feeds(db: Database, mapper: FragmentRelationMapper
                 ) -> dict[str, _Feed]:
    """Every fragment's sorted feed, grouped by PARENT."""
    feeds: dict[str, _Feed] = {}
    for fragment in mapper.fragmentation:
        rows = mapper.scan_fragment_tuples(db, fragment)
        parents = list(map(itemgetter(1), rows))
        count = len(rows)
        feeds[fragment.name] = (
            rows,
            dict(zip(reversed(parents), range(count - 1, -1, -1))),
            dict(zip(parents, range(1, count + 1))),
            _plan(mapper, fragment.root_name),
        )
    return feeds


def _tag(out: list[str], plan: _Plan, cells: tuple,
         feeds: dict[str, _Feed]) -> int:
    """Append the element ``plan`` tags in the row ``cells`` (present:
    its key is not NULL) to ``out``; returns the elements written.

    A module-level function rather than a closure: a closure calling
    itself is a reference cycle, and would keep every feed of a
    publish alive until a cyclic collection."""
    open_tag, attributes, text_at, key_at, children, close_tag = plan
    out.append(open_tag)
    if attributes:
        for prefix, at in attributes:
            value = cells[at]
            if value is not None:
                out.append(f'{prefix}{escape_attr(value)}"')
        out.append(">")
    if text_at is not None:
        text = cells[text_at]
        if text:
            out.append(escape_text(text))
    written = 1
    for child, feed in children:
        if feed is None:
            if cells[child[3]] is not None:
                written += _tag(out, child, cells, feeds)
            continue
        rows, starts, stops, root = feeds[feed]
        key = cells[key_at]
        start = starts.get(key)
        if start is not None:
            for row in rows[start:stops[key]]:
                written += _tag(out, root, row, feeds)
    out.append(close_tag)
    return written


def _roots(mapper: FragmentRelationMapper,
           feeds: dict[str, _Feed]) -> tuple[list[tuple], _Plan]:
    """The stored document roots (the root fragment's parentless rows)
    and their plan."""
    rows, starts, stops, plan = \
        feeds[mapper.fragmentation.root_fragment().name]
    start = starts.get(None)
    return ([] if start is None else rows[start:stops[None]]), plan


def publish_document(db: Database, mapper: FragmentRelationMapper
                     ) -> PublishReport:
    """Publish the full XML document stored under ``mapper``'s
    fragmentation (publish&map steps 1–2: read the feeds, tag).

    Raises:
        RelationalError: if the stored data does not contain exactly one
            document root.
    """
    feeds = _fetch_feeds(db, mapper)
    roots, plan = _roots(mapper, feeds)
    if len(roots) != 1:
        raise RelationalError(
            f"expected exactly one document root, found {len(roots)}"
        )
    out = [DECLARATION]
    _tag(out, plan, roots[0], feeds)
    return PublishReport(
        "".join(out), len(feeds),
        sum(len(feed[0]) for feed in feeds.values()),
    )
