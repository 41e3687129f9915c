"""The whole-document ``compute_delta`` — the test oracle.

This is the body ``repro.core.delta.compute_delta`` had before delta
detection became a closure seeded from the version log (moved here
verbatim): it scans every source fragment, builds the occurrence maps
and the full source-row <-> target-row contribution graph, and closes
over it.  Slow and obviously right, so the seeded closure is held
equal to it (``tests/core/test_delta_properties.py``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

from repro.errors import EndpointError, FragmentationError
from repro.core.delta import DeltaSet
from repro.core.fragment import Fragment
from repro.core.instance import FragmentRow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.services.endpoint import SystemEndpoint


def compute_delta(source: "SystemEndpoint",
                  source_fragments: Sequence[Fragment],
                  target_fragments: Sequence[Fragment],
                  since: int) -> DeltaSet:
    """Derive the :class:`DeltaSet` for one delta run.

    Scans the source instance locally (nothing here crosses the wire
    — the executor re-reads only the filtered feed through
    :class:`DeltaSourceView`), seeds the affected target rows from
    version stamps newer than ``since`` and from tombstones, then
    closes over the source-row ↔ target-row contribution graph so the
    filtered program is orphan-free on every dataplane.

    Raises:
        EndpointError: if ``source`` has no version log.
        FragmentationError: if an occurrence resolves to no target row
            (the target fragmentation does not cover the schema).
    """
    log = getattr(source, "versions", None)
    if log is None:
        raise EndpointError(
            f"endpoint {source.name!r} has no version log; call "
            "enable_versioning() before delta exchange"
        )
    delta = DeltaSet(since=since, high=log.current)

    # One full local scan, stamped with stored versions.
    rows_by_fragment: dict[str, list[FragmentRow]] = {}
    for fragment in source_fragments:
        instance = source.scan(fragment)
        log.stamp_rows(fragment.name, instance.rows)
        rows_by_fragment[fragment.name] = instance.rows

    # Occurrence maps over the current instance: element name, parent
    # occurrence (within-row tree edges plus the cross-row PARENT
    # reference of each row root).
    element_of: dict[int, str] = {}
    parent_of: dict[int, int | None] = {}
    for rows in rows_by_fragment.values():
        for row in rows:
            parent_of[row.data.eid] = row.parent
            for node in row.data.iter_all():
                element_of[node.eid] = node.name
                for group in node.children.values():
                    for child in group:
                        parent_of[child.eid] = node.eid

    target_by_root = {
        fragment.root_name: fragment.name
        for fragment in target_fragments
    }

    # target_of(eid): the target row containing an occurrence — the
    # nearest ancestor-or-self occurrence whose element roots a target
    # fragment.  Memoized along the walked trail.
    target_memo: dict[int, tuple[str, int]] = {}

    def target_of(eid: int) -> tuple[str, int]:
        trail: list[int] = []
        cursor: int | None = eid
        while True:
            if cursor is None:
                raise FragmentationError(
                    f"occurrence {eid} resolves to no target row; the "
                    "target fragmentation does not cover the schema"
                )
            hit = target_memo.get(cursor)
            if hit is not None:
                break
            target_name = target_by_root.get(element_of[cursor])
            if target_name is not None:
                hit = (target_name, cursor)
                target_memo[cursor] = hit
                break
            trail.append(cursor)
            cursor = parent_of.get(cursor)
        for walked in trail:
            target_memo[walked] = hit
        return hit

    # The bipartite contribution graph.
    row_targets: dict[tuple[str, int], set[tuple[str, int]]] = {}
    contributors: dict[tuple[str, int], set[tuple[str, int]]] = {}
    changed: list[tuple[str, int]] = []
    for name, rows in rows_by_fragment.items():
        for row in rows:
            delta.total_rows += 1
            source_key = (name, row.eid)
            targets = {
                target_of(node.eid) for node in row.data.iter_all()
            }
            row_targets[source_key] = targets
            for target_key in targets:
                contributors.setdefault(target_key, set()).add(
                    source_key
                )
            if row.version > since:
                changed.append(source_key)
    delta.changed_rows = len(changed)

    # Seed the affected targets: every target a changed row touches,
    # plus (for deletions) the surviving target row that contained the
    # deleted row.  Target rows rooted *inside* a deleted row are gone
    # outright — they become target deletes.
    affected: set[tuple[str, int]] = set()
    work: deque[tuple[str, int]] = deque()

    def mark(target_key: tuple[str, int]) -> None:
        if target_key not in affected:
            affected.add(target_key)
            work.append(target_key)

    for source_key in changed:
        for target_key in row_targets[source_key]:
            mark(target_key)
    for tombstone in log.tombstones_since(since):
        for occurrence_eid, element in tombstone.occurrences:
            target_name = target_by_root.get(element)
            if target_name is not None:
                delta.deletes.setdefault(target_name, set()).add(
                    occurrence_eid
                )
        if tombstone.parent is not None \
                and tombstone.parent in element_of:
            mark(target_of(tombstone.parent))

    # Fixpoint closure: affected targets pull all their contributing
    # source rows; shipped rows make their other targets affected.
    shipped: set[tuple[str, int]] = set()
    while work:
        target_key = work.popleft()
        for source_key in contributors.get(target_key, ()):
            if source_key in shipped:
                continue
            shipped.add(source_key)
            name, eid = source_key
            delta.ship.setdefault(name, set()).add(eid)
            for other in row_targets[source_key]:
                mark(other)

    for target_name, target_eid in affected:
        delta.affected.setdefault(target_name, set()).add(target_eid)
    # A target row that is rebuilt is not deleted (eid re-creation).
    for target_name, doomed in list(delta.deletes.items()):
        doomed -= delta.affected.get(target_name, set())
        if not doomed:
            del delta.deletes[target_name]
    return delta
