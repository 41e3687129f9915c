"""Incremental delta exchange: ship only rows changed since a sync.

A full exchange re-ships the entire source instance even when almost
nothing changed since the previous run.  This module adds the
version-aware machinery that makes repeated synchronization cheap while
keeping the merged target *byte-identical* to a full re-exchange:

* :class:`VersionLog` — a monotone per-endpoint version counter plus
  per-row stamps and delete :class:`Tombstone` records.  Endpoints with
  versioning enabled stamp every scanned :class:`~repro.core.instance.
  FragmentRow` with the version at which it last changed.
* :func:`compute_delta` — given the last synced version, derives the
  :class:`DeltaSet`: which source rows must ship, which target rows
  must be merged (upserted), and which target rows must be deleted.
* :class:`DeltaSourceView` / :class:`DeltaTargetView` — endpoint
  wrappers that filter the scan side to the ship set and turn the
  write side into an eid-keyed merge.  They present the ordinary
  endpoint data interface, so the existing transfer program runs
  unmodified at any worker count and batch size, on columnar and row
  streams alike.

**Why shipping just the changed rows is not enough.**  A changed source
row rebuilds the target rows it contributes to — but those target rows
may also take contributions from *unchanged* source rows (a Combine
attaches child pieces under parent occurrences).  Conversely a shipped
child piece needs its parent piece present or Combine reports orphans.
:func:`compute_delta` therefore closes the changed set over the
bipartite source-row ↔ target-row contribution graph: an affected
target row pulls in all its contributing source rows, and every target
row a shipped source row touches becomes affected in turn.  At the
fixpoint the program sees a self-consistent sub-feed, every produced
target row is in the affected set, and no dataplane can see an orphan.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import EndpointError, FragmentationError
from repro.core.columnar import ColumnBatch
from repro.core.fragment import Fragment
from repro.core.instance import FragmentInstance, FragmentRow
from repro.core.stream import DEFAULT_BATCH_ROWS, FragmentStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.services.endpoint import SystemEndpoint


@dataclass(frozen=True, slots=True)
class Tombstone:
    """Deletion record for one source row.

    ``occurrences`` keeps the ``(eid, element)`` pair of every element
    occurrence the row held when it died: delta computation uses them
    to find the target rows that were rooted inside the deleted row
    (those become target deletes) without needing the data back.
    ``parent`` is the row's PARENT reference at delete time — if that
    occurrence survives, its containing target row lost a child and
    must be rebuilt.
    """

    version: int
    fragment: str
    eid: int
    parent: int | None
    occurrences: tuple[tuple[int, str], ...]


class VersionLog:
    """Monotone version counter plus per-row stamps for one endpoint.

    ``current`` only moves forward; every mutation batch
    (:meth:`~repro.services.endpoint.SystemEndpoint.apply_changes`)
    bumps it once and stamps the touched rows with the new value.
    Thread-safe — endpoints are scanned and mutated from executor
    worker threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self._stamps: dict[str, dict[int, int]] = {}
        self.tombstones: list[Tombstone] = []

    def bump(self) -> int:
        """Advance and return the current version."""
        with self._lock:
            self.current += 1
            return self.current

    def stamp(self, fragment_name: str, eid: int,
              version: int | None = None) -> int:
        """Record that row ``eid`` of ``fragment_name`` last changed at
        ``version`` (default: the current version)."""
        with self._lock:
            value = self.current if version is None else version
            self._stamps.setdefault(fragment_name, {})[eid] = value
            return value

    def version_of(self, fragment_name: str, eid: int) -> int:
        """The stamped version of one row (0 when never stamped)."""
        with self._lock:
            return self._stamps.get(fragment_name, {}).get(eid, 0)

    def stamp_rows(self, fragment_name: str,
                   rows: Iterable[FragmentRow]) -> None:
        """Write the stored stamps onto scanned rows — the feed-side
        version stamping of a versioned endpoint."""
        with self._lock:
            stamps = self._stamps.get(fragment_name, {})
            for row in rows:
                row.version = stamps.get(row.eid, 0)

    def record_delete(self, fragment_name: str, row: FragmentRow,
                      version: int | None = None) -> Tombstone:
        """Tombstone ``row`` (drops its stamp; keeps its occurrence
        eids for delta computation)."""
        occurrences = tuple(
            (node.eid, node.name) for node in row.data.iter_all()
        )
        with self._lock:
            value = self.current if version is None else version
            tombstone = Tombstone(
                value, fragment_name, row.eid, row.parent, occurrences
            )
            self.tombstones.append(tombstone)
            self._stamps.get(fragment_name, {}).pop(row.eid, None)
            return tombstone

    def tombstones_since(self, since: int) -> list[Tombstone]:
        """Tombstones recorded after version ``since``."""
        with self._lock:
            return [
                tombstone for tombstone in self.tombstones
                if tombstone.version > since
            ]


@dataclass(slots=True)
class DeltaSet:
    """What one delta run must ship, merge and delete.

    All three maps are keyed by fragment *name*: ``ship`` holds source
    row eids the program must re-read, ``affected`` the target row eids
    the write side merges (every row the filtered program produces is
    in here, by the closure argument in the module docstring), and
    ``deletes`` the target row eids that vanished at the source.
    """

    since: int
    high: int
    ship: dict[str, set[int]] = field(default_factory=dict)
    affected: dict[str, set[int]] = field(default_factory=dict)
    deletes: dict[str, set[int]] = field(default_factory=dict)
    changed_rows: int = 0
    total_rows: int = 0

    @property
    def shipped_rows(self) -> int:
        """Source rows the filtered scans will produce."""
        return sum(len(eids) for eids in self.ship.values())

    @property
    def deleted_rows(self) -> int:
        """Target rows the merge will delete."""
        return sum(len(eids) for eids in self.deletes.values())

    def is_empty(self) -> bool:
        """Whether nothing changed since ``since``."""
        return not self.ship and not self.deletes


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


class _EndpointView:
    """Delegating endpoint wrapper: everything not delta-related
    (statistics, cost probes, machine profile, ``incremental_writes``)
    passes straight through to the wrapped endpoint."""

    def __init__(self, endpoint: "SystemEndpoint",
                 delta: DeltaSet) -> None:
        self._endpoint = endpoint
        self.delta = delta

    def __getattr__(self, name: str):
        return getattr(self._endpoint, name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self._endpoint!r}>"


class DeltaSourceView(_EndpointView):
    """Source endpoint view producing only the delta's ship set.

    Filtering preserves the stored feed order, so sorted feeds stay
    sorted and the columnar combine's merge-join auto-selection works
    exactly as on a full run.
    """

    def _keep(self, fragment: Fragment) -> set[int]:
        return self.delta.ship.get(fragment.name, set())

    def scan(self, fragment: Fragment) -> FragmentInstance:
        keep = self._keep(fragment)
        instance = self._endpoint.scan(fragment)
        return FragmentInstance(
            fragment,
            [row for row in instance.rows if row.eid in keep],
        )

    def scan_stream(self, fragment: Fragment,
                    batch_rows: int = DEFAULT_BATCH_ROWS
                    ) -> FragmentStream:
        keep = self._keep(fragment)
        inner = self._endpoint.scan_stream(fragment, batch_rows)
        return FragmentStream.from_rows(
            fragment,
            (row for batch in inner for row in batch.rows
             if row.eid in keep),
            batch_rows,
        )

    def scan_stream_columnar(self, fragment: Fragment,
                             batch_rows: int = DEFAULT_BATCH_ROWS
                             ) -> FragmentStream:
        keep = self._keep(fragment)
        inner = self._endpoint.scan_stream_columnar(
            fragment, batch_rows
        )

        def generate() -> Iterator[ColumnBatch]:
            seq = 0
            for batch in inner:
                filtered = _filter_column_batch(batch, keep, seq)
                if filtered is not None:
                    yield filtered
                    seq += 1

        return FragmentStream(fragment, generate())


def _filter_column_batch(batch: ColumnBatch, keep: set[int],
                         seq: int) -> ColumnBatch | None:
    """Select the batch rows whose ``id`` is in ``keep`` (None when
    none survive — empty batches are simply skipped)."""
    ids = batch.column("id")
    positions = [
        index for index, eid in enumerate(ids) if eid in keep
    ]
    if not positions:
        return None
    if len(positions) == len(ids):
        return ColumnBatch(
            batch.fragment, [batch.column(spec.name)
                             for spec in batch.layout.specs],
            seq, batch.layout,
        )
    columns: list[list] = []
    for spec in batch.layout.specs:
        cells = batch.column(spec.name)
        columns.append([cells[index] for index in positions])
    return ColumnBatch(batch.fragment, columns, seq, batch.layout)


class DeltaTargetView(_EndpointView):
    """Target endpoint view that merges instead of appending.

    Every write becomes an eid-keyed upsert restricted to the delta's
    affected rows (by the closure argument the filter is a no-op on a
    correct program — it is kept as the write-side safety discipline).
    Target-row deletes are applied by the exchange service before the
    program runs, not here.
    """

    def _wanted(self, fragment: Fragment) -> set[int]:
        return self.delta.affected.get(fragment.name, set())

    def write(self, fragment: Fragment,
              instance: FragmentInstance) -> None:
        wanted = self._wanted(fragment)
        self._endpoint.merge_rows(
            fragment,
            [row for row in instance.rows if row.eid in wanted],
        )

    def write_stream(self, fragment: Fragment,
                     stream: FragmentStream) -> None:
        wanted = self._wanted(fragment)
        for batch in stream:
            rows = [row for row in batch.rows if row.eid in wanted]
            if rows:
                self._endpoint.merge_rows(fragment, rows)


def instance_digest(instance: FragmentInstance) -> str:
    """Canonical content digest of one fragment instance.

    Rows are digested in sorted-feed order (the canonical order the
    paper ships), so append-order differences between a delta merge
    and a full rewrite do not register.
    """
    from repro.xmlkit.writer import serialize

    canonical = FragmentInstance(instance.fragment,
                                 list(instance.rows))
    canonical.sort()
    digest = hashlib.sha256()
    for document in canonical.to_xml_documents():
        digest.update(serialize(document, indent=None).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def endpoint_digest(endpoint: "SystemEndpoint",
                    fragments: Iterable[Fragment]) -> str:
    """Content digest of an endpoint's stored fragments — the
    byte-identity yardstick: a delta-merged target must digest equal
    to a freshly full-exchanged one."""
    digest = hashlib.sha256()
    for fragment in sorted(fragments, key=lambda f: f.name):
        digest.update(fragment.name.encode() + b"\x00")
        digest.update(
            instance_digest(endpoint.scan(fragment)).encode()
        )
    return digest.hexdigest()
