"""Incremental delta exchange: ship only rows changed since a sync.

A full exchange re-ships the entire source instance even when almost
nothing changed since the previous run.  This module adds the
version-aware machinery that makes repeated synchronization cheap while
keeping the merged target *byte-identical* to a full re-exchange:

* :class:`VersionLog` — a monotone per-endpoint version counter, a
  version-ordered list of row changes and one of delete
  :class:`Tombstone` records.  "What changed since version *v*" is a
  bisect into those lists, not a pass over the stored rows.
* :func:`compute_delta` — given the last synced version, derives the
  :class:`DeltaSet`: which source rows must ship, which target rows
  must be merged (upserted), and which target rows must be deleted.
* :class:`DeltaSourceView` / :class:`DeltaTargetView` — endpoint
  wrappers that restrict the scan side to the ship set and turn the
  write side into an eid-keyed merge.  They present the ordinary
  endpoint data interface, so the existing transfer program runs
  unmodified at any batch size, on columnar and row
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

**What the closure costs.**  The graph is never built.  It is walked
from the changed rows through the keys every stored row carries — its
``id``, its ``PARENT`` reference and the eid of each element occurrence
inside it (:class:`RowKeys`) — over the endpoint's keyed lookups
(:meth:`~repro.services.endpoint.SystemEndpoint.rows_by_id`,
``rows_by_parent``, ``row_holding``), so a delta round reads the rows
it ships and the rows that anchor them, not the document.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.errors import EndpointError, FragmentationError
from repro.core.fragment import Fragment
from repro.core.instance import FragmentInstance, FragmentRow
from repro.core.stream import (
    DEFAULT_BATCH_ROWS,
    FragmentStream,
    combine_parts,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.services.endpoint import SystemEndpoint


class RowKeys(NamedTuple):
    """The keys of one stored row — all that delta detection reads.

    ``occurrences`` lists every element occurrence inside the row in
    pre-order as ``(eid, element, up)``, ``up`` being the eid of the
    occurrence's parent *within the row* (``None`` for the row root,
    whose parent is the cross-row ``parent`` reference).  A relational
    endpoint fills it from the row's ``id`` / ``<element>_eid`` cells;
    an endpoint that holds trees, from the tree (:meth:`of_row`).
    """

    eid: int
    parent: int | None
    occurrences: tuple[tuple[int, str, int | None], ...]

    @classmethod
    def of_row(cls, row: FragmentRow) -> "RowKeys":
        """The keys of a row held as an occurrence tree."""
        occurrences = []
        stack: list[tuple] = [(row.data, None)]
        while stack:
            node, up = stack.pop()
            occurrences.append((node.eid, node.name, up))
            for group in node.children.values():
                stack.extend(
                    (child, node.eid) for child in reversed(group)
                )
        return cls(row.data.eid, row.parent, tuple(occurrences))


@dataclass(frozen=True, slots=True)
class Tombstone:
    """Deletion record for one source row.

    ``occurrences`` keeps the ``(eid, element)`` pair of every element
    occurrence the row held when it died (the row root first): delta
    computation uses them to find the target rows that were rooted
    inside the deleted row (those become target deletes) without
    needing the data back.  ``parent`` is the row's PARENT reference at
    delete time — if that occurrence survives, its containing target
    row lost a child and must be rebuilt.
    """

    version: int
    fragment: str
    eid: int
    parent: int | None
    occurrences: tuple[tuple[int, str], ...]


_VERSION_OF_CHANGE = itemgetter(0)
_VERSION_OF_TOMBSTONE = attrgetter("version")


class VersionLog:
    """Monotone version counter plus the change history of one endpoint.

    ``current`` only moves forward; every mutation batch
    (:meth:`~repro.services.endpoint.SystemEndpoint.apply_changes`)
    bumps it once and stamps the touched rows with the new value.
    Each stamp is also appended to a version-ordered change list, each
    delete to the version-ordered ``tombstones``, so
    :meth:`changes_since` / :meth:`tombstones_since` bisect to the
    window they are asked about instead of stamping a full scan.  Only
    a row's latest stamp counts; the entries it superseded are dropped
    whenever they outnumber the live ones, which bounds the change
    list by the stored rows however long the endpoint lives.
    Thread-safe — an endpoint is scanned and mutated by concurrent
    sessions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self._stamps: dict[str, dict[int, int]] = {}
        #: ``(version, fragment name, eid)`` per stamp, version-ordered.
        self._changes: list[tuple[int, str, int]] = []
        self._superseded = 0
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
            stamps = self._stamps.setdefault(fragment_name, {})
            if eid in stamps:
                self._superseded += 1
            stamps[eid] = value
            changes = self._changes
            change = (value, fragment_name, eid)
            if changes and changes[-1][0] > value:
                insort(changes, change, key=_VERSION_OF_CHANGE)
            else:
                changes.append(change)
            if self._superseded > len(changes) // 2:
                self._changes = [
                    (version, name, eid)
                    for version, name, eid in changes
                    if self._stamps[name].get(eid) == version
                ]
                self._superseded = 0
            return value

    def stamp_rows(self, fragment_name: str,
                   rows: Iterable[FragmentRow]) -> None:
        """Write the stored stamps onto scanned rows — the feed-side
        version stamping of a versioned endpoint."""
        with self._lock:
            stamps = self._stamps.get(fragment_name, {})
            for row in rows:
                row.version = stamps.get(row.eid, 0)

    def changes_since(self, since: int) -> dict[str, set[int]]:
        """Per fragment name, the eids of the rows whose latest stamp
        is newer than ``since`` (a deleted row has no stamp)."""
        changed: dict[str, set[int]] = {}
        with self._lock:
            changes = self._changes
            first = bisect_right(changes, since, key=_VERSION_OF_CHANGE)
            for index in range(first, len(changes)):
                version, name, eid = changes[index]
                if self._stamps[name].get(eid) == version:
                    changed.setdefault(name, set()).add(eid)
        return changed

    def record_delete(self, fragment_name: str,
                      row: "FragmentRow | RowKeys",
                      version: int | None = None) -> Tombstone:
        """Tombstone ``row`` (drops its stamp; keeps its occurrence
        eids for delta computation)."""
        keys = row if isinstance(row, RowKeys) else RowKeys.of_row(row)
        occurrences = tuple(
            (eid, element) for eid, element, _ in keys.occurrences
        )
        with self._lock:
            value = self.current if version is None else version
            tombstone = Tombstone(
                value, fragment_name, keys.eid, keys.parent, occurrences
            )
            tombstones = self.tombstones
            if tombstones and tombstones[-1].version > value:
                insort(tombstones, tombstone, key=_VERSION_OF_TOMBSTONE)
            else:
                tombstones.append(tombstone)
            stamps = self._stamps.get(fragment_name, {})
            if stamps.pop(keys.eid, None) is not None:
                self._superseded += 1
            return tombstone

    def tombstones_since(self, since: int) -> list[Tombstone]:
        """Tombstones recorded after version ``since``."""
        with self._lock:
            return self.tombstones[bisect_right(
                self.tombstones, since, key=_VERSION_OF_TOMBSTONE
            ):]


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


def compute_delta(source: "SystemEndpoint",
                  source_fragments: Sequence[Fragment],
                  target_fragments: Sequence[Fragment],
                  since: int) -> DeltaSet:
    """Derive the :class:`DeltaSet` for one delta run.

    Seeds the closure from the version log — the rows stamped after
    ``since`` and the tombstones recorded after it — and walks it
    through the source's keyed lookups (:class:`_Closure`), so the work
    is proportional to what ships.  Nothing here crosses the wire; the
    executor re-reads the ship set through :class:`DeltaSourceView`.

    Raises:
        EndpointError: if ``source`` has no version log, or ``since``
            is a version the log has not reached (a delta from the
            future would silently skip every change up to it).
        FragmentationError: if an occurrence resolves to no target row
            (the target fragmentation does not cover the schema).
    """
    log = getattr(source, "versions", None)
    if log is None:
        raise EndpointError(
            f"endpoint {source.name!r} has no version log; call "
            "enable_versioning() before delta exchange"
        )
    if since > log.current:
        raise EndpointError(
            f"cannot compute a delta since version {since}: the "
            f"version log of endpoint {source.name!r} is only at "
            f"version {log.current}"
        )
    delta = DeltaSet(since=since, high=log.current)
    closure = _Closure(source, source_fragments, target_fragments)
    changes = log.changes_since(since)
    for fragment in source_fragments:
        delta.total_rows += source.row_count(fragment)
        eids = changes.get(fragment.name)
        if eids:
            # A stamp whose row is no longer stored changes nothing.
            for keys in source.rows_by_id(fragment, eids):
                delta.changed_rows += 1
                closure.ship(fragment, keys)
    for tombstone in log.tombstones_since(since):
        # Target rows rooted *inside* a deleted row are gone outright;
        # the surviving target row that contained it lost a child.
        for eid, element in tombstone.occurrences:
            target_name = closure.target_by_root.get(element)
            if target_name is not None:
                delta.deletes.setdefault(target_name, set()).add(eid)
        closure.mark_parent_of(
            tombstone.occurrences[0][1], tombstone.parent
        )
    closure.run()
    delta.ship = closure.shipped
    for eid, target_name in closure.affected.items():
        delta.affected.setdefault(target_name, set()).add(eid)
    # A target row that is rebuilt is not deleted (eid re-creation).
    for target_name, doomed in list(delta.deletes.items()):
        doomed -= delta.affected.get(target_name, set())
        if not doomed:
            del delta.deletes[target_name]
    return delta


#: An affected target row as the closure passes it around: the eid of
#: its root occurrence (eids are document-wide), its target fragment's
#: name, and the source row — fragment and keys — holding that root.
_Target = tuple[int, str, Fragment, RowKeys]


class _Closure:
    """The contribution closure, walked from seed rows through keys.

    Two static maps of the fragment pair make every step local:

    * ``target_by_root`` — which elements root a target fragment.  The
      target row of an occurrence is its nearest ancestor-or-self
      occurrence of such an element.  Inside a source row that is read
      off the row's own keys; only when no target root lies between
      the occurrence and the row root does the walk follow ``parent``
      into the row holding the parent occurrence (:meth:`_target_of`).
    * ``_children_at`` — per element, the source fragments whose root
      hangs under it and is *not* a target root.  Their rows under an
      occurrence of a target row belong to that same target row, so an
      affected target row finds its contributors by ``parent`` lookups
      downward from the row holding its root (:meth:`run`).
    """

    def __init__(self, source: "SystemEndpoint",
                 source_fragments: Sequence[Fragment],
                 target_fragments: Sequence[Fragment]) -> None:
        self.source = source
        self.target_by_root = {
            fragment.root_name: fragment.name
            for fragment in target_fragments
        }
        self._holder_of = {
            element: fragment
            for fragment in source_fragments
            for element in fragment.elements
        }
        self._children_at: dict[str, list[Fragment]] = {}
        for fragment in source_fragments:
            anchor = fragment.parent_element()
            if anchor is not None \
                    and fragment.root_name not in self.target_by_root:
                self._children_at.setdefault(anchor, []).append(fragment)
        self._schema = source_fragments[0].schema
        #: Source row eids to ship, per fragment name.
        self.shipped: dict[str, set[int]] = {}
        #: Affected target rows: root eid -> target fragment name.
        self.affected: dict[int, str] = {}
        self._work: deque[_Target] = deque()
        self._layouts: dict[int, tuple[dict, dict, dict]] = {}
        self._above: dict[int, _Target] = {}

    def _layout(self, keys: RowKeys) -> tuple[dict, dict, dict]:
        """How the row's occurrences divide among target rows, as
        ``(owner, rooted, anchors)``: per occurrence eid the root eid
        of the target row it belongs to (``None``: a target row rooted
        above this source row); the target rows rooted in this row,
        root eid -> target name; and per owner the ``(child fragment,
        anchor eid)`` pairs under which more of its contributors hang.
        """
        layout = self._layouts.get(keys.eid)
        if layout is None:
            owner: dict[int, int | None] = {}
            rooted: dict[int, str] = {}
            anchors: dict[int | None, list] = {}
            target_by_root = self.target_by_root
            children_at = self._children_at
            for eid, element, up in keys.occurrences:
                name = target_by_root.get(element)
                if name is None:
                    own = owner[eid] = owner.get(up)
                else:
                    own = owner[eid] = eid
                    rooted[eid] = name
                if element in children_at:
                    anchors.setdefault(own, []).extend(
                        (child, eid) for child in children_at[element]
                    )
            layout = self._layouts[keys.eid] = (owner, rooted, anchors)
        return layout

    def _holding(self, element: str | None,
                 eid: int | None) -> tuple[Fragment, RowKeys] | None:
        """The source row holding occurrence ``eid`` of ``element``."""
        holder = self._holder_of.get(element)
        if holder is None or eid is None:
            return None
        keys = self.source.row_holding(holder, element, eid)
        return None if keys is None else (holder, keys)

    def _target_of(self, fragment: Fragment, keys: RowKeys,
                   eid: int) -> _Target:
        """The target row containing occurrence ``eid`` of the source
        row ``keys``."""
        owner, rooted, _ = self._layout(keys)
        own = owner[eid]
        if own is not None:
            return own, rooted[own], fragment, keys
        target = self._above.get(keys.eid)
        if target is None:
            held = self._holding(fragment.parent_element(), keys.parent)
            if held is None:
                raise FragmentationError(
                    f"occurrence {eid} resolves to no target row; the "
                    "target fragmentation does not cover the schema"
                )
            target = self._above[keys.eid] = self._target_of(
                *held, keys.parent
            )
        return target

    def _mark(self, target: _Target) -> None:
        if target[0] not in self.affected:
            self.affected[target[0]] = target[1]
            self._work.append(target)

    def mark_parent_of(self, root_element: str,
                       parent: int | None) -> None:
        """A row rooted at ``root_element`` under occurrence ``parent``
        is gone: the target row containing ``parent``, if that
        occurrence is still stored, must be rebuilt."""
        held = self._holding(
            self._schema.parent_name(root_element), parent
        )
        if held is not None:
            self._mark(self._target_of(*held, parent))

    def ship(self, fragment: Fragment, keys: RowKeys) -> None:
        """Put a source row in the ship set; every target row it
        touches becomes affected."""
        shipped = self.shipped.setdefault(fragment.name, set())
        if keys.eid in shipped:
            return
        shipped.add(keys.eid)
        owner, rooted, anchors = self._layout(keys)
        affected = self.affected
        for eid, name in rooted.items():
            # Rooted here, so this row is its first contributor; it is
            # queued only if more of them hang below.
            if eid not in affected:
                affected[eid] = name
                if eid in anchors:
                    self._work.append((eid, name, fragment, keys))
        if owner[keys.eid] is None:
            self._mark(self._target_of(fragment, keys, keys.eid))

    def run(self) -> None:
        """Close: every affected target row ships all its contributors
        — the row holding its root, and the rows of child fragments
        hanging under its occurrences, fragment by fragment downward."""
        rows_by_parent = self.source.rows_by_parent
        while self._work:
            target = self._work.popleft()
            root, _, fragment, keys = target
            self.ship(fragment, keys)
            below: list[tuple[RowKeys, int | None]] = [(keys, root)]
            while below:
                keys, own = below.pop()
                for child, anchor in self._layout(keys)[2].get(own, ()):
                    for child_keys in rows_by_parent(child, anchor):
                        self._above.setdefault(child_keys.eid, target)
                        self.ship(child, child_keys)
                        below.append((child_keys, None))


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

    The stored feed order is kept — sorted feeds stay sorted, so the
    columnar combine's merge-join auto-selection works exactly as on a
    full run.  Feeds are restricted by the endpoint itself, which can
    fetch the ship set by id; the parts of a fragment that does not
    flatten are cut from the rows of the ship set.
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

    def scan_stream_columnar(self, fragment: Fragment,
                             batch_rows: int = DEFAULT_BATCH_ROWS
                             ) -> FragmentStream:
        return self._endpoint.scan_stream_columnar(
            fragment, batch_rows, self._keep(fragment)
        )

    def scan_parts(self, fragment: Fragment,
                   batch_rows: int = DEFAULT_BATCH_ROWS
                   ) -> dict[Fragment, FragmentStream]:
        return self._endpoint.scan_parts(
            fragment, batch_rows, self._keep(fragment)
        )


class DeltaTargetView(_EndpointView):
    """Target endpoint view that merges instead of appending.

    Every write becomes an eid-keyed upsert restricted to the delta's
    affected rows (by the closure argument the filter is a no-op on a
    correct program — it is kept as the write-side safety discipline).
    A batch reaches the endpoint's ``merge_rows`` as the columns it
    arrived in; a fragment that does not flatten is combined back from
    its parts first.  Target-row deletes are
    applied by the exchange service before the program runs, not here.
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
            rows = batch.where_id_in(wanted)
            if len(rows):
                self._endpoint.merge_rows(fragment, rows)

    def write_parts(self, fragment: Fragment,
                    parts: dict[Fragment, FragmentStream]) -> None:
        self.write(fragment, combine_parts(fragment, parts))


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
