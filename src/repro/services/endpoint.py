"""System endpoints: the source and target of an exchange.

An endpoint owns a store (relational database, directory, or plain
memory), implements ``Scan``/``Write`` over it (Defs. 3.6/3.9 — each
system its own way, hidden behind the WSDL interface), and answers cost
probes (Figure 2, step 3) by pricing operations against its statistics
and machine profile with the same ``operation_work`` units the
middleware's models use.
"""

from __future__ import annotations

import abc
import threading

from repro.errors import EndpointError
from repro.core.columnar import ColumnBatch
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import (
    INFINITE_COST,
    MachineProfile,
    operation_work,
)
from repro.core.delta import RowKeys, VersionLog
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.ops.base import Operation
from repro.core.stream import DEFAULT_BATCH_ROWS, FragmentStream
from repro.core.ops.combine import Combine
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.directory.store import DirectoryStore, ObjectClass
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper


class SystemEndpoint(abc.ABC):
    """Base class: store-backed Scan/Write plus the cost interface."""

    #: Whether :meth:`write_stream` stores each batch durably as it
    #: arrives.  Endpoints that do (the relational one bulk-loads per
    #: batch) can resume a partially-stored write from the exchange
    #: journal's per-batch acknowledgements; endpoints that
    #: materialize and replace the whole instance at end of stream
    #: cannot, and resume at whole-write granularity only.
    incremental_writes = False

    def __init__(self, name: str,
                 machine: MachineProfile | None = None) -> None:
        self.name = name
        self.machine = machine or MachineProfile(name)
        self._statistics: StatisticsCatalog | None = None
        #: Version log of the stored data; ``None`` until
        #: :meth:`enable_versioning` arms delta exchange.
        self.versions: VersionLog | None = None
        # The default keyed-lookup surface: one scan per fragment,
        # kept until that fragment is written (see _stored_keys).
        self._scanned_keys: dict[str, _ScannedKeys] = {}
        # Serializes whole-store access for endpoints without finer
        # locking; concurrent sessions scan one source together.
        self._store_lock = threading.RLock()

    # -- data interface (used by the program executor) ---------------------

    @abc.abstractmethod
    def scan(self, fragment: Fragment) -> FragmentInstance:
        """Produce the stored instance of ``fragment``."""

    @abc.abstractmethod
    def write(self, fragment: Fragment,
              instance: FragmentInstance) -> None:
        """Store ``instance``."""

    # -- streaming data interface (the batch dataplane) --------------------
    #
    # The executor reads a flat-storable fragment through
    # scan_stream_columnar and any other through scan_stream; either
    # kind of batch may arrive at write_stream.

    def scan_stream(self, fragment: Fragment,
                    batch_rows: int = DEFAULT_BATCH_ROWS
                    ) -> FragmentStream:
        """Produce the stored feed of ``fragment`` as a stream of row
        batches — how a fragment that does not flatten travels.

        The default re-batches the materialized :meth:`scan` result;
        an endpoint that holds trees (the in-memory one) overrides it
        to copy lazily.
        """
        return FragmentStream.from_instance(
            self.scan(fragment), batch_rows
        )

    def write_stream(self, fragment: Fragment,
                     stream: FragmentStream) -> None:
        """Store a batch stream.

        The default materializes and delegates to :meth:`write`;
        endpoints with incremental stores (the relational one
        bulk-loads each batch) override this so the full instance is
        never resident.
        """
        self.write(fragment, stream.materialize())

    def scan_stream_columnar(self, fragment: Fragment,
                             batch_rows: int = DEFAULT_BATCH_ROWS,
                             eids: "set[int] | None" = None
                             ) -> "FragmentStream":
        """Produce the stored feed as :class:`~repro.core.columnar.
        ColumnBatch` batches — how every flat-storable fragment
        travels.  With ``eids``, the feed of just the rows with those
        root eids, in feed order (a delta run's ship set).

        The default flattens the row-batch stream (filtering it first
        when ``eids`` is given); endpoints whose store is already
        tabular (the relational one) override this to skip tree
        building entirely and to fetch ``eids`` by key.
        """
        row_stream = self.scan_stream(fragment, batch_rows)
        if eids is not None:
            row_stream = FragmentStream.from_rows(
                fragment,
                (row for batch in row_stream for row in batch.rows
                 if row.eid in eids),
                batch_rows,
            )
        return FragmentStream(
            fragment,
            (ColumnBatch.from_row_batch(batch)
             for batch in row_stream),
        )

    # -- keyed lookups (delta detection, cascading deletes) -----------------
    #
    # What reads a few rows by key instead of scanning a fragment.  The
    # default answers from one scan per fragment, kept until the
    # fragment is next written; the relational endpoint answers from
    # hash indexes and never scans.

    def _stored_keys(self, fragment: Fragment) -> "_ScannedKeys":
        with self._store_lock:
            keys = self._scanned_keys.get(fragment.name)
            if keys is None:
                keys = self._scanned_keys[fragment.name] = \
                    _ScannedKeys(self.scan(fragment).rows)
            return keys

    def row_count(self, fragment: Fragment) -> int:
        """Rows stored for ``fragment``."""
        return len(self._stored_keys(fragment).by_id)

    def rows_by_id(self, fragment: Fragment,
                   eids: "set[int] | list[int]") -> list[RowKeys]:
        """Keys of the stored rows of ``fragment`` with a root eid in
        ``eids`` (eids that are not stored are skipped)."""
        by_id = self._stored_keys(fragment).by_id
        return [by_id[eid] for eid in eids if eid in by_id]

    def rows_by_parent(self, fragment: Fragment,
                       parent: int) -> list[RowKeys]:
        """Keys of the stored rows of ``fragment`` whose PARENT
        reference is occurrence ``parent``."""
        return self._stored_keys(fragment).by_parent.get(parent, [])

    def row_holding(self, fragment: Fragment, element: str,
                    eid: int) -> RowKeys | None:
        """Keys of the stored row of ``fragment`` that holds
        occurrence ``eid`` of ``element`` — the fragment's root or an
        element other stored fragments hang under — if any."""
        return self._stored_keys(fragment).holding.get(eid)

    # -- versioned mutation (delta exchange) --------------------------------

    def stored_fragments(self) -> list[Fragment]:
        """Fragments this endpoint currently stores (the mutation and
        versioning surface iterates them; default: none known)."""
        return []

    def delete_rows(self, fragment: Fragment,
                    eids: "set[int] | list[int]") -> int:
        """Delete stored rows of ``fragment`` by root eid; returns how
        many were removed.

        Raises:
            EndpointError: when the store cannot delete rows.
        """
        raise EndpointError(
            f"endpoint {self.name!r} does not support row deletion"
        )

    def merge_rows(self, fragment: Fragment,
                   rows: "list[FragmentRow] | ColumnBatch") -> int:
        """Upsert ``rows`` by eid: replace stored rows with matching
        ids, append the rest.  The write discipline of a delta merge;
        takes the rows as trees or as one columnar batch.

        Raises:
            EndpointError: when the store cannot merge rows.
        """
        raise EndpointError(
            f"endpoint {self.name!r} does not support row merging"
        )

    def enable_versioning(self) -> VersionLog:
        """Arm delta exchange: start a :class:`~repro.core.delta.
        VersionLog` and stamp the current contents at version 1."""
        with self._store_lock:
            log = VersionLog()
            log.bump()
            for fragment in self.stored_fragments():
                for row in self.scan(fragment).rows:
                    log.stamp(fragment.name, row.eid)
            self.versions = log
            return log

    def apply_changes(self, fragment: Fragment,
                      upserts: "list | tuple" = (),
                      deletes: "set[int] | list[int] | tuple" = ()
                      ) -> int:
        """Mutate the stored instance of ``fragment`` under one new
        version: ``deletes`` removes rows by eid (cascading to rows in
        other fragments whose PARENT pointed inside a removed row, each
        tombstoned), ``upserts`` merges rows in and stamps them.
        Returns the new version.

        Raises:
            EndpointError: if versioning is not enabled.
        """
        if self.versions is None:
            raise EndpointError(
                f"endpoint {self.name!r} has no version log; call "
                "enable_versioning() before apply_changes()"
            )
        upsert_rows = list(upserts)
        doomed = set(deletes)
        with self._store_lock:
            version = self.versions.bump()
            if doomed:
                self._delete_cascade(fragment, doomed, version)
            if upsert_rows:
                self.merge_rows(fragment, upsert_rows)
                for row in upsert_rows:
                    row.version = self.versions.stamp(
                        fragment.name, row.eid, version
                    )
            return version

    def _delete_cascade(self, fragment: Fragment, eids: set[int],
                        version: int) -> None:
        """Delete rows and, recursively, the rows of other fragments
        anchored inside them (a deleted subtree takes its cross-
        fragment children with it; every removed row is tombstoned).
        Found by key: the doomed rows by id, their dependents by
        ``parent`` under the doomed occurrences."""
        assert self.versions is not None
        removed = self.rows_by_id(fragment, eids)
        for keys in removed:
            self.versions.record_delete(fragment.name, keys, version)
        self.delete_rows(fragment, {keys.eid for keys in removed})
        for other in self.stored_fragments():
            anchor = other.parent_element()
            if other.name == fragment.name \
                    or anchor not in fragment.elements:
                continue
            dependents = {
                child.eid
                for keys in removed
                for eid, element, _ in keys.occurrences
                if element == anchor
                for child in self.rows_by_parent(other, eid)
            }
            if dependents:
                self._delete_cascade(other, dependents, version)

    # -- statistics ----------------------------------------------------------

    def use_statistics(self, statistics: StatisticsCatalog) -> None:
        """Adopt a statistics catalog (the agency shares the source's
        statistics with the target during negotiation)."""
        self._statistics = statistics

    def statistics(self) -> StatisticsCatalog:
        """The catalog used to answer cost probes.

        Raises:
            EndpointError: if no statistics are available yet.
        """
        if self._statistics is None:
            raise EndpointError(
                f"endpoint {self.name!r} has no statistics; call "
                "use_statistics() or refresh_statistics() first"
            )
        return self._statistics

    # -- cost interface (Figure 2, step 3) ---------------------------------------

    def estimate_cost(self, op: Operation) -> float:
        """Cost of executing ``op`` here (the probe interface)."""
        if isinstance(op, Combine) and not self.machine.can_combine:
            return INFINITE_COST
        if isinstance(op, Split) and not self.machine.can_split:
            return INFINITE_COST
        work = operation_work(op, self.statistics())
        if isinstance(op, Write):
            work *= self.machine.index_factor
        return work / self.machine.speed

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class RelationalEndpoint(SystemEndpoint):
    """An endpoint backed by the relational engine (the paper's MySQL
    systems), storing one registered fragmentation."""

    incremental_writes = True

    def __init__(self, name: str, fragmentation: Fragmentation,
                 machine: MachineProfile | None = None) -> None:
        super().__init__(name, machine)
        self.fragmentation = fragmentation
        self.db = Database(name)
        self.mapper = FragmentRelationMapper(fragmentation)
        self.mapper.create_tables(self.db)

    # -- data ----------------------------------------------------------------------

    def load_document(self, document: ElementData) -> int:
        """Initial population from an in-memory document."""
        loaded = self.mapper.load_document(self.db, document)
        self.refresh_statistics()
        return loaded

    def scan(self, fragment: Fragment) -> FragmentInstance:
        return self.mapper.scan_fragment(self.db, fragment)

    def write(self, fragment: Fragment,
              instance: FragmentInstance) -> None:
        self.mapper.load_instance(self.db, fragment, instance)

    def scan_stream_columnar(self, fragment: Fragment,
                             batch_rows: int = DEFAULT_BATCH_ROWS,
                             eids: "set[int] | None" = None
                             ) -> FragmentStream:
        """Stream the fragment as columnar batches sliced straight off
        the sorted table feed — no occurrence trees anywhere; with
        ``eids``, off just those rows fetched through the ``id``
        index."""
        return FragmentStream(
            fragment,
            self.mapper.scan_fragment_columns(
                self.db, fragment, batch_rows, eids
            ),
        )

    def write_stream(self, fragment: Fragment,
                     stream: FragmentStream) -> None:
        """Bulk-load each arriving batch into the fragment's table.
        Columnar batches — all the executor sends, since every stored
        fragment is flat — load without flattening any trees; row
        batches from other callers flatten per row."""
        for batch in stream:
            if isinstance(batch, ColumnBatch):
                self.mapper.load_columns(self.db, fragment, batch)
            else:
                self.mapper.load_rows(self.db, fragment, batch.rows)

    def stored_fragments(self) -> list[Fragment]:
        return list(self.fragmentation)

    def delete_rows(self, fragment: Fragment,
                    eids: "set[int] | list[int]") -> int:
        return self.mapper.delete_rows(self.db, fragment, eids)

    def merge_rows(self, fragment: Fragment,
                   rows: "list[FragmentRow] | ColumnBatch") -> int:
        """Upsert into the fragment table in place, its built indexes
        patched for the touched rows (a write that breaks the table's
        clustered order costs one sort at the next scan)."""
        return self.mapper.merge_rows(self.db, fragment, rows)

    def row_count(self, fragment: Fragment) -> int:
        return self.db.row_count(self.mapper.table_name(fragment))

    def rows_by_id(self, fragment: Fragment,
                   eids: "set[int] | list[int]") -> list[RowKeys]:
        return self.mapper.row_keys(self.db, fragment, "id", eids)

    def rows_by_parent(self, fragment: Fragment,
                       parent: int) -> list[RowKeys]:
        return self.mapper.row_keys(
            self.db, fragment, "parent", (parent,)
        )

    def row_holding(self, fragment: Fragment, element: str,
                    eid: int) -> RowKeys | None:
        column = self.mapper.layout_for(fragment).eid_column(element)
        found = self.mapper.row_keys(self.db, fragment, column, (eid,))
        return found[0] if found else None

    def build_indexes(self) -> int:
        """Create/refresh the standard indexes (the separately timed
        step of Table 4); returns indexes built."""
        return self.mapper.create_indexes(self.db)

    def total_rows(self) -> int:
        """Rows across the fragment tables."""
        return self.db.total_rows()

    # -- statistics --------------------------------------------------------------------

    def refresh_statistics(self) -> StatisticsCatalog:
        """Measure statistics from the stored data."""
        catalog = statistics_from_store(self.db, self.mapper)
        self.use_statistics(catalog)
        return catalog


class InMemoryEndpoint(SystemEndpoint):
    """A minimal endpoint holding fragment instances in a dict (tests,
    and systems that are pure producers/consumers of feeds)."""

    def __init__(self, name: str,
                 machine: MachineProfile | None = None) -> None:
        super().__init__(name, machine)
        self.store: dict[str, FragmentInstance] = {}

    def put(self, instance: FragmentInstance) -> None:
        """Seed the store with an instance (keyed by fragment name)."""
        self.write(instance.fragment, instance)

    def scan(self, fragment: Fragment) -> FragmentInstance:
        with self._store_lock:
            try:
                stored = self.store[fragment.name]
            except KeyError as exc:
                raise EndpointError(
                    f"{self.name!r} stores no fragment {fragment.name!r}"
                ) from exc
            return stored.copy()

    def scan_stream(self, fragment: Fragment,
                    batch_rows: int = DEFAULT_BATCH_ROWS
                    ) -> FragmentStream:
        """Re-batch the stored instance, deep-copying rows lazily so
        only one batch of copies is resident at a time (the consumer
        may mutate rows, as :meth:`scan` callers may)."""
        with self._store_lock:
            try:
                stored = self.store[fragment.name]
            except KeyError as exc:
                raise EndpointError(
                    f"{self.name!r} stores no fragment {fragment.name!r}"
                ) from exc
            snapshot = list(stored.rows)
        return FragmentStream.from_rows(
            fragment,
            (FragmentRow(row.data.copy(), row.parent)
             for row in snapshot),
            batch_rows,
        )

    def write(self, fragment: Fragment,
              instance: FragmentInstance) -> None:
        with self._store_lock:
            self.store[fragment.name] = instance
            self._scanned_keys.pop(fragment.name, None)

    def stored_fragments(self) -> list[Fragment]:
        with self._store_lock:
            return [
                instance.fragment for instance in self.store.values()
            ]

    def delete_rows(self, fragment: Fragment,
                    eids: "set[int] | list[int]") -> int:
        doomed = set(eids)
        with self._store_lock:
            stored = self.store.get(fragment.name)
            if stored is None:
                return 0
            before = len(stored.rows)
            stored.rows = [
                row for row in stored.rows if row.eid not in doomed
            ]
            self._scanned_keys.pop(fragment.name, None)
            return before - len(stored.rows)

    def merge_rows(self, fragment: Fragment,
                   rows: "list[FragmentRow] | ColumnBatch") -> int:
        with self._store_lock:
            stored = self.store.get(fragment.name)
            if stored is None:
                stored = self.store[fragment.name] = \
                    FragmentInstance(fragment)
            self._scanned_keys.pop(fragment.name, None)
            return _merge_into(stored, rows)


class DirectoryEndpoint(SystemEndpoint):
    """An endpoint backed by the LDAP-like directory (the motivating
    example's provisioning system).

    Each fragment maps to an object class named ``<fragment>_T`` whose
    attributes are the fragment's leaf elements and XML attributes;
    each written row becomes an entry under its parent row's entry
    (PARENT references resolve through a shared eid → DN map).
    """

    def __init__(self, name: str, fragmentation: Fragmentation,
                 machine: MachineProfile | None = None) -> None:
        super().__init__(name, machine)
        self.fragmentation = fragmentation
        self.store = DirectoryStore(name)
        self._dn_by_eid: dict[int, tuple[int, ...]] = {}
        self._written: dict[str, FragmentInstance] = {}
        self._materialized = False
        for fragment in fragmentation:
            leaves = tuple(
                leaf.lower() for leaf in fragment.leaf_elements()
            )
            self.store.define_class(
                ObjectClass(self._class_name(fragment), leaves)
            )

    @staticmethod
    def _class_name(fragment: Fragment) -> str:
        return f"{fragment.root_name.upper()}_T"

    def scan(self, fragment: Fragment) -> FragmentInstance:
        with self._store_lock:
            try:
                return self._written[fragment.name].copy()
            except KeyError as exc:
                raise EndpointError(
                    f"directory {self.name!r} holds no fragment "
                    f"{fragment.name!r}"
                ) from exc

    def write(self, fragment: Fragment,
              instance: FragmentInstance) -> None:
        """Accept a fragment feed.

        Entries are materialized lazily (:meth:`materialize`): Writes
        arrive in whatever order the program executes them, and a child
        fragment can land before the fragment holding its parent
        entries — the directory tree can only be built parent-first.
        """
        with self._store_lock:
            self._written[fragment.name] = instance
            self._written_changed(fragment)

    def _written_changed(self, fragment: Fragment) -> None:
        self._materialized = False
        self._scanned_keys.pop(fragment.name, None)

    def stored_fragments(self) -> list[Fragment]:
        with self._store_lock:
            return [
                instance.fragment
                for instance in self._written.values()
            ]

    def delete_rows(self, fragment: Fragment,
                    eids: "set[int] | list[int]") -> int:
        doomed = set(eids)
        with self._store_lock:
            stored = self._written.get(fragment.name)
            if stored is None:
                return 0
            before = len(stored.rows)
            stored.rows = [
                row for row in stored.rows if row.eid not in doomed
            ]
            self._written_changed(fragment)
            return before - len(stored.rows)

    def merge_rows(self, fragment: Fragment,
                   rows: "list[FragmentRow] | ColumnBatch") -> int:
        with self._store_lock:
            stored = self._written.get(fragment.name)
            if stored is None:
                stored = self._written[fragment.name] = \
                    FragmentInstance(fragment)
            self._written_changed(fragment)
            return _merge_into(stored, rows)

    def materialize(self) -> DirectoryStore:
        """(Re)build the directory tree from every written fragment.

        Rows are inserted parents-before-children across fragments;
        nested element ids are registered so child fragments anchored
        at inner elements resolve too.

        Raises:
            EndpointError: if rows reference parents that were never
                written (orphans).
        """
        if self._materialized:
            return self.store
        self.store = DirectoryStore(self.name)
        for fragment in self.fragmentation:
            leaves = tuple(
                leaf.lower() for leaf in fragment.leaf_elements()
            )
            self.store.define_class(
                ObjectClass(self._class_name(fragment), leaves)
            )
        self._dn_by_eid = {}
        pending = [
            (self._class_name(instance.fragment), row)
            for instance in self._written.values()
            for row in instance.rows
        ]
        while pending:
            progressed = False
            deferred = []
            for class_name, row in pending:
                if row.parent is not None \
                        and row.parent not in self._dn_by_eid:
                    deferred.append((class_name, row))
                    continue
                attrs: dict[str, str] = {}
                for node in row.data.iter_all():
                    if node.text:
                        attrs[node.name.lower()] = node.text
                    for attribute, value in node.attrs.items():
                        attrs[
                            f"{node.name.lower()}_{attribute.lower()}"
                        ] = value
                parent_dn = (
                    self._dn_by_eid[row.parent]
                    if row.parent is not None else ()
                )
                dn = self.store.add_entry(parent_dn, class_name, attrs)
                for node in row.data.iter_all():
                    self._dn_by_eid[node.eid] = dn
                progressed = True
            if not progressed:
                raise EndpointError(
                    f"directory {self.name!r}: {len(deferred)} rows "
                    "reference parents that were never written"
                )
            pending = deferred
        self._materialized = True
        return self.store


class _ScannedKeys:
    """Keyed views over one scan of a fragment — what the default
    lookup surface of :class:`SystemEndpoint` answers from."""

    def __init__(self, rows: list[FragmentRow]) -> None:
        self.by_id: dict[int, RowKeys] = {}
        self.by_parent: dict[int | None, list[RowKeys]] = {}
        #: Occurrence eid (of any element) -> the row it is in.
        self.holding: dict[int, RowKeys] = {}
        for row in rows:
            keys = RowKeys.of_row(row)
            self.by_id[keys.eid] = keys
            self.by_parent.setdefault(keys.parent, []).append(keys)
            for eid, _, _ in keys.occurrences:
                self.holding[eid] = keys


def _merge_into(stored: FragmentInstance,
                rows: "list[FragmentRow] | ColumnBatch") -> int:
    """Upsert ``rows`` into a stored instance by eid, keeping the
    canonical sorted-feed order, so a delta-merged store reads back
    identical to a full rewrite."""
    if isinstance(rows, ColumnBatch):
        rows = rows.rows
    replaced = {row.eid for row in rows}
    stored.rows = [
        row for row in stored.rows if row.eid not in replaced
    ]
    stored.rows.extend(rows)
    stored.sort()
    return len(rows)


def statistics_from_store(db: Database,
                          mapper: FragmentRelationMapper
                          ) -> StatisticsCatalog:
    """Measure per-element occurrence counts and widths from the
    fragment tables (what a live source system answers probes with)."""
    schema = mapper.fragmentation.schema
    counts: dict[str, float] = {
        name: 0.0 for name in schema.element_names()
    }
    value_bytes: dict[str, float] = {
        name: 0.0 for name in schema.element_names()
    }
    attr_tag_bytes: dict[str, float] = {
        name: 0.0 for name in schema.element_names()
    }
    for layout in mapper.layouts.values():
        table = db.table(layout.table_name)
        positions = {
            spec.name: index
            for index, spec in enumerate(layout.specs)
        }
        for row in table.scan():
            for spec in layout.specs:
                if spec.element is None:
                    continue
                value = row[positions[spec.name]]
                if spec.role in ("id", "eid") and value is not None:
                    counts[spec.element] += 1
                elif spec.role in ("text", "attr") and value is not None:
                    value_bytes[spec.element] += len(str(value))
                    if spec.role == "attr":
                        attr_tag_bytes[spec.element] += (
                            len(spec.attribute or "") + 4
                        )
    widths = {}
    value_widths = {}
    for name in counts:
        tag = 2 * len(name) + 5
        value = 0.0
        if counts[name]:
            value = value_bytes[name] / counts[name]
            tag += attr_tag_bytes[name] / counts[name]
        widths[name] = tag + value
        value_widths[name] = value
    return StatisticsCatalog(schema, counts, widths, value_widths)
