"""Delta computation: version stamps, tombstones, contribution
closure, and the filtered source/merge target views."""

import pytest

from repro.errors import EndpointError
from repro.core.delta import (
    DeltaSet,
    DeltaSourceView,
    DeltaTargetView,
    VersionLog,
    compute_delta,
    instance_digest,
)
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.workloads.customer import fragment_customers
from repro.workloads.mutate import mutate_endpoint


def _rows(eids, parent=None):
    return [
        FragmentRow(ElementData("Order", eid), parent) for eid in eids
    ]


def _version(log, fragment_name, eid):
    """The version ``log`` stamps on a scanned row of ``eid``."""
    rows = _rows([eid])
    log.stamp_rows(fragment_name, rows)
    return rows[0].version


class TestVersionLog:
    def test_bump_is_monotone(self):
        log = VersionLog()
        assert log.current == 0
        assert [log.bump(), log.bump(), log.bump()] == [1, 2, 3]

    def test_stamp_defaults_to_current(self):
        log = VersionLog()
        log.bump()
        log.bump()
        assert log.stamp("F", 7) == 2
        assert _version(log, "F", 7) == 2
        assert _version(log, "F", 8) == 0
        assert _version(log, "G", 7) == 0

    def test_stamp_rows_writes_feed_versions(self):
        log = VersionLog()
        log.bump()
        log.stamp("Order", 2)
        rows = _rows([1, 2, 3])
        log.stamp_rows("Order", rows)
        assert [row.version for row in rows] == [0, 1, 0]

    def test_record_delete_keeps_occurrences(self):
        log = VersionLog()
        log.bump()
        data = ElementData("Order", 4)
        data.add_child(ElementData("OrderDate", 5))
        log.stamp("Order", 4)
        tombstone = log.record_delete(
            "Order", FragmentRow(data, 9), version=log.bump()
        )
        assert tombstone.version == 2
        assert tombstone.eid == 4
        assert tombstone.parent == 9
        assert tombstone.occurrences == (
            (4, "Order"), (5, "OrderDate"),
        )
        # The stamp died with the row.
        assert _version(log, "Order", 4) == 0

    def test_changes_since_bisects_to_the_latest_stamps(self):
        log = VersionLog()
        first = log.bump()
        for eid in (1, 2, 3):
            log.stamp("F", eid)
        second = log.bump()
        log.stamp("F", 2)
        log.stamp("G", 9)
        log.record_delete("F", _rows([3])[0], version=log.bump())
        assert log.changes_since(0) == {"F": {1, 2}, "G": {9}}
        assert log.changes_since(first) == {"F": {2}, "G": {9}}
        assert log.changes_since(second) == {}
        # A late stamp with an old version keeps the list ordered.
        log.stamp("F", 7, version=first)
        assert log.changes_since(0)["F"] == {1, 2, 7}
        assert log.changes_since(first) == {"F": {2}, "G": {9}}

    def test_change_list_is_bounded_by_the_live_rows(self):
        log = VersionLog()
        for _ in range(50):
            version = log.bump()
            for eid in range(10):
                log.stamp("F", eid, version)
        assert len(log._changes) <= 2 * 10
        assert log.changes_since(49) == {"F": set(range(10))}
        assert log.changes_since(50) == {}

    def test_concurrent_stampers_keep_the_list_ordered(self):
        import sys
        import threading

        log = VersionLog()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def mutate(worker: int) -> None:
            for step in range(200):
                log.stamp("F", worker * 1000 + step % 50, log.bump())

        threads = [
            threading.Thread(target=mutate, args=(worker,))
            for worker in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        versions = [version for version, _, _ in log._changes]
        assert versions == sorted(versions)
        assert log.changes_since(0) == {"F": {
            worker * 1000 + eid
            for worker in range(8) for eid in range(50)
        }}

    def test_tombstones_since_filters_by_version(self):
        log = VersionLog()
        early = log.bump()
        log.record_delete("F", _rows([1])[0], version=early)
        late = log.bump()
        log.record_delete("F", _rows([2])[0], version=late)
        assert [t.eid for t in log.tombstones_since(0)] == [1, 2]
        assert [t.eid for t in log.tombstones_since(early)] == [2]
        assert log.tombstones_since(late) == []


class TestComputeDelta:
    @pytest.fixture
    def versioned_mf(self, auction_mf, auction_document):
        source = RelationalEndpoint("delta-mf", auction_mf)
        source.load_document(auction_document)
        source.enable_versioning()
        return source

    def test_requires_version_log(self, versioned_mf, auction_mf,
                                  auction_lf):
        bare = InMemoryEndpoint("unversioned")
        with pytest.raises(EndpointError, match="no version log"):
            compute_delta(bare, list(auction_mf), list(auction_lf), 0)

    def test_since_ahead_of_the_log_is_an_error(
            self, versioned_mf, auction_mf, auction_lf):
        current = versioned_mf.versions.current
        with pytest.raises(EndpointError) as error:
            compute_delta(versioned_mf, list(auction_mf),
                          list(auction_lf), current + 1)
        assert f"since version {current + 1}" in str(error.value)
        assert f"only at version {current}" in str(error.value)

    def test_no_changes_is_empty(self, versioned_mf, auction_mf,
                                 auction_lf):
        delta = compute_delta(
            versioned_mf, list(auction_mf), list(auction_lf),
            versioned_mf.versions.current,
        )
        assert not delta.ship and not delta.deletes
        assert delta.changed_rows == 0
        assert delta.shipped_rows == 0
        assert delta.total_rows == sum(
            versioned_mf.scan(fragment).row_count()
            for fragment in auction_mf
        )

    def test_closure_covers_every_affected_target(
            self, versioned_mf, auction_mf, auction_lf):
        since = versioned_mf.versions.current
        report = mutate_endpoint(versioned_mf, 0.1, seed=11)
        delta = compute_delta(
            versioned_mf, list(auction_mf), list(auction_lf), since
        )
        assert delta.changed_rows == report.updated
        assert delta.shipped_rows >= delta.changed_rows
        assert delta.high == versioned_mf.versions.current
        # The closure invariant: re-derive the contribution graph and
        # check every affected target row's contributors all ship —
        # otherwise a dataplane would see a combine orphan.
        target_roots = {
            fragment.root_name: fragment.name
            for fragment in auction_lf
        }
        shipped = {
            (name, eid)
            for name, eids in delta.ship.items() for eid in eids
        }
        affected = {
            (name, eid)
            for name, eids in delta.affected.items() for eid in eids
        }
        element_of, parent_of, rows = {}, {}, []
        for fragment in auction_mf:
            for row in versioned_mf.scan(fragment).rows:
                rows.append((fragment.name, row))
                parent_of[row.data.eid] = row.parent
                for node in row.data.iter_all():
                    element_of[node.eid] = node.name
                    for group in node.children.values():
                        for child in group:
                            parent_of[child.eid] = node.eid

        def target_of(eid):
            cursor = eid
            while element_of[cursor] not in target_roots:
                cursor = parent_of[cursor]
            return target_roots[element_of[cursor]], cursor

        for name, row in rows:
            targets = {
                target_of(node.eid) for node in row.data.iter_all()
            }
            if targets & affected:
                assert (name, row.eid) in shipped
                assert targets <= affected

    def test_coarse_delete_tombstones_target_rows(
            self, auction_lf, auction_mf, auction_document):
        source = RelationalEndpoint("delta-lf", auction_lf)
        source.load_document(auction_document)
        source.enable_versioning()
        since = source.versions.current
        report = mutate_endpoint(
            source, 0.0, seed=5, delete_fraction=0.05
        )
        assert report.deleted > 0
        delta = compute_delta(
            source, list(auction_lf), list(auction_mf), since
        )
        # Deleting a coarse LF row kills the fine MF target rows that
        # were rooted inside it.
        assert any(delta.deletes.values())
        # A deleted target row is never also merged.
        for name, doomed in delta.deletes.items():
            assert not doomed & delta.affected.get(name, set())


class TestDeltaViews:
    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(
            customer_documents, customers_s
        )["Order"]

    def test_source_view_filters_preserving_order(self, customers_s,
                                                  order_feed):
        endpoint = InMemoryEndpoint("m")
        endpoint.put(order_feed)
        fragment = customers_s.fragment("Order")
        keep = {row.eid for row in order_feed.rows[::2]}
        view = DeltaSourceView(
            endpoint, DeltaSet(0, 1, ship={"Order": keep})
        )
        scanned = view.scan(fragment)
        assert [row.eid for row in scanned] == [
            row.eid for row in endpoint.scan(fragment)
            if row.eid in keep
        ]
        streamed = [
            eid
            for batch in view.scan_stream_columnar(fragment, 2)
            for eid in batch.column("id")
        ]
        assert streamed == [row.eid for row in scanned]

    def test_source_view_cuts_parts_from_the_ship_set(
            self, customers_s, customer_documents):
        feed = fragment_customers(
            customer_documents, customers_s
        )["Line_Feature"]
        endpoint = InMemoryEndpoint("m")
        endpoint.put(feed)
        keep = {row.eid for row in feed.rows[1::2]}
        view = DeltaSourceView(
            endpoint, DeltaSet(0, 1, ship={"Line_Feature": keep})
        )
        lines, features = view.scan_parts(feed.fragment, 2).values()
        assert [eid for batch in lines for eid in batch.column("id")] \
            == [row.eid for row in feed.rows if row.eid in keep]
        assert [
            eid for batch in features for eid in batch.column("id")
        ] == [
            feature.eid for row in feed.rows if row.eid in keep
            for feature in row.data.children.get("Feature", [])
        ]

    def test_columnar_scan_filters_too(self, auction_mf,
                                       auction_document):
        endpoint = RelationalEndpoint("col", auction_mf)
        endpoint.load_document(auction_document)
        fragment = auction_mf.fragment("item")
        eids = [
            row.eid for row in endpoint.scan(fragment).rows
        ]
        keep = set(eids[1::2])
        view = DeltaSourceView(
            endpoint, DeltaSet(0, 1, ship={"item": keep})
        )
        filtered = [
            eid
            for batch in view.scan_stream_columnar(fragment, 4)
            for eid in batch.column("id")
        ]
        assert filtered == [eid for eid in eids if eid in keep]

    def test_target_view_merges_only_affected(self, customers_s,
                                              order_feed):
        endpoint = InMemoryEndpoint("t")
        endpoint.put(order_feed.copy())
        endpoint.enable_versioning()
        fragment = customers_s.fragment("Order")
        victim = order_feed.rows[0]
        replacement = FragmentRow(
            ElementData(victim.data.name, victim.data.eid,
                        dict(victim.data.attrs), "rewritten"),
            victim.parent,
        )
        decoy = FragmentRow(
            ElementData(victim.data.name, 999_999), None
        )
        view = DeltaTargetView(
            endpoint,
            DeltaSet(0, 1, affected={"Order": {victim.eid}}),
        )
        view.write(
            fragment, FragmentInstance(fragment, [replacement, decoy])
        )
        stored = {
            row.eid: row for row in endpoint.scan(fragment).rows
        }
        assert stored[victim.eid].data.text == "rewritten"
        assert 999_999 not in stored  # not affected -> not merged


class TestDigests:
    def test_digest_ignores_row_order(self, customers_s,
                                      customer_documents):
        feed = fragment_customers(
            customer_documents, customers_s
        )["Order"]
        shuffled = FragmentInstance(
            feed.fragment, list(reversed(feed.rows))
        )
        assert instance_digest(feed) == instance_digest(shuffled)

    def test_digest_sees_content_changes(self, customers_s,
                                         customer_documents):
        feed = fragment_customers(
            customer_documents, customers_s
        )["Order"]
        mutated = feed.copy()
        mutated.rows[0].data.attrs["tainted"] = "yes"
        assert instance_digest(feed) != instance_digest(mutated)
