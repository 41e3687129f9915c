"""System endpoints: scan/write/cost-probe behaviour."""

import math

import pytest

from repro.errors import EndpointError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import MachineProfile
from repro.core.fragment import Fragment
from repro.core.ops import Combine, Scan, Write
from repro.services.endpoint import (
    DirectoryEndpoint,
    InMemoryEndpoint,
    RelationalEndpoint,
    statistics_from_store,
)
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize


class TestInMemoryEndpoint:
    def test_scan_returns_copies(self, customers_s, customer_documents):
        endpoint = InMemoryEndpoint("m")
        feeds = fragment_customers(customer_documents, customers_s)
        endpoint.put(feeds["Order"])
        first = endpoint.scan(customers_s.fragment("Order"))
        first.rows.clear()
        second = endpoint.scan(customers_s.fragment("Order"))
        assert second.row_count() == feeds["Order"].row_count()

    def test_missing_fragment(self, customers_s):
        endpoint = InMemoryEndpoint("m")
        with pytest.raises(EndpointError):
            endpoint.scan(customers_s.fragment("Order"))

    def test_scan_stream_returns_copies(self, customers_s,
                                        customer_documents):
        endpoint = InMemoryEndpoint("m")
        feeds = fragment_customers(customer_documents, customers_s)
        endpoint.put(feeds["Order"])
        fragment = customers_s.fragment("Order")
        for batch in endpoint.scan_stream_columnar(fragment, 2):
            for row in batch.rows:
                row.data.attrs["mutated"] = "yes"
        clean = endpoint.scan(fragment)
        assert all(
            "mutated" not in row.data.attrs for row in clean.rows
        )

    def test_scan_stream_missing_fragment(self, customers_s):
        endpoint = InMemoryEndpoint("m")
        with pytest.raises(EndpointError):
            endpoint.scan_stream_columnar(customers_s.fragment("Order"), 2)
        with pytest.raises(EndpointError):
            endpoint.scan_parts(customers_s.fragment("Line_Feature"), 2)

    def test_parts_round_trip(self, customers_s, customer_documents):
        """A fragment that does not flatten streams out as its flat
        parts, batched, and is stored back from them unchanged."""
        from repro.core.stream import FragmentStream

        feed = fragment_customers(
            customer_documents, customers_s
        )["Line_Feature"]
        fragment = feed.fragment
        endpoint = InMemoryEndpoint("m")
        endpoint.put(feed)
        parts = endpoint.scan_parts(fragment, 2)
        assert list(parts) == list(fragment.flat_parts())
        assert [part.name for part in parts] == [
            "Line_TelNo", "Feature_FeatureID",
        ]
        batches = {part: list(stream) for part, stream in parts.items()}
        assert all(
            0 < batch.row_count() <= 2
            for streamed in batches.values() for batch in streamed
        )
        target = InMemoryEndpoint("t")
        target.write_parts(fragment, {
            part: FragmentStream(part, streamed)
            for part, streamed in batches.items()
        })
        schema = fragment.schema
        assert [
            serialize(row.data.to_xml(schema, expose=(row.parent,)))
            for row in target.scan(fragment).rows
        ] == [
            serialize(row.data.to_xml(schema, expose=(row.parent,)))
            for row in feed.rows
        ]

    def test_write_stream_round_trip(self, customers_s,
                                     customer_documents):
        from repro.core.stream import FragmentStream

        feeds = fragment_customers(customer_documents, customers_s)
        fragment = customers_s.fragment("Order")
        endpoint = InMemoryEndpoint("m")
        endpoint.write_stream(
            fragment, FragmentStream.from_instance(feeds["Order"], 2)
        )
        assert endpoint.scan(fragment).row_count() == \
            feeds["Order"].row_count()


class TestRelationalEndpoint:
    def test_load_scan_round_trip(self, auction_mf, auction_document):
        endpoint = RelationalEndpoint("S", auction_mf)
        loaded = endpoint.load_document(auction_document)
        assert loaded == endpoint.total_rows()
        item = auction_mf.fragment_of("item")
        assert endpoint.scan(item).row_count() > 0

    def test_write_appends(self, auction_mf, auction_lf,
                           auction_document):
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        target = RelationalEndpoint("T", auction_mf)
        fragment = auction_mf.fragment_of("item")
        target.write(fragment, source.scan(fragment))
        assert target.total_rows() == source.scan(
            fragment
        ).row_count()

    def test_stream_round_trip_matches_materialized(self, auction_mf,
                                                    auction_document):
        """scan_stream_columnar batches concatenate to the scan feed,
        and write_stream loads them identically to write."""
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        fragment = auction_mf.fragment_of("item")
        streamed_rows = [
            row
            for batch in source.scan_stream_columnar(fragment, 7)
            for row in batch.rows
        ]
        materialized = source.scan(fragment)
        schema = fragment.schema
        assert [
            serialize(row.data.to_xml(schema))
            for row in streamed_rows
        ] == [
            serialize(row.data.to_xml(schema))
            for row in materialized.rows
        ]

        from repro.core.stream import FragmentStream

        target = RelationalEndpoint("T", auction_mf)
        target.write_stream(
            fragment, FragmentStream.from_instance(materialized, 7)
        )
        assert target.total_rows() == len(streamed_rows)

    def test_statistics_measured_from_store(self, auction_mf,
                                            auction_document):
        endpoint = RelationalEndpoint("S", auction_mf)
        endpoint.load_document(auction_document)
        stats = endpoint.statistics()
        items = sum(
            1 for node in auction_document.iter_all()
            if node.name == "item"
        )
        assert stats.count("item") == items
        assert stats.count("site") == 1

    def test_probe_uses_machine_speed(self, auction_mf,
                                      auction_document):
        slow = RelationalEndpoint("S", auction_mf)
        slow.load_document(auction_document)
        fast = RelationalEndpoint(
            "F", auction_mf, machine=MachineProfile("f", speed=4.0)
        )
        fast.use_statistics(slow.statistics())
        scan = Scan(auction_mf.fragment_of("item"))
        assert fast.estimate_cost(scan) == pytest.approx(
            slow.estimate_cost(scan) / 4.0
        )

    def test_dumb_client_probe(self, auction_schema, auction_mf):
        endpoint = RelationalEndpoint(
            "D", auction_mf,
            machine=MachineProfile("d", can_combine=False),
        )
        endpoint.use_statistics(
            StatisticsCatalog.synthetic(auction_schema)
        )
        site = Fragment.single(auction_schema, "site")
        regions = Fragment.single(auction_schema, "regions")
        assert math.isinf(
            endpoint.estimate_cost(Combine(site, regions))
        )

    def test_index_factor_probe(self, auction_schema, auction_mf):
        endpoint = RelationalEndpoint(
            "I", auction_mf,
            machine=MachineProfile("i", index_factor=2.0),
        )
        endpoint.use_statistics(
            StatisticsCatalog.synthetic(auction_schema)
        )
        plain = RelationalEndpoint("P", auction_mf)
        plain.use_statistics(StatisticsCatalog.synthetic(auction_schema))
        write = Write(Fragment.single(auction_schema, "site"))
        assert endpoint.estimate_cost(write) == pytest.approx(
            2.0 * plain.estimate_cost(write)
        )

    def test_probe_without_statistics_raises(self, auction_mf):
        endpoint = RelationalEndpoint("S", auction_mf)
        with pytest.raises(EndpointError, match="statistics"):
            endpoint.estimate_cost(
                Scan(auction_mf.fragment_of("item"))
            )


class TestStatisticsFromStore:
    def test_value_widths_reflect_text(self, auction_mf,
                                       auction_document):
        endpoint = RelationalEndpoint("S", auction_mf)
        endpoint.load_document(auction_document)
        stats = statistics_from_store(endpoint.db, endpoint.mapper)
        # idescription carries 12 words of text; quantity a digit.
        def width(name):
            fragment = Fragment.single(auction_mf.schema, name)
            return stats.fragment_feed_size(fragment) \
                / stats.fragment_rows(fragment)

        assert width("idescription") > width("quantity")


class TestDirectoryEndpoint:
    def test_write_and_materialize(self, customers_t,
                                   customer_documents):
        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        # Write child fragments FIRST to prove ordering independence.
        for name in ("Feature", "Line_Switch", "Order_Service",
                     "Customer"):
            endpoint.write(customers_t.fragment(name), feeds[name])
        store = endpoint.materialize()
        assert len(store) == sum(
            instance.row_count() for instance in feeds.values()
        )
        customers = store.search("CUSTOMER_T")
        assert all(len(entry.dn) == 1 for entry in customers)
        features = store.search("FEATURE_T")
        assert all(len(entry.dn) == 4 for entry in features)

    def test_materialize_idempotent(self, customers_t,
                                    customer_documents):
        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        for name, instance in feeds.items():
            endpoint.write(customers_t.fragment(name), instance)
        first = endpoint.materialize()
        assert endpoint.materialize() is first

    def test_orphans_detected(self, customers_schema, customers_t,
                              customer_documents):
        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        # Only write Feature rows: their Line parents never arrive.
        endpoint.write(customers_t.fragment("Feature"),
                       feeds["Feature"])
        with pytest.raises(EndpointError, match="parents"):
            endpoint.materialize()

    def test_orphan_error_reports_deferred_count(self, customers_t,
                                                 customer_documents):
        """The EndpointError names exactly how many rows stayed
        unresolvable, so a partial write is diagnosable."""
        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        endpoint.write(customers_t.fragment("Feature"),
                       feeds["Feature"])
        orphan_rows = feeds["Feature"].row_count()
        assert orphan_rows > 0
        with pytest.raises(
            EndpointError,
            match=rf"{orphan_rows} rows reference parents",
        ):
            endpoint.materialize()

    def test_deep_chain_resolves_over_multiple_passes(self, customers_t,
                                                      customer_documents):
        """Written deepest-first, every fragment level defers at least
        once before its parent level lands — materialize must keep
        re-trying deferred rows until a pass makes no progress."""
        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        depth_order = ("Feature", "Line_Switch", "Order_Service",
                       "Customer")
        for name in depth_order:
            endpoint.write(customers_t.fragment(name), feeds[name])
        store = endpoint.materialize()
        # Every row of every fragment made it in despite the ordering.
        for name in depth_order:
            class_name = endpoint._class_name(
                customers_t.fragment(name)
            )
            assert len(store.search(class_name)) == \
                feeds[name].row_count()

    def test_write_stream_defers_like_write(self, customers_t,
                                            customer_documents):
        from repro.core.stream import FragmentStream

        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        for name in ("Feature", "Line_Switch", "Order_Service",
                     "Customer"):
            endpoint.write_stream(
                customers_t.fragment(name),
                FragmentStream.from_instance(feeds[name], 2),
            )
        store = endpoint.materialize()
        assert len(store) == sum(
            instance.row_count() for instance in feeds.values()
        )

    def test_scan_returns_written(self, customers_t,
                                  customer_documents):
        endpoint = DirectoryEndpoint("prov", customers_t)
        feeds = fragment_customers(customer_documents, customers_t)
        endpoint.write(customers_t.fragment("Customer"),
                       feeds["Customer"])
        instance = endpoint.scan(customers_t.fragment("Customer"))
        assert instance.row_count() == feeds["Customer"].row_count()
        with pytest.raises(EndpointError):
            endpoint.scan(customers_t.fragment("Feature"))
