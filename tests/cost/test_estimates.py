"""Statistics catalogs: synthetic, measured, and fragment pricing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost.estimates import (
    KEY_BYTES,
    SEPARATOR_BYTES,
    StatisticsCatalog,
)
from repro.core.fragment import Fragment

from tests.documents import tagged_size
from tests.core.fragment_walks import combine_walks, walk_fragments


class TestSynthetic:
    def test_counts_follow_cardinalities(self, customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema, fanout=4.0)
        assert stats.count("Customer") == 1.0
        assert stats.count("Order") == 4.0
        assert stats.count("Service") == 4.0     # one per order
        assert stats.count("Line") == 16.0       # 4 per order
        assert stats.count("Feature") == 64.0

    def test_widths_positive(self, customers_schema):
        """Every element weighs something: a one-element fragment is
        larger than its rows' ID/PARENT exposure alone."""
        stats = StatisticsCatalog.synthetic(customers_schema)
        for name in customers_schema.element_names():
            fragment = Fragment.single(customers_schema, name)
            assert stats.fragment_size(fragment) \
                > 24.0 * stats.fragment_rows(fragment)

    def test_fragment_accessors_compose(self, customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema, fanout=2.0)
        order = Fragment(customers_schema, ["Order"])
        service = Fragment(customers_schema, ["Service", "ServiceName"])
        combined = order.combined_with(service)
        assert stats.fragment_rows(combined) == stats.fragment_rows(order)
        assert stats.fragment_elements(combined) == pytest.approx(
            stats.fragment_elements(order)
            + stats.fragment_elements(service)
        )

    def test_whole_document_covers_everything(self, customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema)
        whole = Fragment.whole(customers_schema)
        assert stats.fragment_elements(whole) == pytest.approx(
            sum(stats.count(name)
                for name in customers_schema.element_names())
        )


class TestFromDocument:
    def test_exact_counts(self, customers_schema, customer_documents):
        document = customer_documents[0]
        stats = StatisticsCatalog.from_document(
            customers_schema, document
        )
        assert stats.count("Customer") == 1
        assert stats.count("Order") == sum(
            1 for node in document.iter_all() if node.name == "Order"
        )

    def test_size_close_to_estimated(self, customers_schema,
                                     customer_documents):
        document = customer_documents[0]
        stats = StatisticsCatalog.from_document(
            customers_schema, document
        )
        whole = Fragment.whole(customers_schema)
        measured = tagged_size(document)
        # fragment_size adds the per-row ID/PARENT exposure (24 bytes).
        assert stats.fragment_size(whole) == pytest.approx(
            measured + 24, rel=0.01
        )

    def test_feed_size_below_tagged_size(self, auction_schema,
                                         auction_document):
        stats = StatisticsCatalog.from_document(
            auction_schema, auction_document
        )
        item = Fragment.full_subtree(auction_schema, "item")
        assert stats.fragment_feed_size(item) < stats.fragment_size(item)


class TestValueWidthFallback:
    def test_fallback_subtracts_tag_overhead(self, customers_schema):
        counts = {name: 1.0 for name in customers_schema.element_names()}
        widths = {
            name: 2 * len(name) + 5 + 10.0
            for name in customers_schema.element_names()
        }
        stats = StatisticsCatalog(customers_schema, counts, widths)
        fragment = Fragment(customers_schema, ["Order"])
        assert stats.fragment_feed_size(fragment) == pytest.approx(
            (8 + 2 + 10.0) + 8  # key+sep+value plus per-row parent key
        )


class TestMemoizedSums:
    """The per-fragment sums are memoized by element set; every one
    must equal the direct sum bit for bit, on a repeat call too."""

    @settings(max_examples=40, deadline=None)
    @given(combine_walks(), st.integers(0, 9999))
    def test_memoized_sums_equal_direct_sums(self, walk, seed):
        schema, steps = walk
        rng = random.Random(seed)
        names = schema.element_names()
        counts = {name: rng.uniform(0.5, 50.0) for name in names}
        widths = {name: rng.uniform(10.0, 80.0) for name in names}
        values = {name: rng.uniform(0.0, 30.0) for name in names}
        stats = StatisticsCatalog(schema, counts, widths, values)
        fragments = walk_fragments(steps)
        # Equal element sets built another way may iterate (and so
        # sum) in another order; each must still get its own sum.
        fragments += [
            Fragment(schema, sorted(fragment.elements))
            for fragment in fragments
        ]
        for fragment in fragments:
            rows = counts[fragment.root_name]
            elements = sum(counts[name] for name in fragment.elements)
            feed = sum(
                counts[name] * (KEY_BYTES + SEPARATOR_BYTES + values[name])
                for name in fragment.elements
            ) + KEY_BYTES * rows
            for _ in range(2):
                assert stats.fragment_elements(fragment).hex() == \
                    elements.hex()
                assert stats.fragment_feed_size(fragment).hex() == \
                    feed.hex()
