"""FragmentStream / ResidencyMeter: the batch dataplane units."""

import pytest

from repro.errors import OperationError
from repro.core.stream import (
    DEFAULT_BATCH_ROWS,
    FragmentStream,
    ResidencyMeter,
)
from repro.workloads.customer import fragment_customers


@pytest.fixture
def order_feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


class TestStreamBatches:
    def test_sizes_partition_the_instance(self, order_feed):
        batches = list(FragmentStream.from_instance(order_feed, 2))
        assert sum(b.row_count() for b in batches) == \
            order_feed.row_count()
        assert sum(b.feed_size() for b in batches) == \
            order_feed.feed_size()


class TestFragmentStream:
    def test_rebatching_preserves_row_order(self, order_feed):
        stream = FragmentStream.from_instance(order_feed, 3)
        batches = list(stream)
        assert [b.seq for b in batches] == list(range(len(batches)))
        assert all(b.row_count() <= 3 for b in batches)
        flattened = [row for b in batches for row in b.rows]
        assert flattened == order_feed.rows

    def test_batch_rows_one(self, order_feed):
        batches = list(FragmentStream.from_instance(order_feed, 1))
        assert len(batches) == order_feed.row_count()
        assert all(b.row_count() == 1 for b in batches)

    def test_default_batch_size(self, order_feed):
        stream = FragmentStream.from_instance(order_feed)
        assert DEFAULT_BATCH_ROWS >= 1
        assert stream.materialize().rows == order_feed.rows

    def test_single_use(self, order_feed):
        stream = FragmentStream.from_instance(order_feed, 2)
        list(stream)
        with pytest.raises(OperationError, match="already consumed"):
            iter(stream)
        with pytest.raises(OperationError, match="already consumed"):
            stream.materialize()

    def test_invalid_batch_rows(self, order_feed):
        with pytest.raises(OperationError, match="batch_rows"):
            FragmentStream.from_instance(order_feed, 0)

    def test_copy_rows_isolates_the_original(self, order_feed):
        """Batches hold cells, so their row views are trees of their
        own: mutating them never touches the instance."""
        stream = FragmentStream.from_instance(order_feed, 2)
        for batch in stream:
            for row in batch.rows:
                row.data.text = "mutated"
        assert all(row.data.text != "mutated" for row in order_feed.rows)


class TestResidencyMeter:
    def test_peaks_track_the_high_water_mark(self):
        meter = ResidencyMeter()
        meter.acquire(10)
        meter.acquire(5)
        meter.release(10)
        meter.acquire(2)
        assert meter.peak_rows == 15
        assert meter.rows == 7

    def test_starts_empty(self):
        meter = ResidencyMeter()
        assert meter.peak_rows == 0
        assert meter.rows == 0
