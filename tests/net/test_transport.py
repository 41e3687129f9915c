"""The simulated channel."""

import pytest

from repro.errors import TransportError
from repro.core.columnar import ColumnBatch
from repro.core.stream import FragmentStream
from repro.net.transport import NetworkProfile, SimulatedChannel
from repro.workloads.customer import fragment_customers


@pytest.fixture
def feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


@pytest.fixture
def whole(feed):
    """The executor's unbatched message: the feed as one seq-less
    batch."""
    return ColumnBatch.from_rows(feed.fragment, feed.rows, None)


class TestNetworkProfile:
    def test_defaults(self):
        profile = NetworkProfile()
        assert profile.bandwidth_bytes_per_second > 0

    def test_validation(self):
        with pytest.raises(TransportError):
            NetworkProfile(bandwidth_bytes_per_second=0)
        with pytest.raises(TransportError):
            NetworkProfile(latency_seconds=-1)


class TestSimulatedChannel:
    def test_transfer_cost_formula(self):
        channel = SimulatedChannel(
            NetworkProfile(bandwidth_bytes_per_second=100.0,
                           latency_seconds=0.5)
        )
        assert channel.transfer_cost(200) == pytest.approx(2.5)

    def test_fragment_shipping_charges_feed_bytes(self, feed, whole):
        channel = SimulatedChannel()
        shipment = channel.ship_batch(whole)
        assert shipment.bytes_sent == feed.feed_size()
        assert channel.total_bytes == shipment.bytes_sent
        assert channel.messages == 1
        assert channel.total_seconds == pytest.approx(shipment.seconds)

    def test_document_shipping(self):
        channel = SimulatedChannel()
        shipment = channel.ship_document("x" * 1000)
        assert shipment.bytes_sent == 1000

    def test_wire_format_round_trip(self, feed, whole):
        channel = SimulatedChannel(wire_format=True)
        rows_before = feed.row_count()
        eids_before = sorted(row.eid for row in feed.rows)
        shipment = channel.ship_batch(whole)
        assert shipment.bytes_sent > feed.feed_size()  # tagged + SOAP
        assert feed.row_count() == rows_before
        assert sorted(row.eid for row in feed.rows) == eids_before

    def test_batch_shipping_charges_per_chunk(self, feed, whole):
        channel = SimulatedChannel()
        batches = list(FragmentStream.from_instance(feed, 2))
        shipped = [channel.ship_batch(batch) for batch in batches]
        assert channel.messages == len(batches)
        assert sum(s.bytes_sent for s in shipped) == feed.feed_size()
        # Chunking pays the per-message latency once per batch.
        unbatched = SimulatedChannel()
        unbatched.ship_batch(whole)
        extra_latency = (
            (len(batches) - 1) * channel.profile.latency_seconds
        )
        assert channel.total_seconds == pytest.approx(
            unbatched.total_seconds + extra_latency
        )

    def test_batch_wire_format_round_trip(self, feed):
        channel = SimulatedChannel(wire_format=True)
        total_rows = 0
        eids = []
        for batch in FragmentStream.from_instance(feed, 3):
            shipment = channel.ship_batch(batch)
            assert shipment.bytes_sent > batch.feed_size()
            total_rows += batch.row_count()
            eids.extend(row.eid for row in batch.rows)
        assert total_rows == feed.row_count()
        assert sorted(eids) == sorted(row.eid for row in feed.rows)

    def test_closed_channel_rejects_batches(self, feed):
        channel = SimulatedChannel()
        batch = next(iter(FragmentStream.from_instance(feed, 2)))
        channel.close()
        with pytest.raises(TransportError):
            channel.ship_batch(batch)

    def test_reset(self, whole):
        channel = SimulatedChannel()
        channel.ship_batch(whole)
        channel.reset()
        assert channel.total_bytes == 0
        assert channel.messages == 0

    def test_closed_channel_rejects(self, whole):
        channel = SimulatedChannel()
        channel.close()
        with pytest.raises(TransportError):
            channel.ship_batch(whole)


class TestLostByteAccounting:
    """Failed, retried and duplicated sends still burn the wire."""

    def test_charge_lost_counts_both_ways(self, feed):
        channel = SimulatedChannel()
        size = feed.feed_size()
        shipment = channel.charge_lost(size)
        assert shipment.bytes_sent == size
        assert channel.total_bytes == size
        assert channel.lost_bytes == size
        assert channel.lost_messages == 1
        assert channel.messages == 1
        assert channel.total_seconds == pytest.approx(
            channel.transfer_cost(size)
        )

    def test_retried_send_charges_twice(self, feed, whole):
        """A drop followed by a successful resend costs two
        transmissions: loss is never free."""
        channel = SimulatedChannel()
        size = feed.feed_size()
        channel.charge_lost(size)       # the dropped attempt
        channel.ship_batch(whole)       # the retry that lands
        assert channel.messages == 2
        assert channel.total_bytes == 2 * size
        assert channel.lost_bytes == size
        assert channel.lost_messages == 1

    def test_charge_delay_adds_time_only(self):
        channel = SimulatedChannel()
        channel.charge_delay(0.75)
        assert channel.total_seconds == pytest.approx(0.75)
        assert channel.total_bytes == 0
        assert channel.messages == 0

    def test_reset_clears_lost_counters(self, feed):
        channel = SimulatedChannel()
        channel.charge_lost(feed.feed_size())
        channel.reset()
        assert channel.lost_bytes == 0
        assert channel.lost_messages == 0

    def test_closed_channel_rejects_lost_charge(self):
        channel = SimulatedChannel()
        channel.close()
        with pytest.raises(TransportError):
            channel.charge_lost(100)
