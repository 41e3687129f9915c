"""Fault injection and the reliable shipping layer.

The fault matrix: every fault kind fires exactly on its scheduled
message index, charges the wire for what it wasted, and is healed by
the retry/dedup/re-order layer — or surfaces as the right
``TransportError`` subclass when unhealed.
"""

import pytest

from repro.errors import (
    MessageCorrupted,
    MessageDropped,
    MessageTimeout,
    RetryExhausted,
    TransportError,
)
from repro.core.program.executor import Shipment
from repro.core.columnar import ColumnBatch
from repro.core.stream import FragmentStream
from repro.net.faults import (
    FaultKind,
    FaultPlan,
    FaultyChannel,
    ReliableBatchLink,
    RetryPolicy,
    RobustnessStats,
)
from repro.net.transport import SimulatedChannel
from repro.workloads.customer import fragment_customers


@pytest.fixture
def feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


@pytest.fixture
def whole(feed):
    """The executor's unbatched message: the feed as one seq-less
    batch."""
    return ColumnBatch.from_rows(feed.fragment, feed.rows, None)


@pytest.fixture
def batches(feed):
    return list(FragmentStream.from_instance(feed, 2))


def scripted(**schedule):
    """drop=0 → FaultPlan dropping message 0, etc."""
    return FaultPlan(
        script={index: FaultKind(kind) for kind, index in schedule.items()},
        delay_seconds=0.25,
    )


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(drop=0.7, corrupt=0.6)
        with pytest.raises(ValueError):
            FaultPlan(delay_seconds=-1)

    def test_script_excludes_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=0.1, script={0: FaultKind.DROP})

    def test_seeded_draws_are_deterministic(self):
        plan = FaultPlan(drop=0.3, corrupt=0.2, seed=9)
        first = [plan.fault_for(i) for i in range(200)]
        again = [plan.fault_for(i) for i in range(200)]
        assert first == again
        assert FaultKind.DROP in first and FaultKind.CORRUPT in first

    def test_seed_changes_the_schedule(self):
        a = FaultPlan(drop=0.3, seed=1)
        b = FaultPlan(drop=0.3, seed=2)
        assert [a.fault_for(i) for i in range(100)] \
            != [b.fault_for(i) for i in range(100)]

    def test_scripted_fires_exactly(self):
        plan = FaultPlan(script={3: FaultKind.DROP, 5: FaultKind.CORRUPT})
        hits = {i: plan.fault_for(i) for i in range(8)}
        assert hits[3] is FaultKind.DROP
        assert hits[5] is FaultKind.CORRUPT
        assert all(
            kind is None for i, kind in hits.items() if i not in (3, 5)
        )

    def test_parse_rates(self):
        plan = FaultPlan.parse("drop=0.1, corrupt=0.05, seed=7")
        assert plan.drop == pytest.approx(0.1)
        assert plan.corrupt == pytest.approx(0.05)
        assert plan.seed == 7

    def test_parse_script(self):
        plan = FaultPlan.parse("drop@3,corrupt@5")
        assert plan.script == {
            3: FaultKind.DROP, 5: FaultKind.CORRUPT,
        }

    def test_parse_rejects_mixed_and_unknown(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("drop=0.1,corrupt@5")
        with pytest.raises(ValueError):
            FaultPlan.parse("lag=0.1")
        with pytest.raises(ValueError):
            FaultPlan.parse("drop=lots")

    def test_parse_names_a_bad_seed(self):
        with pytest.raises(ValueError, match="'seed=x'"):
            FaultPlan.parse("seed=x")

    def test_parse_rejects_an_index_scripted_twice(self):
        with pytest.raises(ValueError, match="message 3 is scripted twice"):
            FaultPlan.parse("drop@3,corrupt@3")

    def test_negative_script_index_rejected(self):
        with pytest.raises(ValueError, match="start at 0"):
            FaultPlan.parse("drop@-1")
        with pytest.raises(ValueError, match="start at 0"):
            FaultPlan(script={-1: FaultKind.DROP})

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        assert "drop=0.1" in FaultPlan(drop=0.1, seed=3).describe()
        assert FaultPlan.parse("drop@2").describe() == "drop@2"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0)

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, backoff_factor=2.0,
            max_delay_seconds=0.3,
        )
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.3)
        assert policy.delay_for(9) == pytest.approx(0.3)

    def test_jitter_hook_decorates_delay(self):
        policy = RetryPolicy(
            base_delay_seconds=0.2, jitter=lambda d: d / 2
        )
        assert policy.delay_for(1) == pytest.approx(0.1)

    def test_run_retries_then_succeeds(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise MessageDropped("gone")
            return "delivered"

        stats = RobustnessStats()
        policy = RetryPolicy(
            max_attempts=4, base_delay_seconds=0.5,
            sleep=slept.append,
        )
        assert policy.run(flaky, "msg", stats) == "delivered"
        assert len(calls) == 3
        assert stats.retries == 2
        assert slept == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_exhaustion_carries_attempts_and_cause(self):
        def always_fails():
            raise MessageCorrupted("garbled")

        policy = RetryPolicy(max_attempts=3, sleep=lambda d: None)
        with pytest.raises(RetryExhausted) as info:
            policy.run(always_fails, "msg")
        assert isinstance(info.value, TransportError)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_cause, MessageCorrupted)

    def test_non_transport_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("a bug, not the network")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).run(broken, "msg")
        assert len(calls) == 1

    def test_timeout_check(self):
        policy = RetryPolicy(timeout_seconds=0.5)
        assert policy.check_timeout(Shipment(10, 0.4)).seconds == 0.4
        with pytest.raises(MessageTimeout):
            policy.check_timeout(Shipment(10, 0.6))


class TestFaultyChannelMatrix:
    """Every fault kind fires exactly on its scheduled index."""

    def test_drop_raises_and_charges(self, feed, whole):
        inner = SimulatedChannel()
        channel = FaultyChannel(inner, scripted(drop=0))
        with pytest.raises(MessageDropped):
            channel.ship_batch(whole)
        assert channel.stats.drops == 1
        assert inner.lost_messages == 1
        assert inner.lost_bytes == feed.feed_size()
        # The next message is clean: schedule, not chance.
        channel.ship_batch(whole)
        assert inner.messages == 2

    def test_corrupt_detected_by_real_checksum(self, whole):
        inner = SimulatedChannel(wire_format=True)
        channel = FaultyChannel(inner, scripted(corrupt=0))
        with pytest.raises(MessageCorrupted, match="checksum"):
            channel.ship_batch(whole)
        assert channel.stats.corruptions == 1
        assert inner.lost_messages == 1

    def test_corrupt_on_byte_counting_channel(self, feed, whole):
        inner = SimulatedChannel()
        channel = FaultyChannel(inner, scripted(corrupt=0))
        with pytest.raises(MessageCorrupted):
            channel.ship_batch(whole)
        assert inner.lost_bytes == feed.feed_size()

    def test_duplicate_delivers_twice_and_charges_copy(self, feed, whole):
        inner = SimulatedChannel()
        channel = FaultyChannel(inner, scripted(duplicate=0))
        shipment, delivered = channel.transmit_batch(whole)
        assert delivered == [whole, whole]
        assert channel.stats.duplicates == 1
        assert inner.lost_bytes == feed.feed_size()
        assert inner.total_bytes == 2 * feed.feed_size()

    def test_reorder_holds_batch_until_next_message(self, batches):
        channel = FaultyChannel(
            SimulatedChannel(), scripted(reorder=0)
        )
        _, delivered0 = channel.transmit_batch(batches[0], edge="e")
        assert delivered0 == []
        _, delivered1 = channel.transmit_batch(batches[1], edge="e")
        assert delivered1 == [batches[1], batches[0]]
        assert channel.stats.reorders == 1

    def test_flush_releases_held_batches(self, batches):
        channel = FaultyChannel(
            SimulatedChannel(), scripted(reorder=0)
        )
        channel.transmit_batch(batches[0], edge="e")
        assert channel.flush_batches("e") == [batches[0]]
        assert channel.flush_batches("e") == []

    def test_delay_inflates_shipment(self, whole):
        inner = SimulatedChannel()
        channel = FaultyChannel(inner, scripted(delay=0))
        clean = SimulatedChannel().ship_batch(whole)
        delayed, delivered = channel.transmit_batch(whole)
        assert delivered == [whole]
        assert delayed.seconds == pytest.approx(clean.seconds + 0.25)
        assert inner.total_seconds \
            == pytest.approx(clean.seconds + 0.25)
        assert channel.stats.delays == 1

    def test_document_faults(self):
        channel = FaultyChannel(
            SimulatedChannel(), scripted(drop=0, corrupt=1)
        )
        with pytest.raises(MessageDropped):
            channel.ship_document("payload")
        with pytest.raises(MessageCorrupted):
            channel.ship_document("payload")
        channel.ship_document("payload")
        assert channel.stats.injected == 2

    def test_accounting_reads_through(self, whole):
        inner = SimulatedChannel()
        channel = FaultyChannel(inner, FaultPlan())
        channel.ship_batch(whole)
        assert channel.total_bytes == inner.total_bytes
        assert channel.messages == 1


class TestReliableBatchLink:
    def _link(self, plan, policy=None):
        channel = FaultyChannel(SimulatedChannel(), plan)
        stats = RobustnessStats()
        link = ReliableBatchLink(
            channel,
            policy or RetryPolicy(max_attempts=4, sleep=lambda d: None),
            stats, edge="e",
        )
        return link, stats

    def test_in_order_stream_passes_through(self, batches):
        link, _ = self._link(FaultPlan())
        out = []
        for batch in batches:
            _, ready = link.send(batch)
            out.extend(ready)
        out.extend(link.finish())
        assert [b.seq for b in out] == [b.seq for b in batches]

    def test_reorder_is_reassembled(self, batches):
        link, _ = self._link(scripted(reorder=0))
        out = []
        for batch in batches:
            _, ready = link.send(batch)
            out.extend(ready)
        out.extend(link.finish())
        assert [b.seq for b in out] \
            == sorted(b.seq for b in batches)

    def test_duplicate_is_discarded(self, batches):
        link, stats = self._link(scripted(duplicate=0))
        out = []
        for batch in batches:
            _, ready = link.send(batch)
            out.extend(ready)
        out.extend(link.finish())
        assert [b.seq for b in out] == [b.seq for b in batches]
        assert stats.redelivered == 1

    def test_drop_is_resent(self, batches):
        link, stats = self._link(scripted(drop=0))
        out = []
        for batch in batches:
            shipment, ready = link.send(batch)
            # The receipt is the transmission that landed.
            assert shipment.bytes_sent == batch.feed_size()
            out.extend(ready)
        assert stats.retries == 1
        assert [b.seq for b in out] == [b.seq for b in batches]
        # Both the failed and the successful transmission hit the wire.
        inner = link.channel.inner
        assert inner.messages == len(batches) + 1
        assert inner.lost_messages == 1

    def test_exhaustion_raises_retry_exhausted(self, whole):
        # Every message the policy may send is scheduled to fail.
        link, _ = self._link(
            FaultPlan.parse("drop@0,corrupt@1,drop@2"),
            RetryPolicy(max_attempts=3, sleep=lambda d: None),
        )
        with pytest.raises(RetryExhausted) as info:
            link.send(whole)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_cause, MessageDropped)

    def test_timeout_triggers_resend(self, whole):
        budget = SimulatedChannel().transfer_cost(whole.feed_size())
        link, stats = self._link(
            scripted(delay=0),
            RetryPolicy(max_attempts=2, timeout_seconds=budget + 0.1,
                        sleep=lambda d: None),
        )
        _, ready = link.send(whole)
        assert ready == [whole]
        assert stats.timeouts == 1
        assert stats.retries == 1
        # The late copy was delivered; its re-send is the duplicate.
        assert stats.redelivered == 1
        assert link.channel.inner.messages == 2

    def test_gap_at_finish_raises(self, batches):
        link, _ = self._link(FaultPlan())
        link._expected = 99  # simulate a batch that never arrived
        link._buffer[100] = batches[0]
        with pytest.raises(TransportError, match="gap"):
            link.finish()


class TestPerEdgeAttribution:
    """Healing work is broken down per cross-edge and always summed —
    several links (or repeated retries) on one edge accumulate rather
    than overwrite each other."""

    def test_scoped_stats_bind_the_edge(self):
        stats = RobustnessStats()
        scoped = stats.scoped(("a", 0))
        scoped.count_retry()
        scoped.count_retry()
        scoped.count_redelivered(3)
        assert stats.retries == 2
        assert stats.retries_by_edge == {("a", 0): 2}
        assert stats.redelivered_by_edge == {("a", 0): 3}

    def test_edges_accumulate_independently(self):
        stats = RobustnessStats()
        stats.count_retry(edge=(1, 0))
        stats.count_retry(edge=(2, 0))
        stats.count_retry(edge=(1, 0))
        assert stats.retries == 3
        assert stats.retries_by_edge == {(1, 0): 2, (2, 0): 1}

    def test_links_sharing_stats_sum_per_edge(self, batches):
        """Two reliable links over the same stats object, each facing
        one drop, must both show up in the per-edge breakdown."""
        stats = RobustnessStats()
        policy = RetryPolicy(max_attempts=4, sleep=lambda d: None)
        for edge, drop_index in (("edge-a", 0), ("edge-b", 0)):
            channel = FaultyChannel(
                SimulatedChannel(), scripted(drop=drop_index)
            )
            link = ReliableBatchLink(channel, policy, stats, edge=edge)
            for batch in batches:
                link.send(batch)
            link.finish()
        assert stats.retries == 2
        assert stats.retries_by_edge == {"edge-a": 1, "edge-b": 1}

    def test_apply_robustness_sums_instead_of_overwriting(self):
        from repro.core.program.executor import (
            ExecutionReport,
            apply_robustness,
        )

        report = ExecutionReport()
        first = RobustnessStats()
        first.count_retry(edge=(1, 0))
        first.count_redelivered(2, edge=(1, 0))
        second = RobustnessStats()
        second.count_retry(edge=(1, 0))
        second.count_retry(edge=(2, 0))
        apply_robustness(report, first)
        apply_robustness(report, second)
        assert report.retries == 3
        assert report.retries_by_edge == {(1, 0): 2, (2, 0): 1}
        assert report.redelivered_by_edge == {(1, 0): 2}

    def test_reliable_channel_edge_kwarg(self, whole):
        """A link attributes its healing work to its own edge."""
        stats = RobustnessStats()
        link = ReliableBatchLink(
            FaultyChannel(SimulatedChannel(), scripted(drop=0)),
            RetryPolicy(max_attempts=4, sleep=lambda d: None),
            stats, edge=(7, 0),
        )
        link.send(whole)
        assert stats.retries == 1
        assert stats.retries_by_edge == {(7, 0): 1}

    def test_retry_spans_are_recorded(self, whole):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        stats = RobustnessStats()
        link = ReliableBatchLink(
            FaultyChannel(
                SimulatedChannel(), scripted(drop=0), tracer=tracer
            ),
            RetryPolicy(max_attempts=4, sleep=lambda d: None),
            stats, edge=(7, 0), tracer=tracer,
        )
        link.send(whole)
        retries = [s for s in tracer.spans if s.category == "retry"]
        assert len(retries) == 1
        assert retries[0].attrs["error"] == "MessageDropped"
        faults = [s for s in tracer.spans if s.category == "fault"]
        assert len(faults) == 1
        assert faults[0].name == "fault:drop"


class TestPartStreams:
    """A fragment that does not flatten crosses its edge as one stream
    per flat part, each with a sequence space of its own: the reliable
    link numbers, de-duplicates and re-orders each part apart, and the
    channel holds a re-ordered message back per part."""

    def test_two_parts_of_one_edge_keep_their_own_seqs(
            self, customers_s, customers_t, customer_documents):
        from repro.core.delta import instance_digest
        from repro.core.mapping import derive_mapping
        from repro.core.ops.base import Location
        from repro.core.ops.scan import Scan
        from repro.core.program.builder import build_transfer_program
        from repro.core.program.executor import ProgramExecutor
        from repro.services.endpoint import InMemoryEndpoint

        source = InMemoryEndpoint("sales")
        for instance in fragment_customers(
            customer_documents, customers_s
        ).values():
            source.put(instance)
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        # Scans at the source: Line_Feature (parts Line_TelNo and
        # Feature_FeatureID) crosses as two part streams.
        placement = {
            node.op_id: Location.SOURCE if isinstance(node, Scan)
            else Location.TARGET
            for node in program.nodes
        }
        [edge] = [edge for edge in program.cross_edges(placement)
                  if not edge.fragment.is_flat_storable()]
        key = (edge.producer.op_id, edge.output_index)

        def run(wire, retry=None):
            target = InMemoryEndpoint("provisioning")
            report = ProgramExecutor(
                source, target, wire, batch_rows=1, retry=retry,
            ).run(program, placement)
            return report, {
                fragment.name: instance_digest(target.scan(fragment))
                for fragment in customers_t
            }

        _, expected = run(SimulatedChannel(wire_format=True))
        # Every message is held back behind the next of its stream,
        # and a few are dropped and sent again.
        plan = FaultPlan(
            script={index: FaultKind.REORDER for index in range(0, 40, 2)}
            | {index: FaultKind.DROP for index in (5, 13, 21, 29)}
        )
        wire = FaultyChannel(SimulatedChannel(wire_format=True), plan)
        report, written = run(
            wire, RetryPolicy(max_attempts=4, sleep=lambda d: None)
        )
        assert written == expected
        assert wire.stats.reorders >= 2 and wire.stats.drops == 4
        assert report.shipment_batches[key] > 2
        # The retries were counted per part stream of the edge.
        parts = {edge_key for edge_key in report.retries_by_edge
                 if edge_key[:2] == key}
        assert parts and all(len(edge_key) == 3 for edge_key in parts)

    def test_interleaved_parts_do_not_swap_held_messages(self, feed):
        """Why each part needs a key of its own: with the two part
        streams of edge (1, 0) interleaved on one channel, a message of
        part 0 held back by a re-order is released behind part 0's
        next message, never into part 1's stream."""
        batches = list(FragmentStream.from_instance(feed, 2))
        assert len(batches) >= 2
        channel = FaultyChannel(
            SimulatedChannel(), FaultPlan(script={0: FaultKind.REORDER})
        )
        stats = RobustnessStats()
        policy = RetryPolicy(max_attempts=4, sleep=lambda d: None)
        links = [
            ReliableBatchLink(channel, policy, stats, edge=(1, 0, part))
            for part in (0, 1)
        ]
        delivered: list[list] = [[], []]
        for batch in batches:
            for part, link in enumerate(links):
                delivered[part].extend(link.send(batch)[1])
        for part, link in enumerate(links):
            delivered[part].extend(link.finish())
        assert channel.stats.reorders == 1
        for part in (0, 1):
            assert [batch.seq for batch in delivered[part]] \
                == list(range(len(batches)))
        assert stats.redelivered == 0
