"""The multi-session exchange broker: concurrency, admission control,
and serial equivalence."""

import threading

import pytest

from repro.errors import BrokerError, BrokerSaturatedError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.program.journal import ExchangeJournal
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.transport import SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.relational.publisher import publish_document
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import run_optimized_exchange


@pytest.fixture
def model(auction_schema):
    return CostModel(StatisticsCatalog.synthetic(auction_schema))


@pytest.fixture
def loaded_agency(auction_schema, auction_mf, auction_lf,
                  auction_document):
    source = RelationalEndpoint("S", auction_mf)
    source.load_document(auction_document)
    agency = DiscoveryAgency(auction_schema)
    agency.register("src", auction_mf, source)
    agency.register("tgt", auction_lf)
    return agency


def _target_factory(fragmentation, collected):
    lock = threading.Lock()

    def make():
        with lock:
            endpoint = RelationalEndpoint(
                f"T{len(collected)}", fragmentation
            )
            collected.append(endpoint)
        return endpoint

    return make


@pytest.fixture
def reference(loaded_agency, auction_lf, model):
    """The published target of a serial run, no broker involved."""
    plan = loaded_agency.negotiate("src", "tgt", probe=model)
    source = loaded_agency.registration("src").endpoint
    target = RelationalEndpoint("ref", auction_lf)
    run_optimized_exchange(
        plan.annotate(), plan.placement, source, target,
        SimulatedChannel(),
    )
    return _published(target)


def _published(target):
    return publish_document(target.db, target.mapper).document


class TestBrokerSessions:
    def test_concurrent_sessions_match_serial(
            self, loaded_agency, auction_lf, model, reference):
        targets = []
        with ExchangeBroker(loaded_agency, plan_cache=PlanCache(),
                            max_workers=4, probe=model) as broker:
            sessions = broker.run(
                [("src", "tgt",
                  _target_factory(auction_lf, targets))] * 6
            )
        assert [s.session_id for s in sessions] == list(range(6))
        assert len(targets) == 6
        for target in targets:
            assert _published(target) == reference
        # The warm sessions ran the one program the cache holds: op ids
        # are unique per operation object, and every run shipped from
        # the same ones.
        shipped = {
            frozenset(s.outcome.report.shipment_bytes)
            for s in sessions if s.cached
        }
        assert sum(s.cached for s in sessions) == 5
        assert len(shipped) == 1

    def test_journal_matches_across_cached_sessions(
            self, loaded_agency, auction_lf, model, reference):
        """Two journaled full sessions into one target (the contract
        ``submit`` documents): the second finds every write
        acknowledged and appends nothing, so the target publishes the
        reference document, once."""
        target = RelationalEndpoint("journaled", auction_lf)
        journal = ExchangeJournal()
        with ExchangeBroker(loaded_agency, plan_cache=PlanCache(),
                            max_workers=2, probe=model) as broker:
            first, second = (
                broker.submit("src", "tgt", lambda: target,
                              journal=journal).result()
                for _ in range(2)
            )
        assert _published(target) == reference
        assert first.outcome.rows_written > 0
        assert second.cached and second.outcome.rows_written == 0

    def test_lossy_sessions_heal_to_serial(
            self, loaded_agency, auction_lf, model, reference):
        # Every session wraps its own channel in the broker-wide plan,
        # so each one loses and re-sends on the same schedule.
        plan = FaultPlan.parse("drop@1,corrupt@3")
        with ExchangeBroker(
                loaded_agency, plan_cache=PlanCache(), max_workers=3,
                probe=model, fault_plan=plan,
                retry_policy=RetryPolicy(),
        ) as broker:
            sessions = broker.run(
                [("src", "tgt", _target_factory(auction_lf, []))] * 3
            )
        for session in sessions:
            assert session.outcome.retries > 0
            assert _published(session.target) == reference

    def test_failed_session_spares_its_siblings(
            self, loaded_agency, auction_lf, model, reference):
        def broken_factory():
            raise RuntimeError("target store unavailable")

        targets = []
        healthy = _target_factory(auction_lf, targets)
        with ExchangeBroker(loaded_agency, plan_cache=PlanCache(),
                            max_workers=3, probe=model) as broker:
            futures = [
                broker.submit("src", "tgt", factory, wait=True)
                for factory in (healthy, broken_factory, healthy)
            ]
            with pytest.raises(RuntimeError, match="unavailable"):
                futures[1].result()
            sessions = [futures[0].result(), futures[2].result()]
        assert broker.completed == 3
        assert len(targets) == 2
        for session in sessions:
            assert _published(session.target) == reference

    def test_warm_sessions_skip_optimizer(self, loaded_agency,
                                          auction_lf, model):
        metrics = MetricsRegistry()
        cache = PlanCache(metrics=metrics)
        with ExchangeBroker(loaded_agency, plan_cache=cache,
                            max_workers=4, probe=model,
                            metrics=metrics) as broker:
            sessions = broker.run(
                [("src", "tgt", _target_factory(auction_lf, []))] * 5
            )
        assert metrics.counter("optimizer.runs").value == 1
        assert sum(1 for s in sessions if not s.cached) == 1
        assert sum(1 for s in sessions if s.cached) == 4
        for session in sessions:
            if session.cached:
                assert session.optimizer_seconds == 0.0
        # Per-session channels: every session accounted its own wire.
        assert all(
            s.outcome.comm_bytes > 0 for s in sessions
        )

    def test_sessions_without_cache_all_optimize(
            self, loaded_agency, auction_lf, model):
        metrics = MetricsRegistry()
        with ExchangeBroker(loaded_agency, max_workers=2, probe=model,
                            metrics=metrics) as broker:
            broker.run(
                [("src", "tgt", _target_factory(auction_lf, []))] * 3
            )
        assert metrics.counter("optimizer.runs").value == 3

    def test_run_beyond_pending_budget_completes(
            self, loaded_agency, auction_lf, model):
        # run() waits at the admission gate instead of rejecting.
        with ExchangeBroker(loaded_agency, plan_cache=PlanCache(),
                            max_workers=2, max_pending=2,
                            probe=model) as broker:
            sessions = broker.run(
                [("src", "tgt", _target_factory(auction_lf, []))] * 6
            )
        assert len(sessions) == 6
        assert broker.completed == 6


class TestAdmissionControl:
    def test_saturated_submit_rejected(self, loaded_agency, auction_lf,
                                       model):
        release = threading.Event()
        entered = threading.Event()

        def blocking_factory():
            entered.set()
            release.wait(timeout=30)
            return RelationalEndpoint("blocked", auction_lf)

        metrics = MetricsRegistry()
        broker = ExchangeBroker(loaded_agency, max_workers=1,
                                max_pending=1, probe=model,
                                metrics=metrics)
        try:
            future = broker.submit("src", "tgt", blocking_factory)
            assert entered.wait(timeout=30)
            with pytest.raises(BrokerSaturatedError):
                broker.submit(
                    "src", "tgt",
                    lambda: RelationalEndpoint("x", auction_lf),
                )
            assert broker.rejected == 1
            assert metrics.counter("broker.rejected").value == 1
        finally:
            release.set()
            broker.close()
        assert future.result().outcome.rows_written > 0
        assert broker.admitted == 1
        assert broker.completed == 1

    def test_closed_broker_rejects_submissions(self, loaded_agency,
                                               auction_lf, model):
        broker = ExchangeBroker(loaded_agency, probe=model)
        broker.close()
        with pytest.raises(BrokerError, match="closed"):
            broker.submit(
                "src", "tgt",
                lambda: RelationalEndpoint("x", auction_lf),
            )

    def test_endpointless_source_rejected(self, loaded_agency,
                                          auction_lf, model):
        # "tgt" registered without an endpoint: cannot act as source.
        with ExchangeBroker(loaded_agency, probe=model) as broker:
            with pytest.raises(BrokerError, match="endpoint"):
                broker.submit(
                    "tgt", "src",
                    lambda: RelationalEndpoint("x", auction_lf),
                )

    def test_bad_configuration_rejected(self, loaded_agency, model):
        with pytest.raises(ValueError, match="max_workers"):
            ExchangeBroker(loaded_agency, max_workers=0, probe=model)
        with pytest.raises(ValueError, match="max_pending"):
            ExchangeBroker(loaded_agency, max_pending=0, probe=model)
        with pytest.raises(ValueError, match="batch_rows"):
            ExchangeBroker(loaded_agency, batch_rows=0, probe=model)

    def test_empty_batch_is_a_no_op(self, loaded_agency, model):
        """The 0-session edge: an empty batch admits nothing, touches
        no counter, and the broker stays usable."""
        metrics = MetricsRegistry()
        with ExchangeBroker(loaded_agency, probe=model,
                            metrics=metrics) as broker:
            assert broker.run([]) == []
            assert broker.admitted == 0
            assert broker.completed == 0
            assert broker.rejected == 0
            assert metrics.counter("broker.admitted").value == 0

    def test_single_session_at_minimum_capacity(self, loaded_agency,
                                                auction_lf, model):
        """The 1-session edge: max_workers=1, max_pending=1 — exactly
        one admission, one completion, no rejection."""
        with ExchangeBroker(loaded_agency, max_workers=1,
                            max_pending=1, probe=model) as broker:
            sessions = broker.run([(
                "src", "tgt",
                lambda: RelationalEndpoint("solo", auction_lf),
            )])
            assert len(sessions) == 1
            assert sessions[0].outcome.rows_written > 0
        assert broker.admitted == 1
        assert broker.completed == 1
        assert broker.rejected == 0
