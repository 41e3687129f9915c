"""Delta exchange end to end: byte-identity with a full re-exchange on
every dataplane, crash recovery semantics, and brokered delta
sessions reusing the cached plan."""

import pytest

from repro.errors import EndpointError, TransportError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.delta import endpoint_digest
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.journal import ExchangeJournal
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.services.exchange import run_optimized_exchange
from repro.workloads.customer import (
    fragment_customers,
    generate_customer_instances,
)
from repro.workloads.mutate import mutate_endpoint

DATAPLANES = {
    "materialized": {},
    "streaming": {"batch_rows": 64},
}


def _setup(source_frag, target_frag, document, name="delta-src"):
    source = RelationalEndpoint(name, source_frag)
    source.load_document(document)
    source.enable_versioning()
    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    return source, program, source_heavy_placement(program)


def _digest(endpoint, fragmentation):
    return endpoint_digest(endpoint, list(fragmentation))


class TestDeltaByteIdentity:
    @pytest.mark.parametrize("dataplane", DATAPLANES)
    def test_merged_target_matches_full_re_exchange(
            self, auction_mf, auction_lf, auction_document,
            dataplane):
        knobs = DATAPLANES[dataplane]
        source, program, placement = _setup(
            auction_mf, auction_lf, auction_document
        )
        journal = ExchangeJournal()
        target = RelationalEndpoint("delta-tgt", auction_lf)
        full = run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal, **knobs,
        )
        mutate_endpoint(source, 0.1, seed=21, delete_fraction=0.02)
        delta = run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal, delta=True, **knobs,
        )
        reference = RelationalEndpoint("delta-ref", auction_lf)
        run_optimized_exchange(
            program, placement, source, reference,
            SimulatedChannel(), **knobs,
        )
        assert _digest(target, auction_lf) \
            == _digest(reference, auction_lf)
        assert delta.delta
        assert delta.delta_changed_rows > 0
        assert delta.delta_shipped_rows < delta.delta_total_rows
        assert delta.comm_bytes < full.comm_bytes
        assert journal.last_sync_version() == source.versions.current

    def test_coarse_deletes_reach_the_fine_target(
            self, auction_mf, auction_lf, auction_document):
        source, program, placement = _setup(
            auction_lf, auction_mf, auction_document, "delta-src-lf"
        )
        journal = ExchangeJournal()
        target = RelationalEndpoint("delta-tgt-mf", auction_mf)
        run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal,
        )
        mutate_endpoint(source, 0.0, seed=5, delete_fraction=0.05)
        delta = run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal, delta=True,
        )
        reference = RelationalEndpoint("delta-ref-mf", auction_mf)
        run_optimized_exchange(
            program, placement, source, reference, SimulatedChannel()
        )
        assert delta.delta_deleted_rows > 0
        assert _digest(target, auction_mf) \
            == _digest(reference, auction_mf)

    def test_empty_delta_ships_nothing(self, auction_mf, auction_lf,
                                       auction_document):
        source, program, placement = _setup(
            auction_mf, auction_lf, auction_document
        )
        journal = ExchangeJournal()
        target = RelationalEndpoint("delta-tgt", auction_lf)
        run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal,
        )
        before = _digest(target, auction_lf)
        delta = run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal, delta=True,
        )
        assert delta.delta_changed_rows == 0
        assert delta.delta_shipped_rows == 0
        assert delta.rows_written == 0
        assert _digest(target, auction_lf) == before


class _TreeTarget(InMemoryEndpoint):
    """An in-memory target the exchange service can drive (it asks a
    target to build its indexes; trees have none)."""

    def build_indexes(self) -> int:
        return 0


class TestNonFlatDelta:
    """The customer scenario between in-memory endpoints: the source
    view cuts the parts of ``Line_Feature`` from the ship set, and the
    target view merges what the parts combine back to."""

    @pytest.mark.parametrize("dataplane", DATAPLANES)
    @pytest.mark.parametrize("direction", ["S-T", "T-S"])
    def test_merged_target_matches_full_re_exchange(
            self, customers_s, customers_t, direction, dataplane):
        stored, wanted = (
            (customers_s, customers_t) if direction == "S-T"
            else (customers_t, customers_s)
        )
        source = InMemoryEndpoint("delta-src")
        for instance in fragment_customers(
            generate_customer_instances(6, seed=8), stored
        ).values():
            source.put(instance)
        source.enable_versioning()
        program = build_transfer_program(derive_mapping(stored, wanted))
        placement = source_heavy_placement(program)
        assert any(not edge.fragment.is_flat_storable()
                   for edge in program.edges)

        def exchange(target, **knobs):
            return run_optimized_exchange(
                program, placement, source, target, SimulatedChannel(),
                **DATAPLANES[dataplane], **knobs,
            )

        target = _TreeTarget("delta-tgt")
        exchange(target)
        synced = source.versions.current
        mutate_endpoint(source, 0.3, seed=4, delete_fraction=0.2)
        outcome = exchange(target, delta=True, since=synced)
        assert outcome.delta_since == synced
        fresh = _TreeTarget("fresh")
        exchange(fresh)
        assert _digest(target, wanted) == _digest(fresh, wanted)


class TestDeltaGuards:
    def test_requires_versioned_source(self, auction_mf, auction_lf,
                                       auction_document):
        source = RelationalEndpoint("bare-src", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        target = RelationalEndpoint("bare-tgt", auction_lf)
        with pytest.raises(EndpointError, match="versioning"):
            run_optimized_exchange(
                program, source_heavy_placement(program), source,
                target, SimulatedChannel(), delta=True,
            )

    def test_since_ahead_of_the_log_records_no_sync(
            self, auction_mf, auction_lf, auction_document):
        source, program, placement = _setup(
            auction_mf, auction_lf, auction_document
        )
        journal = ExchangeJournal()
        target = RelationalEndpoint("ahead-tgt", auction_lf)
        run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal,
        )
        synced = journal.last_sync_version()
        mutate_endpoint(source, 0.1, seed=4)
        with pytest.raises(EndpointError, match="only at version"):
            run_optimized_exchange(
                program, placement, source, target,
                SimulatedChannel(), journal=journal, delta=True,
                since=source.versions.current + 5,
            )
        # Not a silent no-op: the change is still owed.
        assert journal.last_sync_version() == synced

    def test_bad_batch_rows_leaves_the_target_untouched(
            self, auction_mf, auction_lf, auction_document):
        """A rejected call is rejected before any delta work: no
        tombstone is applied to the target and no sync is recorded.
        LF -> MF, so that deleted source rows are target rows."""
        source, program, placement = _setup(
            auction_lf, auction_mf, auction_document, "rejected-src"
        )
        journal = ExchangeJournal()
        target = RelationalEndpoint("rejected-tgt", auction_mf)
        run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal,
        )
        synced = journal.last_sync_version()
        assert mutate_endpoint(
            source, 0.1, seed=8, delete_fraction=0.05
        ).deleted
        published = publish_document(target.db, target.mapper).document
        with pytest.raises(ValueError, match="batch_rows"):
            run_optimized_exchange(
                program, placement, source, target,
                SimulatedChannel(), journal=journal, delta=True,
                batch_rows=0,
            )
        assert publish_document(
            target.db, target.mapper
        ).document == published
        assert journal.last_sync_version() == synced


class TestDeltaCrashRecovery:
    def test_unfinished_run_never_advances_high_water(
            self, auction_mf, auction_lf, auction_document):
        source, program, placement = _setup(
            auction_mf, auction_lf, auction_document
        )
        journal = ExchangeJournal()
        target = RelationalEndpoint("crash-tgt", auction_lf)
        run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal,
        )
        synced = journal.last_sync_version()
        assert synced == source.versions.current
        mutate_endpoint(source, 0.1, seed=8, delete_fraction=0.02)
        # The delta run dies on the wire: every send drops and the
        # retry budget is too small to heal it.
        with pytest.raises(TransportError):
            run_optimized_exchange(
                program, placement, source, target,
                SimulatedChannel(),
                journal=journal, delta=True,
                fault_plan=FaultPlan(drop=1.0, seed=3),
                retry_policy=RetryPolicy(max_attempts=2),
            )
        # The high-water mark still points at the last *completed*
        # sync, so the retry re-covers the whole window.
        assert journal.last_sync_version() == synced
        healed = run_optimized_exchange(
            program, placement, source, target, SimulatedChannel(),
            journal=journal, delta=True,
        )
        assert healed.delta_since == synced
        reference = RelationalEndpoint("crash-ref", auction_lf)
        run_optimized_exchange(
            program, placement, source, reference, SimulatedChannel()
        )
        assert _digest(target, auction_lf) \
            == _digest(reference, auction_lf)
        assert journal.last_sync_version() == source.versions.current


class TestBrokeredDeltaSessions:
    def test_delta_session_reuses_cached_plan(
            self, auction_schema, auction_mf, auction_lf,
            auction_document):
        source = RelationalEndpoint("broker-src", auction_mf)
        source.load_document(auction_document)
        source.enable_versioning()
        agency = DiscoveryAgency(auction_schema)
        agency.register("src", auction_mf, source)
        agency.register("tgt", auction_lf)
        model = CostModel(StatisticsCatalog.synthetic(auction_schema))
        journal = ExchangeJournal()
        target = RelationalEndpoint("broker-tgt", auction_lf)
        with ExchangeBroker(agency, plan_cache=PlanCache(),
                            probe=model) as broker:
            first = broker.submit(
                "src", "tgt", lambda: target, journal=journal,
            ).result()
            mutate_endpoint(source, 0.1, seed=13)
            second = broker.submit(
                "src", "tgt", lambda: target, delta=True,
                journal=journal,
            ).result()
        # Delta is not a plan knob: the delta session hits the plan
        # cached by its full predecessor.
        assert not first.cached
        assert second.cached
        assert second.outcome.delta
        assert second.outcome.comm_bytes < first.outcome.comm_bytes
        reference = RelationalEndpoint("broker-ref", auction_lf)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        run_optimized_exchange(
            program, source_heavy_placement(program), source,
            reference, SimulatedChannel(),
        )
        assert _digest(target, auction_lf) \
            == _digest(reference, auction_lf)
