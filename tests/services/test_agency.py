"""The discovery agency: registration and negotiation (Figure 2)."""

import pytest

from repro.errors import NegotiationError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.program.render import summary
from repro.net.transport import SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.services.agency import DiscoveryAgency
from repro.services.endpoint import RelationalEndpoint
from repro.services.broker import PlanCache
from repro.wsdl.model import parse_wsdl, serialize_wsdl


@pytest.fixture
def agency(auction_schema):
    return DiscoveryAgency(auction_schema)


@pytest.fixture
def model(auction_schema):
    return CostModel(StatisticsCatalog.synthetic(auction_schema))


class TestRegistration:
    def test_register_stores_wsdl_with_extension(self, agency,
                                                 auction_mf):
        registration = agency.register("sales", auction_mf)
        assert "fragmentation" in registration.wsdl_text
        parsed = parse_wsdl(registration.wsdl_text)
        assert parsed.find_extension("fragmentation") is not None
        assert agency.registration("sales") is registration

    def test_register_without_fragmentation_defaults_to_document(
            self, agency, auction_schema):
        registration = agency.register("plain")
        assert len(registration.fragmentation) == 1

    def test_duplicate_rejected(self, agency, auction_mf):
        agency.register("sales", auction_mf)
        with pytest.raises(NegotiationError):
            agency.register("sales", auction_mf)

    def test_foreign_schema_rejected(self, agency):
        from repro.workloads.customer import customer_schema, \
            t_fragmentation
        other = t_fragmentation(customer_schema())
        with pytest.raises(NegotiationError):
            agency.register("prov", other)

    def test_structurally_identical_reparse_accepted(self):
        # Remote systems re-parse the agreed schema document, so their
        # fragmentations arrive over a distinct but structurally
        # identical SchemaTree.  Registration used to reject these on
        # an identity check; it must accept and rebind them.
        from repro.workloads.customer import (
            customer_schema,
            s_fragmentation,
            t_fragmentation,
        )
        ours = customer_schema()
        theirs = customer_schema()
        assert ours is not theirs
        assert ours.structurally_equal(theirs)
        agency = DiscoveryAgency(ours)
        agency.register("sales", s_fragmentation(ours))
        registration = agency.register("prov", t_fragmentation(theirs))
        # Rebound onto the agency's tree so the rest of the pipeline
        # (mapping derivation, program building) sees one schema.
        assert registration.fragmentation.schema is ours
        model = CostModel(StatisticsCatalog.synthetic(ours))
        plan = agency.negotiate("sales", "prov", probe=model)
        plan.program.validate_placement(plan.placement)

    def test_register_wsdl_round_trip(self, agency, auction_lf):
        # One agency serializes; another registers from the document.
        first = agency.register("a", auction_lf)
        second = DiscoveryAgency(agency.schema)
        registration = second.register_wsdl("b", first.wsdl_text)
        assert {f.name for f in registration.fragmentation} == {
            f.name for f in auction_lf
        }
        assert {f.elements for f in registration.fragmentation} == {
            f.elements for f in auction_lf
        }
        # The text it was given is the text it keeps.
        assert registration.wsdl_text is first.wsdl_text

    def test_wsdl_is_rendered_once_on_first_read(self, agency,
                                                 auction_mf):
        registration = agency.register("sales", auction_mf)
        assert registration.wsdl_text == serialize_wsdl(registration.wsdl)
        assert registration.wsdl is registration.wsdl
        assert registration.wsdl_text is registration.wsdl_text

    def test_register_wsdl_without_extension_rejected(self, agency):
        from repro.workloads.customer import customer_info_wsdl
        from repro.wsdl.model import serialize_wsdl
        text = serialize_wsdl(customer_info_wsdl())
        with pytest.raises(NegotiationError, match="extension"):
            agency.register_wsdl("x", text)

    def test_unknown_registration(self, agency):
        with pytest.raises(NegotiationError):
            agency.registration("ghost")


class TestNegotiation:
    def test_greedy_plan(self, agency, auction_mf, auction_lf, model):
        agency.register("s", auction_mf)
        agency.register("t", auction_lf)
        plan = agency.negotiate("s", "t", probe=model)
        assert plan.optimizer == "greedy"
        assert summary(plan.program) == \
            "scan=24 combine=21 split=0 write=3"
        plan.program.validate_placement(plan.placement)

    def test_canonical_plan(self, agency, auction_mf, auction_lf,
                            model):
        agency.register("s", auction_mf)
        agency.register("t", auction_lf)
        plan = agency.negotiate(
            "s", "t", optimizer="canonical", probe=model
        )
        assert plan.estimated_cost > 0
        annotated = plan.annotate()
        assert all(
            node.location is not None for node in annotated.nodes
        )

    def test_canonical_plan_reports_its_time(self, customers_schema,
                                             customers_s, customers_t):
        agency = DiscoveryAgency(customers_schema)
        agency.register("s", customers_s)
        agency.register("t", customers_t)
        model = CostModel(StatisticsCatalog.synthetic(customers_schema))
        cache = PlanCache()
        cold = agency.negotiate("s", "t", optimizer="canonical",
                                probe=model, plan_cache=cache)
        assert not cold.cached
        assert cold.optimizer_seconds > 0
        warm = agency.negotiate("s", "t", optimizer="canonical",
                                probe=model, plan_cache=cache)
        assert warm.cached
        assert warm.optimizer_seconds == 0.0

    def test_optimal_plan_small(self, customers_schema, customers_s,
                                customers_t):
        agency = DiscoveryAgency(customers_schema)
        agency.register("s", customers_s)
        agency.register("t", customers_t)
        model = CostModel(StatisticsCatalog.synthetic(customers_schema))
        metrics = MetricsRegistry()
        plan = agency.negotiate(
            "s", "t", optimizer="optimal", probe=model, metrics=metrics
        )
        greedy = agency.negotiate("s", "t", probe=model)
        assert plan.estimated_cost <= greedy.estimated_cost + 1e-9
        # One search, counted with the DP states it priced.
        assert metrics.counter("optimizer.optimal.runs").value == 1
        assert metrics.counter("optimizer.subproblems").value > 0

    def test_unknown_optimizer_rejected(self, agency, auction_mf,
                                        auction_lf, model):
        agency.register("s", auction_mf)
        agency.register("t", auction_lf)
        with pytest.raises(NegotiationError, match="optimizer"):
            agency.negotiate("s", "t", optimizer="magic", probe=model)

    def test_endpoint_probe_path(self, agency, auction_mf, auction_lf,
                                 auction_document):
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        target = RelationalEndpoint("T", auction_lf)
        agency.register("s", auction_mf, source)
        agency.register("t", auction_lf, target)
        plan = agency.negotiate(
            "s", "t", channel=SimulatedChannel()
        )
        plan.program.validate_placement(plan.placement)
        # Negotiation shared the source's statistics with the target.
        assert target.statistics() is source.statistics()

    def test_probe_needs_channel_or_model(self, agency, auction_mf,
                                          auction_lf):
        agency.register("s", auction_mf)
        agency.register("t", auction_lf)
        with pytest.raises(NegotiationError):
            agency.negotiate("s", "t")
