"""The negotiated-plan cache: fingerprints, LRU, the inputs the key
must see, and warm-negotiation equivalence."""

import pytest

from repro.adapt.stats import ScaledProbe
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, CostWeights, MachineProfile
from repro.net.transport import InProcessTransport, SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.relational.publisher import publish_document
from repro.services.agency import DiscoveryAgency
from repro.services.broker import PlanCache, plan_fingerprint
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import run_optimized_exchange


@pytest.fixture
def model(auction_schema):
    return CostModel(StatisticsCatalog.synthetic(auction_schema))


@pytest.fixture
def agency(auction_schema, auction_mf, auction_lf):
    agency = DiscoveryAgency(auction_schema)
    agency.register("s", auction_mf)
    agency.register("t", auction_lf)
    return agency


class TestFingerprint:
    def test_deterministic(self, auction_mf, auction_lf, model):
        first = plan_fingerprint(auction_mf, auction_lf, model,
                                 "greedy")
        second = plan_fingerprint(auction_mf, auction_lf, model,
                                  "greedy")
        assert first == second

    def test_sensitive_to_setup(self, auction_mf, auction_lf, model):
        base = plan_fingerprint(auction_mf, auction_lf, model,
                                "greedy")
        other_optimizer = plan_fingerprint(
            auction_mf, auction_lf, model, "optimal"
        )
        other_weights = plan_fingerprint(
            auction_mf, auction_lf, model, "greedy",
            CostWeights(computation=2.0, communication=1.0),
        )
        other_knobs = plan_fingerprint(
            auction_mf, auction_lf, model, "greedy",
            knobs={"batch_rows": 64},
        )
        reversed_pair = plan_fingerprint(
            auction_lf, auction_mf, model, "greedy"
        )
        digests = {base.digest, other_optimizer.digest,
                   other_weights.digest, other_knobs.digest,
                   reversed_pair.digest}
        assert len(digests) == 5
        # The key is the probe's content, not its identity: an equal
        # model over an equal catalog gives the same digest.
        twin = CostModel(StatisticsCatalog.synthetic(auction_mf.schema))
        assert plan_fingerprint(auction_mf, auction_lf, twin,
                                "greedy") == base

    def test_sensitive_to_probe(self, auction_mf, auction_lf,
                                auction_schema, model):
        slow = CostModel(
            StatisticsCatalog.synthetic(auction_schema),
            target=MachineProfile("t", speed=0.1),
        )
        base = plan_fingerprint(auction_mf, auction_lf, model,
                                "greedy")
        other = plan_fingerprint(auction_mf, auction_lf, slow,
                                 "greedy")
        assert model.signature != slow.signature
        assert base.digest != other.digest

    def test_probe_without_signature_raises(self, auction_mf,
                                            auction_lf, agency, model):
        """A probe that states no signature is refused when it is
        fingerprinted — there is no sampling fallback."""
        unsigned = ScaledProbe(model, {"scan": 2.0})
        with pytest.raises(TypeError, match="ScaledProbe states no"):
            plan_fingerprint(auction_mf, auction_lf, unsigned,
                             "greedy")
        with pytest.raises(TypeError, match="no cost signature"):
            agency.negotiate("s", "t", probe=unsigned,
                             plan_cache=PlanCache())


def _tables(schema, **changed):
    """Flat count/width tables over ``schema``'s elements, with
    ``changed`` mapping a table name to one ``(element, value)``."""
    tables = {
        "counts": dict.fromkeys(schema.element_names(), 3.0),
        "widths": dict.fromkeys(schema.element_names(), 20.0),
        "value_widths": dict.fromkeys(schema.element_names(), 8.0),
    }
    for table, (element, value) in changed.items():
        assert element in tables[table]
        tables[table][element] = value
    return StatisticsCatalog(schema, tables["counts"],
                             tables["widths"], tables["value_widths"])


class TestKeySeesEveryInput:
    @pytest.mark.parametrize("changed", [
        {"counts": ("item", 4.0)},
        {"value_widths": ("iname", 9.0)},
        {"widths": ("iname", 21.0)},
    ], ids=["one-count", "one-value-width", "one-width"])
    def test_catalog_change_misses(self, agency, auction_mf,
                                   auction_lf, auction_schema, changed):
        base = CostModel(_tables(auction_schema))
        other = CostModel(_tables(auction_schema, **changed))
        assert plan_fingerprint(auction_mf, auction_lf, base,
                                "greedy") \
            != plan_fingerprint(auction_mf, auction_lf, other,
                                "greedy")
        cache = PlanCache()
        assert not agency.negotiate("s", "t", probe=base,
                                    plan_cache=cache).cached
        assert not agency.negotiate("s", "t", probe=other,
                                    plan_cache=cache).cached
        assert agency.negotiate("s", "t", probe=base,
                                plan_cache=cache).cached
        assert cache.stats()["misses"] == 2

    def test_live_endpoint_probe(self, auction_schema, auction_mf,
                                 auction_lf, auction_document):
        """Probed through live endpoints: a repeat hits (a fresh
        channel of the same link included); new statistics or a new
        machine profile miss."""
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        target = RelationalEndpoint("T", auction_lf)
        agency = DiscoveryAgency(auction_schema)
        agency.register("s", auction_mf, source)
        agency.register("t", auction_lf, target)
        cache = PlanCache()

        def negotiate(channel_type=SimulatedChannel):
            return agency.negotiate("s", "t", channel=channel_type(),
                                    plan_cache=cache)

        cold = negotiate()
        warm = negotiate()
        assert not cold.cached and warm.cached
        assert warm.program is cold.program
        assert not negotiate(InProcessTransport).cached
        source.use_statistics(StatisticsCatalog.synthetic(auction_schema))
        assert not negotiate().cached
        assert negotiate().cached
        target.machine = MachineProfile("T", speed=10.0)
        assert not negotiate().cached
        assert negotiate().cached
        assert cache.stats()["misses"] == 4


class TestPlanCache:
    def test_miss_put_hit(self, agency, auction_mf, auction_lf, model):
        metrics = MetricsRegistry()
        cache = PlanCache(capacity=4, metrics=metrics)
        fingerprint = plan_fingerprint(auction_mf, auction_lf, model,
                                       "greedy")
        assert cache.get(fingerprint) is None
        plan = agency.negotiate("s", "t", probe=model)
        cache.put(fingerprint, plan.program, plan.placement,
                  estimated_cost=plan.estimated_cost,
                  optimizer="greedy")
        first = cache.get(fingerprint)
        second = cache.get(fingerprint)
        assert first is not None
        # A hit hands out the plan the optimizer built, every time.
        assert second is first
        assert first.program is plan.program
        assert first.placement is plan.placement
        assert first.estimated_cost == plan.estimated_cost
        assert cache.stats() == {
            "size": 1, "hits": 2, "misses": 1, "evictions": 0,
        }
        assert metrics.counter("plancache.hits").value == 2
        assert metrics.counter("plancache.misses").value == 1

    def test_lru_eviction(self, agency, auction_mf, auction_lf, model):
        cache = PlanCache(capacity=1)
        plan = agency.negotiate("s", "t", probe=model)
        forward = plan_fingerprint(auction_mf, auction_lf, model,
                                   "greedy")
        variant = plan_fingerprint(auction_mf, auction_lf, model,
                                   "greedy", knobs={"batch_rows": 8})
        cache.put(forward, plan.program, plan.placement,
                  estimated_cost=1.0, optimizer="greedy")
        cache.put(variant, plan.program, plan.placement,
                  estimated_cost=1.0, optimizer="greedy")
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(forward) is None  # evicted, counts a miss
        assert cache.get(variant) is not None


class TestNegotiateWithCache:
    def test_warm_negotiation_skips_optimizer(self, agency, model):
        metrics = MetricsRegistry()
        cache = PlanCache(metrics=metrics)
        cold = agency.negotiate("s", "t", probe=model,
                                plan_cache=cache, metrics=metrics)
        warm = agency.negotiate("s", "t", probe=model,
                                plan_cache=cache, metrics=metrics)
        assert not cold.cached and warm.cached
        assert warm.optimizer_seconds == 0.0
        assert warm.estimated_cost == cold.estimated_cost
        # The acceptance check: a warm hit runs zero optimizations.
        assert metrics.counter("optimizer.runs").value == 1
        assert metrics.counter("optimizer.greedy.runs").value == 1

    @pytest.mark.parametrize("batch_rows", [None, 64],
                             ids=["sequential", "streaming"])
    def test_warm_plan_writes_identical_fragments(
            self, auction_schema, auction_mf, auction_lf,
            auction_document, model, batch_rows):
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        agency = DiscoveryAgency(auction_schema)
        agency.register("s", auction_mf, source)
        agency.register("t", auction_lf)
        cache = PlanCache()
        documents = []
        for label in ("cold", "warm"):
            plan = agency.negotiate("s", "t", probe=model,
                                    plan_cache=cache)
            assert plan.cached == (label == "warm")
            target = RelationalEndpoint(f"T-{label}", auction_lf)
            run_optimized_exchange(
                plan.annotate(), plan.placement, source, target,
                SimulatedChannel(), label, batch_rows=batch_rows,
            )
            documents.append(
                publish_document(target.db, target.mapper).document
            )
        assert documents[0] == documents[1]
