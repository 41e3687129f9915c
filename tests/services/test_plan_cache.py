"""The negotiated-plan cache: fingerprints, LRU, invalidation, and
warm-negotiation equivalence."""

import pytest

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, CostWeights, MachineProfile
from repro.net.transport import SimulatedChannel
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
        # Same probe, same pair: the cost signature is shared even
        # when the optimizer kind differs.
        assert base.cost_signature == other_optimizer.cost_signature

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
        assert base.cost_signature != other.cost_signature
        assert base.digest != other.digest


class TestPlanCache:
    def test_miss_put_hit(self, agency, auction_mf, auction_lf,
                          auction_schema, model):
        metrics = MetricsRegistry()
        cache = PlanCache(capacity=4, metrics=metrics)
        fingerprint = plan_fingerprint(auction_mf, auction_lf, model,
                                       "greedy")
        assert cache.load(fingerprint, auction_schema) is None
        plan = agency.negotiate("s", "t", probe=model)
        cache.put(fingerprint, plan.program, plan.placement,
                  estimated_cost=plan.estimated_cost,
                  optimizer="greedy", optimizer_seconds=0.01)
        first = cache.load(fingerprint, auction_schema)
        second = cache.load(fingerprint, auction_schema)
        assert first is not None and second is not None
        program_a, placement_a, entry = first
        program_b, placement_b, _ = second
        # Fresh objects per load — sessions never share a program.
        assert program_a is not program_b
        assert program_a is not plan.program
        program_a.validate_placement(placement_a)

        # Op ids are fresh per deserialized program; compare the
        # location sequence in node order instead.
        def locations(program, placement):
            return [placement[node.op_id] for node in program.nodes]

        assert locations(program_a, placement_a) \
            == locations(program_b, placement_b) \
            == locations(plan.program, plan.placement)
        assert entry.estimated_cost == plan.estimated_cost
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
                  estimated_cost=1.0, optimizer="greedy",
                  optimizer_seconds=0.0)
        cache.put(variant, plan.program, plan.placement,
                  estimated_cost=1.0, optimizer="greedy",
                  optimizer_seconds=0.0)
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
