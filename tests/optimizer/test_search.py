"""Plan search: optimal / worst / greedy exchanges."""

import math
import random

import pytest

from repro.errors import PlacementError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, CostWeights, MachineProfile
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.mapping import derive_mapping
from repro.core.optimizer import search
from repro.core.optimizer.placement import placement_cost
from repro.core.optimizer.search import (
    greedy_exchange,
    optimal_exchange,
    worst_exchange,
)
from repro.core.program.builder import ProgramBuilder
from repro.schema.generator import balanced_schema
from repro.sim.random_fragmentation import random_fragmentation

from tests.optimizer.oracle import assert_search_is_exact

#: Table 5's relative source/target speeds.
SPEED_RATIOS = ((5.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0),
                (1.0, 5.0))


@pytest.fixture
def mapping(customers_s, customers_t):
    return derive_mapping(customers_s, customers_t)


@pytest.fixture
def model(customers_schema):
    return CostModel(StatisticsCatalog.synthetic(customers_schema))


class TestSearch:
    def test_ordering_invariant(self, mapping, model):
        optimal = optimal_exchange(mapping, model)
        worst = worst_exchange(mapping, model)
        greedy = greedy_exchange(mapping, model)
        assert optimal.cost <= greedy.cost + 1e-9
        assert optimal.cost <= worst.cost + 1e-9

    def test_programs_considered(self, mapping, model):
        optimal = optimal_exchange(mapping, model)
        assert optimal.programs_considered == 1  # the one it placed
        assert optimal.subproblems > 0
        assert greedy_exchange(mapping, model).subproblems == 0
        assert optimal.elapsed_seconds >= 0

    def test_results_carry_legal_placements(self, mapping, model):
        for result in (
            optimal_exchange(mapping, model),
            worst_exchange(mapping, model),
            greedy_exchange(mapping, model),
        ):
            result.program.validate_placement(result.placement)

    def test_annotate_writes_locations(self, mapping, model):
        result = greedy_exchange(mapping, model)
        program = result.annotate()
        assert all(node.location is not None for node in program.nodes)

    def test_greedy_is_fast(self, auction_mf, auction_lf,
                            auction_schema):
        # Section 5.4.2: "finding a solution using the greedy algorithm
        # takes a few milliseconds".
        model = CostModel(StatisticsCatalog.synthetic(auction_schema))
        result = greedy_exchange(
            derive_mapping(auction_mf, auction_lf), model
        )
        assert result.elapsed_seconds < 0.5


class TestAgainstExhaustion:
    """The DP returns exactly the enumerator's minimum and maximum."""

    @pytest.mark.parametrize("n_fragments,seed",
                             ((6, 7), (8, 1), (10, 11)))
    def test_table5_shape(self, n_fragments, seed):
        # The plan-cold shape: 31 nodes, 6/8/10 fragments a side, the
        # five speed ratios; the seeds keep each enumeration at 24-120
        # programs.
        schema = balanced_schema(2, 5, seed=3)
        rng = random.Random(seed)
        mapping = derive_mapping(
            random_fragmentation(
                schema, n_fragments=n_fragments, rng=rng, name="S"
            ),
            random_fragmentation(
                schema, n_fragments=n_fragments, rng=rng, name="T"
            ),
        )
        programs = list(ProgramBuilder(mapping).enumerate())
        assert 24 <= len(programs) <= 120
        statistics = StatisticsCatalog.synthetic(schema)
        for source_speed, target_speed in SPEED_RATIOS:
            model = CostModel(
                statistics,
                source=MachineProfile("s", speed=source_speed),
                target=MachineProfile("t", speed=target_speed),
            )
            assert_search_is_exact(mapping, model, programs=programs)

    @pytest.fixture
    def coupled_mapping(self):
        """Three Splits feed one assembly (e0|e1_e2|e5_e6) and one of
        them a second (e9_e10): one component, two assemblies."""
        schema = balanced_schema(2, 3, seed=1)

        def fragmentation(name, *parts):
            listed = {element for part in parts for element in part}
            singles = [
                [element] for element in schema.element_names()
                if element not in listed
            ]
            return Fragmentation(
                schema,
                [Fragment(schema, part) for part in (*parts, *singles)],
                name,
            )

        return derive_mapping(
            fragmentation("S", ["e0", "e9"], ["e1", "e2", "e3"],
                          ["e5", "e6", "e7"]),
            fragmentation("T", ["e0", "e1", "e2", "e5", "e6"],
                          ["e9", "e10"]),
        ), schema

    @pytest.mark.parametrize("speeds", SPEED_RATIOS + ((1.0, 50.0),))
    @pytest.mark.parametrize("bandwidth", (0.5, 1000.0))
    def test_splits_sharing_an_assembly(self, coupled_mapping, speeds,
                                        bandwidth):
        mapping, schema = coupled_mapping
        _, assemblies = ProgramBuilder(mapping).skeleton()
        assert max(
            sum(port[0].kind == "split" for port in assembly.ports)
            for assembly in assemblies
        ) == 3
        model = CostModel(
            StatisticsCatalog.synthetic(schema),
            source=MachineProfile("s", speed=speeds[0]),
            target=MachineProfile("t", speed=speeds[1]),
            bandwidth=bandwidth,
        )
        assert_search_is_exact(mapping, model)

    def test_target_placed_split_is_found(self, coupled_mapping):
        # A very fast target pulls the Splits (and everything under
        # them) over; the search must consider that side of the space.
        mapping, schema = coupled_mapping
        model = CostModel(
            StatisticsCatalog.synthetic(schema),
            source=MachineProfile("s"),
            target=MachineProfile("t", speed=50.0),
            bandwidth=1000.0,
        )
        optimal, _ = assert_search_is_exact(mapping, model)
        assert any(
            node.kind == "split"
            and optimal.placement[node.op_id].value == "T"
            for node in optimal.program.nodes
        )


class TestStateBound:
    def test_oversized_assembly_is_refused_by_name(self, mapping, model,
                                                   monkeypatch):
        monkeypatch.setattr(search, "MAX_SEARCH_STATES", 4)
        with pytest.raises(PlacementError, match="plan-search states") \
                as caught:
            optimal_exchange(mapping, model)
        targets = [entry.target.name for entry in mapping.entries]
        assert any(name in str(caught.value) for name in targets)

    def test_oversized_split_component_is_refused(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_SEARCH_STATES", 16)
        # Eight uncoupled-by-assemblies Splits whose T side is dearer:
        # the maximizing search can prune nothing on the way down.
        with pytest.raises(PlacementError, match="8 coupled Splits"):
            search._place_splits(
                list(range(8)), [], [[0.0, 1.0]] * 8, maximize=True
            )


class TestZeroWeightTimesInfiniteCost:
    """``CostWeights(0, 1)`` with a dumb client used to price to NaN."""

    def test_costs_are_finite_and_ordered(self, mapping,
                                          customers_schema):
        model = CostModel(
            StatisticsCatalog.synthetic(customers_schema),
            target=MachineProfile("t", can_combine=False),
        )
        weights = CostWeights(0.0, 1.0)
        optimal = optimal_exchange(mapping, model, weights)
        greedy = greedy_exchange(mapping, model, weights)
        worst = worst_exchange(mapping, model, weights)
        for result in (optimal, greedy, worst):
            assert math.isfinite(result.cost)
            assert math.isfinite(placement_cost(
                result.program, result.placement, model, weights
            ))
        assert optimal.cost <= greedy.cost <= worst.cost

    def test_model_breakdown_prices_like_the_optimizers(
            self, mapping, customers_schema):
        model = CostModel(
            StatisticsCatalog.synthetic(customers_schema),
            target=MachineProfile("t", can_combine=False),
            weights=CostWeights(0.0, 1.0),
        )
        for exchange in (optimal_exchange, worst_exchange):
            result = exchange(mapping, model)
            breakdown = model.breakdown(result.program, result.placement)
            assert breakdown.computation == 0.0
            assert all(math.isfinite(cost)
                       for cost in breakdown.by_location.values())
            assert breakdown.total == pytest.approx(result.cost)


def test_enumerator_limit_zero_yields_nothing(mapping):
    # The oracle keeps its ``limit``; 0 programs is a legal answer.
    assert list(ProgramBuilder(mapping).enumerate(limit=0)) == []
