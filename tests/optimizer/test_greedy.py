"""The greedy algorithm (Section 4.3)."""

import math

import pytest

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, CostWeights, MachineProfile
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.optimizer.exhaustive import cost_based_optim
from repro.core.optimizer.greedy import greedy_placement, greedy_program
from repro.core.optimizer.placement import placement_cost
from repro.core.program.builder import build_transfer_program
from repro.core.program.render import summary

from tests.optimizer.oracle import greedy_optimize


@pytest.fixture
def model(customers_schema):
    return CostModel(StatisticsCatalog.synthetic(customers_schema))


class TestGreedyProgram:
    def test_same_shape_as_canonical(self, customers_s, customers_t,
                                     model):
        mapping = derive_mapping(customers_s, customers_t)
        program = greedy_program(mapping, model)
        program.validate()
        assert summary(program) == "scan=5 combine=2 split=1 write=4"

    def test_xmark_shape(self, auction_mf, auction_lf, auction_schema):
        model = CostModel(StatisticsCatalog.synthetic(auction_schema))
        program = greedy_program(
            derive_mapping(auction_mf, auction_lf), model
        )
        assert summary(program) == "scan=24 combine=21 split=0 write=3"


class TestGreedyPlacement:
    def test_legal_and_total(self, customers_s, customers_t, model):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        placement = greedy_placement(program, model)
        program.validate_placement(placement)

    def test_not_better_than_optimal(self, customers_s, customers_t,
                                     model):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        greedy = placement_cost(
            program, greedy_placement(program, model), model
        )
        _, optimal = cost_based_optim(program, model)
        assert greedy >= optimal - 1e-9

    def test_prefers_faster_system(self, customers_s, customers_t,
                                   customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema)
        fast_target = CostModel(
            stats, target=MachineProfile("t", speed=50.0),
            bandwidth=1e12,
        )
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        placement = greedy_placement(program, fast_target)
        for node in program.nodes:
            if node.kind in ("combine", "split"):
                assert placement[node.op_id] is Location.TARGET

    def test_respects_dumb_client(self, customers_s, customers_t,
                                  customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema)
        model = CostModel(
            stats,
            target=MachineProfile("t", speed=50.0, can_combine=False,
                                  can_split=False),
        )
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        placement = greedy_placement(program, model)
        cost = placement_cost(program, placement, model)
        assert math.isfinite(cost)
        for node in program.nodes:
            if node.kind in ("combine", "split"):
                assert placement[node.op_id] is Location.SOURCE

    def test_tie_break_cuts_cheapest_edge(self, customers_t,
                                          customers_schema):
        # Identical machines: every placement has equal computation,
        # so greedy falls to the min-communication tie-break and the
        # result must still be legal and finite.
        stats = StatisticsCatalog.synthetic(customers_schema)
        model = CostModel(stats)
        program = build_transfer_program(
            derive_mapping(
                customers_t, customers_t
            )
        )
        placement = greedy_placement(program, model)
        program.validate_placement(placement)


class TestGreedyWeights:
    """Regression: greedy_placement used to ignore its ``weights``
    argument entirely — formula-1 weights must actually steer it."""

    @pytest.fixture
    def fast_target(self, customers_schema):
        return CostModel(
            StatisticsCatalog.synthetic(customers_schema),
            target=MachineProfile("t", speed=50.0),
            bandwidth=1e12,
        )

    @pytest.fixture
    def program(self, customers_s, customers_t):
        return build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )

    def test_zero_computation_weight_flips_placement(
            self, program, fast_target):
        # Default weights: the 50x-faster target pulls all processing
        # over.  A zero computation weight mutes that preference, so
        # every decision falls to the communication tie-break and the
        # placement changes — impossible while weights were ignored.
        default = greedy_placement(program, fast_target)
        for node in program.nodes:
            if node.kind in ("combine", "split"):
                assert default[node.op_id] is Location.TARGET
        skewed = greedy_placement(
            program, fast_target,
            CostWeights(computation=0.0, communication=1.0),
        )
        program.validate_placement(skewed)
        assert skewed != default

    def test_positive_scaling_is_invariant(self, program, fast_target):
        # Multiplying both weights by the same positive factor scales
        # every compared quantity equally: same argmax, same placement.
        default = greedy_placement(program, fast_target)
        scaled = greedy_placement(
            program, fast_target,
            CostWeights(computation=7.0, communication=7.0),
        )
        assert scaled == default

    def test_probe_weights_inherited(self, customers_schema, program):
        # No explicit argument: the probe's own weights apply (the
        # resolution rule the exhaustive search uses).
        weighted_model = CostModel(
            StatisticsCatalog.synthetic(customers_schema),
            target=MachineProfile("t", speed=50.0),
            weights=CostWeights(computation=0.0, communication=1.0),
            bandwidth=1e12,
        )
        inherited = greedy_placement(program, weighted_model)
        explicit = greedy_placement(
            program, weighted_model,
            CostWeights(computation=0.0, communication=1.0),
        )
        assert inherited == explicit


class TestGreedyOptimize:
    def test_end_to_end(self, customers_s, customers_t, model):
        program, placement = greedy_optimize(
            derive_mapping(customers_s, customers_t), model
        )
        program.validate_placement(placement)
        assert math.isfinite(
            placement_cost(program, placement, model)
        )
