"""Algorithm 1: the fast search, the literal worklist, and agreement."""

import math

import pytest

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, MachineProfile
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.optimizer.exhaustive import (
    cost_based_optim,
    cost_based_pessim,
)
from repro.core.optimizer.placement import placement_cost
from repro.core.program.builder import build_transfer_program

from tests.optimizer.oracle import (
    cost_based_optim_literal,
    count_placements,
    enumerate_placements,
)


@pytest.fixture
def customer_program(customers_s, customers_t):
    return build_transfer_program(
        derive_mapping(customers_s, customers_t)
    )


@pytest.fixture
def model(customers_schema):
    return CostModel(StatisticsCatalog.synthetic(customers_schema))


class TestFastSearch:
    def test_returns_legal_total_placement(self, customer_program,
                                           model):
        placement, cost = cost_based_optim(customer_program, model)
        customer_program.validate_placement(placement)
        assert math.isfinite(cost)

    def test_cost_matches_placement_cost(self, customer_program, model):
        placement, cost = cost_based_optim(customer_program, model)
        assert cost == pytest.approx(
            placement_cost(customer_program, placement, model)
        )

    def test_is_minimum_over_all_placements(self, customer_program,
                                            model):
        _, cost = cost_based_optim(customer_program, model)
        exhaustive = min(
            placement_cost(customer_program, placement, model)
            for placement in enumerate_placements(customer_program)
        )
        assert cost == pytest.approx(exhaustive)

    def test_pessim_is_maximum(self, customer_program, model):
        _, cost = cost_based_pessim(customer_program, model)
        exhaustive = max(
            placement_cost(customer_program, placement, model)
            for placement in enumerate_placements(customer_program)
        )
        assert cost == pytest.approx(exhaustive)

    def test_agrees_with_literal_algorithm(self, customer_program,
                                           model):
        _, fast = cost_based_optim(customer_program, model)
        _, literal = cost_based_optim_literal(customer_program, model)
        assert fast == pytest.approx(literal)

    def test_dumb_client_pushes_combines_to_source(
            self, customer_program, customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema)
        model = CostModel(
            stats,
            target=MachineProfile("t", speed=100.0, can_combine=False),
        )
        placement, cost = cost_based_optim(customer_program, model)
        assert math.isfinite(cost)
        for node in customer_program.nodes:
            if node.kind == "combine":
                assert placement[node.op_id] is Location.SOURCE

    def test_fast_target_pulls_work_to_target(self, customer_program,
                                              customers_schema):
        stats = StatisticsCatalog.synthetic(customers_schema)
        model = CostModel(
            stats, target=MachineProfile("t", speed=1000.0),
            bandwidth=1e12,
        )
        placement, _ = cost_based_optim(customer_program, model)
        for node in customer_program.nodes:
            if node.kind in ("combine", "split"):
                assert placement[node.op_id] is Location.TARGET


class TestEnumeration:
    def test_count_placements_identity(self, customers_t, model):
        program = build_transfer_program(
            derive_mapping(customers_t, customers_t)
        )
        # Scan -> Write pairs have exactly one placement.
        assert count_placements(program) == 1

    def test_count_placements_chain(self, customer_program):
        # Combine(Order,Service) sits freely in {S,T}; the
        # Split -> Combine(Line,Switch) chain admits (S,S), (S,T) and
        # (T,T) — 2 x 3 = 6 legal placements.
        assert count_placements(customer_program) == 6

    def test_all_enumerated_placements_are_legal(self,
                                                 customer_program):
        for placement in enumerate_placements(customer_program):
            customer_program.validate_placement(placement)
