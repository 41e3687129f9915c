"""Property-based optimizer invariants over random schemas.

For any random schema, random source/target fragmentations and any
machine-speed configuration:

* the fast Algorithm-1 search and the literal worklist agree,
* greedy placement is never better than the optimal one,
* the worst placement is never better than any other,
* all returned placements are legal,
* the plan search (DP over combine subtrees) returns exactly the
  minimum / maximum of the exhaustive enumeration, dumb clients and
  zero formula-1 weights included.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, CostWeights, MachineProfile
from repro.core.mapping import derive_mapping
from repro.core.optimizer.exhaustive import (
    cost_based_optim,
    cost_based_pessim,
)
from repro.core.optimizer.greedy import greedy_placement
from repro.core.optimizer.placement import placement_cost
from repro.core.program.builder import build_transfer_program
from repro.sim.random_fragmentation import random_fragmentation

from tests.documents import random_schema
from tests.optimizer.oracle import (
    assert_search_is_exact,
    cost_based_optim_literal,
)


@st.composite
def exchange_cases(draw, dumb_clients=False):
    n_nodes = draw(st.integers(min_value=3, max_value=10))
    schema = random_schema(
        n_nodes,
        seed=draw(st.integers(0, 9999)),
        repeat_prob=0.4,
    )
    rng = random.Random(draw(st.integers(0, 9999)))
    max_fragments = min(n_nodes, 5)
    source = random_fragmentation(
        schema,
        n_fragments=draw(st.integers(1, max_fragments)),
        rng=rng, name="S",
    )
    target = random_fragmentation(
        schema,
        n_fragments=draw(st.integers(1, max_fragments)),
        rng=rng, name="T",
    )
    source_speed = draw(st.sampled_from([0.2, 0.5, 1.0, 2.0, 5.0]))
    target_speed = draw(st.sampled_from([0.2, 0.5, 1.0, 2.0, 5.0]))
    able = st.booleans() if dumb_clients else st.just(True)
    model = CostModel(
        StatisticsCatalog.synthetic(schema),
        source=MachineProfile(
            "s", speed=source_speed,
            can_combine=draw(able), can_split=draw(able),
        ),
        target=MachineProfile(
            "t", speed=target_speed,
            can_combine=draw(able), can_split=draw(able),
        ),
        bandwidth=draw(st.sampled_from([10.0, 1000.0])),
    )
    return derive_mapping(source, target), model


@settings(max_examples=50, deadline=None)
@given(exchange_cases())
def test_fast_search_agrees_with_literal(case):
    mapping, model = case
    program = build_transfer_program(mapping)
    _, fast = cost_based_optim(program, model)
    _, literal = cost_based_optim_literal(program, model)
    assert abs(fast - literal) <= 1e-6 * max(1.0, abs(fast))


@settings(max_examples=50, deadline=None)
@given(exchange_cases())
def test_optimal_le_greedy_le_worst(case):
    mapping, model = case
    program = build_transfer_program(mapping)
    _, optimal = cost_based_optim(program, model)
    _, worst = cost_based_pessim(program, model)
    greedy = placement_cost(
        program, greedy_placement(program, model), model
    )
    assert optimal <= greedy + 1e-9
    assert greedy <= worst + 1e-9


@settings(max_examples=50, deadline=None)
@given(exchange_cases())
def test_returned_placements_are_legal(case):
    mapping, model = case
    program = build_transfer_program(mapping)
    for placement in (
        cost_based_optim(program, model)[0],
        cost_based_pessim(program, model)[0],
        greedy_placement(program, model),
    ):
        program.validate_placement(placement)


@settings(max_examples=60, deadline=None)
@given(
    exchange_cases(dumb_clients=True),
    st.sampled_from([
        None, CostWeights(0.0, 1.0), CostWeights(1.0, 0.0),
        CostWeights(0.3, 2.0),
    ]),
)
def test_plan_search_equals_exhaustion(case, weights):
    mapping, model = case
    assert_search_is_exact(mapping, model, weights)
