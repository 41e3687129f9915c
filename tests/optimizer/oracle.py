"""The exhaustive oracle the plan search is held equal to: every
enumerated combine order x Algorithm 1 (and its pessimal twin)."""

import math

from repro.core.optimizer.exhaustive import (
    cost_based_optim,
    cost_based_pessim,
)
from repro.core.optimizer.placement import placement_cost
from repro.core.optimizer.search import (
    greedy_exchange,
    optimal_exchange,
    worst_exchange,
)
from repro.core.program.builder import enumerate_transfer_programs


def exhaust(mapping, probe, weights=None, programs=None):
    """``(min, max)`` of formula 1 over the whole search space.
    ``programs`` reuses an already enumerated program list."""
    if programs is None:
        programs = enumerate_transfer_programs(mapping)
    cheapest, dearest = math.inf, -math.inf
    for program in programs:
        cheapest = min(
            cheapest, cost_based_optim(program, probe, weights)[1]
        )
        dearest = max(
            dearest, cost_based_pessim(program, probe, weights)[1]
        )
    return cheapest, dearest


def assert_search_is_exact(mapping, probe, weights=None, programs=None):
    """DP optimum == exhaustive min, DP pessimum == exhaustive max,
    both results legal and priced by formula 1, greedy in between.

    ``rel_tol=1e-12``: a mathematically tied program may win and sum in
    another order."""
    cheapest, dearest = exhaust(mapping, probe, weights, programs)
    optimal = optimal_exchange(mapping, probe, weights)
    worst = worst_exchange(mapping, probe, weights)
    greedy = greedy_exchange(mapping, probe, weights)
    assert math.isclose(optimal.cost, cheapest, rel_tol=1e-12)
    assert math.isclose(worst.cost, dearest, rel_tol=1e-12)
    for result in (optimal, worst):
        result.program.validate()
        result.program.validate_placement(result.placement)
        assert result.programs_considered == 1
        assert math.isclose(
            placement_cost(
                result.program, result.placement, probe, weights
            ),
            result.cost, rel_tol=1e-9,
        )
    slack = 1 + 1e-9
    assert optimal.cost <= greedy.cost * slack
    assert greedy.cost <= worst.cost * slack
    return optimal, worst
