"""The optimizer's test oracles.

* :func:`exhaust` / :func:`assert_search_is_exact` — the exhaustive
  oracle the plan search is held equal to: every enumerated combine
  order x Algorithm 1 (and its pessimal twin).
* :func:`cost_based_optim_literal` — Algorithm 1 exactly as printed in
  the paper (worklist form, with the footnote's deduplication), held
  equal to the topological search of
  :func:`~repro.core.optimizer.exhaustive.cost_based_optim`.  Its
  partial-state space explodes beyond small programs, which is the
  paper's own observation.
* :func:`enumerate_placements` / :func:`count_placements` — every legal
  placement of one program.
* :func:`greedy_optimize` — greedy program creation then greedy
  placement (Section 4.3) without the plan-search wrapper.
"""

import math

from repro.errors import PlacementError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.mapping import Mapping
from repro.core.ops.base import Location
from repro.core.ops.scan import Scan
from repro.core.ops.write import Write
from repro.core.optimizer.exhaustive import (
    cost_based_optim,
    cost_based_pessim,
)
from repro.core.optimizer.greedy import greedy_placement, greedy_program
from repro.core.optimizer.placement import (
    assign,
    initial_placement,
    placement_cost,
    unassigned_nodes,
)
from repro.core.optimizer.search import (
    greedy_exchange,
    optimal_exchange,
    worst_exchange,
)
from repro.core.program.builder import ProgramBuilder
from repro.core.program.dag import Placement, TransferProgram


def exhaust(mapping, probe, weights=None, programs=None):
    """``(min, max)`` of formula 1 over the whole search space.
    ``programs`` reuses an already enumerated program list."""
    if programs is None:
        programs = ProgramBuilder(mapping).enumerate()
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


def cost_based_optim_literal(program: TransferProgram, probe: CostProbe,
                             weights: CostWeights | None = None
                             ) -> tuple[Placement, float]:
    """Algorithm 1 verbatim (worklist form).  Equivalent to
    :func:`cost_based_optim`; exponentially slower on large programs.

    Raises:
        PlacementError: if no legal placement exists.
    """
    program.validate()
    base = initial_placement(program)
    best_placement: Placement | None = None
    best_cost = 0.0

    def consider(candidate: Placement) -> None:
        nonlocal best_placement, best_cost
        program.validate_placement(candidate)
        cost = placement_cost(program, candidate, probe, weights)
        if best_placement is None or cost < best_cost:
            best_placement = dict(candidate)
            best_cost = cost

    if not unassigned_nodes(program, base):
        consider(base)
        assert best_placement is not None
        return best_placement, best_cost

    open_problems: list[Placement] = [base]
    seen: set[frozenset[tuple[int, Location]]] = set()
    while open_problems:
        partial = open_problems.pop()
        for node in unassigned_nodes(program, partial):
            branch = dict(partial)
            # Lines 8-12: OP to S, upstream to S, downstream to T.
            if not assign(program, branch, node, Location.SOURCE):
                continue
            legal = True
            for consumer in program.consumers(node):
                if not assign(program, branch, consumer,
                              Location.TARGET):
                    legal = False
                    break
            if not legal:
                continue
            if unassigned_nodes(program, branch):
                signature = frozenset(branch.items())
                if signature not in seen:
                    seen.add(signature)
                    open_problems.append(branch)
            else:
                consider(branch)

    if best_placement is None:
        raise PlacementError("no legal placement exists for this program")
    return best_placement, best_cost


def enumerate_placements(program: TransferProgram) -> list[Placement]:
    """All legal placements of a program (test/analysis helper; the
    count grows exponentially — use on small programs only)."""
    program.validate()
    order = program.topological_order()
    in_edges = [program.in_edges(node) for node in order]
    results: list[Placement] = []
    placement: Placement = {}

    def recurse(index: int) -> None:
        if index == len(order):
            results.append(dict(placement))
            return
        node = order[index]
        if isinstance(node, Scan):
            choices: tuple[Location, ...] = (Location.SOURCE,)
        elif isinstance(node, Write):
            choices = (Location.TARGET,)
        elif all(
            placement[edge.producer.op_id] is Location.SOURCE
            for edge in in_edges[index]
        ):
            choices = (Location.SOURCE, Location.TARGET)
        else:
            choices = (Location.TARGET,)
        for location in choices:
            placement[node.op_id] = location
            recurse(index + 1)
            del placement[node.op_id]

    recurse(0)
    return results


def count_placements(program: TransferProgram) -> int:
    """Number of legal placements of a program."""
    return len(enumerate_placements(program))


def greedy_optimize(mapping: Mapping, probe: CostProbe,
                    weights: CostWeights | None = None
                    ) -> tuple[TransferProgram, Placement]:
    """Greedy program creation followed by greedy placement."""
    program = greedy_program(mapping, probe)
    placement = greedy_placement(program, probe, weights)
    return program, placement
