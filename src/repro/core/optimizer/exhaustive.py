"""Algorithm 1: ``Cost_Based_Optim`` — exhaustive placement search.

Placement of *one given program*.  The plan search
(:mod:`repro.core.optimizer.search`, the engine) runs it once, on the
program its recurrence picked; run over every program of
:func:`~repro.core.program.builder.enumerate_transfer_programs` it is
the exhaustive *oracle* the tests hold that search equal to — the
paper's own formulation, too slow beyond ~40-node schemas.

Two implementations of the same search space:

* :func:`cost_based_optim_literal` — the worklist algorithm exactly as
  printed in the paper (branch: pick an unassigned operation, make it
  the last source-side operation on its paths, propagate closures),
  with the footnote's deduplication.  Kept for fidelity and used by the
  tests to cross-check the fast search on small programs; its partial-
  state space explodes on larger programs, which is the paper's own
  observation ("optimal program generation takes too long for XML
  Schemas with more than 40 nodes").
* :func:`cost_based_optim` — an equivalent enumeration that walks the
  DAG in topological order.  A placement is legal iff its source-side
  node set is downward closed (no T → S edge), so each non-Scan/Write
  node can go to S only when all its producers are at S, and can always
  go to T; branch-and-bound prunes with the additive cost.  Both
  searches return cost-minimal placements; the literal one is
  exponentially slower, not different.

:func:`cost_based_pessim` enumerates the same space keeping the *most*
expensive placement (the optimization-window baseline of Table 5),
pruning with an optimistic upper bound.
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.optimizer.placement import (
    assign,
    initial_placement,
    placement_cost,
    resolve_weights,
    unassigned_nodes,
    weighted,
)
from repro.core.ops.base import Location, Operation
from repro.core.ops.scan import Scan
from repro.core.ops.write import Write
from repro.core.program.dag import Placement, TransferProgram


def _topological_search(program: TransferProgram, probe: CostProbe,
                        weights: CostWeights | None,
                        maximize: bool) -> tuple[Placement, float]:
    program.validate()
    weights = resolve_weights(probe, weights)
    w_comp = weights.computation
    w_com = weights.communication
    order = program.topological_order()
    in_edges = [program.in_edges(node) for node in order]

    comp: list[dict[Location, float]] = []
    for node in order:
        comp.append({
            Location.SOURCE: weighted(w_comp, probe.comp_cost(
                node, Location.SOURCE)),
            Location.TARGET: weighted(w_comp, probe.comp_cost(
                node, Location.TARGET)),
        })
    comm = [
        [weighted(w_com, probe.comm_cost(edge.fragment))
         for edge in edges]
        for edges in in_edges
    ]

    # Optimistic per-node bound for the maximizing search: the best a
    # suffix could still add (max location cost + all in-edges crossing).
    if maximize:
        suffix_bound = [0.0] * (len(order) + 1)
        for index in range(len(order) - 1, -1, -1):
            best_here = max(comp[index].values()) + sum(comm[index])
            suffix_bound[index] = suffix_bound[index + 1] + best_here

    best_placement: Placement | None = None
    best_cost = 0.0
    placement: Placement = {}

    def options(index: int) -> tuple[Location, ...]:
        node = order[index]
        if isinstance(node, Scan):
            return (Location.SOURCE,)
        if isinstance(node, Write):
            return (Location.TARGET,)
        all_sources = all(
            placement[edge.producer.op_id] is Location.SOURCE
            for edge in in_edges[index]
        )
        if all_sources:
            return (Location.SOURCE, Location.TARGET)
        return (Location.TARGET,)

    def recurse(index: int, cost: float) -> None:
        nonlocal best_placement, best_cost
        if best_placement is not None:
            if not maximize and cost >= best_cost:
                return
            if maximize and cost + suffix_bound[index] <= best_cost:
                return
        if index == len(order):
            best_placement = dict(placement)
            best_cost = cost
            return
        node = order[index]
        for location in options(index):
            extra = comp[index][location]
            for position, edge in enumerate(in_edges[index]):
                if placement[edge.producer.op_id] is not location:
                    extra += comm[index][position]
            placement[node.op_id] = location
            recurse(index + 1, cost + extra)
            del placement[node.op_id]

    recurse(0, 0.0)
    if best_placement is None:
        raise PlacementError("no legal placement exists for this program")
    return best_placement, best_cost


def cost_based_optim(program: TransferProgram, probe: CostProbe,
                     weights: CostWeights | None = None
                     ) -> tuple[Placement, float]:
    """Exhaustive placement optimization; returns the cheapest legal
    placement and its cost (formula 1).

    Raises:
        PlacementError: if no legal placement exists.
    """
    return _topological_search(program, probe, weights, maximize=False)


def cost_based_pessim(program: TransferProgram, probe: CostProbe,
                      weights: CostWeights | None = None
                      ) -> tuple[Placement, float]:
    """The *worst* placement in the same search space (Section 5.4.2's
    worst-case program baseline)."""
    return _topological_search(program, probe, weights, maximize=True)


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
