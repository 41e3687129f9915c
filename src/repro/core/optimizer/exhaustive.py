"""Algorithm 1: ``Cost_Based_Optim`` — exhaustive placement search.

Placement of *one given program*.  The plan search
(:mod:`repro.core.optimizer.search`, the engine) runs it once, on the
program its recurrence picked; run over every program of
:meth:`~repro.core.program.builder.ProgramBuilder.enumerate` it is
the exhaustive *oracle* the tests hold that search equal to — the
paper's own formulation, too slow beyond ~40-node schemas.

:func:`cost_based_optim` searches the same space as the paper's worklist
(kept in its printed form as a test oracle in
``tests/optimizer/oracle.py``) but walks the DAG in topological
order.  A placement is legal iff its source-side node set is downward
closed (no T → S edge), so each non-Scan/Write node can go to S only
when all its producers are at S, and can always go to T;
branch-and-bound prunes with the additive cost.  Both forms return
cost-minimal placements; the worklist is exponentially slower, not
different.

:func:`cost_based_pessim` enumerates the same space keeping the *most*
expensive placement (the optimization-window baseline of Table 5),
pruning with an optimistic upper bound.
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.optimizer.placement import resolve_weights, weighted
from repro.core.ops.base import Location
from repro.core.ops.scan import Scan
from repro.core.ops.write import Write
from repro.core.program.dag import Placement, TransferProgram


def _topological_search(program: TransferProgram, probe: CostProbe,
                        weights: CostWeights | None, maximize: bool
                        ) -> tuple[Placement, float]:
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
