"""The greedy algorithm (Section 4.3).

Program creation: starting from G1 (before combines), combines are added
one by one, cheapest first, with each combine's cost estimated *at the
source*.  Distributed processing: repeatedly probe both systems for the
cost of every unassigned operation; the operation with the largest
absolute cost difference is the one most affected by a wrong placement,
so fix it to its preferred location and propagate (upstream to S or
downstream to T).  When no difference is observed, turn the unassigned
edge with the smallest output fragment into the cross-edge — we avoid
shipping large fragments.
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.fragment import Fragment
from repro.core.mapping import Mapping
from repro.core.ops.base import Location, Operation
from repro.core.ops.combine import Combine
from repro.core.optimizer.placement import (
    assign,
    initial_placement,
    resolve_weights,
    unassigned_nodes,
    weighted,
)
from repro.core.program.builder import MergeStep, ProgramBuilder
from repro.core.program.dag import Placement, TransferProgram


def greedy_program(mapping: Mapping, probe: CostProbe) -> TransferProgram:
    """Build one program ordering combines cheapest-first (at S)."""
    builder = ProgramBuilder(mapping)

    def cheapest_merge(items: list[tuple[int, Fragment]]) -> MergeStep:
        best: MergeStep | None = None
        best_cost = float("inf")
        for parent_index, parent_fragment in items:
            for child_index, child_fragment in items:
                if parent_index == child_index:
                    continue
                if not parent_fragment.can_combine(child_fragment):
                    continue
                cost = probe.comp_cost(
                    Combine(parent_fragment, child_fragment),
                    Location.SOURCE,
                )
                if best is None or cost < best_cost:
                    best_cost = cost
                    best = (parent_index, child_index)
        if best is None:
            raise PlacementError(
                "no combinable pair among the remaining pieces"
            )
        return best

    return builder.build(policy=cheapest_merge)


def _try_assign(program: TransferProgram, placement: Placement,
                node: Operation, location: Location) -> bool:
    """Attempt an assignment on a scratch copy; commit only on success."""
    scratch = dict(placement)
    if assign(program, scratch, node, location):
        placement.clear()
        placement.update(scratch)
        return True
    return False


def _fix(program: TransferProgram, placement: Placement,
         node: Operation, preferred: Location) -> None:
    """Place ``node`` at ``preferred``, falling back to the other side.

    Raises:
        PlacementError: if neither side is legal (cannot happen for
            builder-produced programs, but reported rather than looping).
    """
    if _try_assign(program, placement, node, preferred):
        return
    if _try_assign(program, placement, node, preferred.other()):
        return
    raise PlacementError(f"no legal location for {node.label()}")


def greedy_placement(program: TransferProgram, probe: CostProbe,
                     weights: CostWeights | None = None) -> Placement:
    """Greedy distributed processing (Section 4.3); returns a complete
    legal placement.

    Costs are compared under the formula-1 weights (explicit argument,
    else the probe's own, else 1/1 — the same resolution the exhaustive
    search uses): the preference loop ranks operations by their
    *weighted* computation-cost difference, and the tie-break cuts the
    unassigned edge with the smallest *weighted* communication cost.
    A zero ``computation`` weight therefore sends every operation to
    the tie-break (pure communication minimization), mirroring how the
    exhaustive search degenerates under the same weights.
    """
    weights = resolve_weights(probe, weights)
    w_comp = weights.computation
    w_com = weights.communication
    placement = initial_placement(program, pin_scans=True)
    while True:
        pending = unassigned_nodes(program, placement)
        if not pending:
            break
        best_node: Operation | None = None
        best_diff = 0.0
        best_location = Location.SOURCE
        for node in pending:
            at_source = weighted(
                w_comp, probe.comp_cost(node, Location.SOURCE)
            )
            at_target = weighted(
                w_comp, probe.comp_cost(node, Location.TARGET)
            )
            if at_source == at_target:
                continue  # no preference (also covers inf == inf)
            diff = abs(at_source - at_target)
            if diff > best_diff:
                best_diff = diff
                best_node = node
                best_location = (
                    Location.SOURCE if at_source < at_target
                    else Location.TARGET
                )
        if best_node is not None:
            _fix(program, placement, best_node, best_location)
            continue
        # No cost difference anywhere: cut at the cheapest-to-ship edge
        # between two unassigned operations, source side upstream.
        pending_ids = {node.op_id for node in pending}
        candidate_edges = [
            edge for edge in program.edges
            if edge.producer.op_id in pending_ids
            and edge.consumer.op_id in pending_ids
        ]
        if candidate_edges:
            edge = min(
                candidate_edges,
                key=lambda edge: weighted(
                    w_com, probe.comm_cost(edge.fragment)
                ),
            )
            scratch = dict(placement)
            if (assign(program, scratch, edge.producer, Location.SOURCE)
                    and assign(program, scratch, edge.consumer,
                               Location.TARGET)):
                placement = scratch
                continue
        # Isolated unassigned operations (or a failed tie-break): put
        # the first one at the source (ties favour not shipping twice).
        _fix(program, placement, pending[0], Location.SOURCE)
    program.validate_placement(placement)
    return placement
