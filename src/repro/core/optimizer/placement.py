"""Shared placement machinery for the optimizers.

A placement assigns every operation to S or T.  Legality (Section 4.1):
Scans at the source, Writes at the target, and no T → S edge — data
ships one way.  Assigning an operation to S therefore forces its entire
upstream to S; assigning to T forces its downstream to T.  Both
propagations detect conflicts with earlier assignments, which the
optimizers use to prune illegal branches.
"""

from __future__ import annotations

from repro.core.cost.model import CostWeights, weighted
from repro.core.cost.probe import CostProbe
from repro.core.ops.base import Location, Operation
from repro.core.ops.scan import Scan
from repro.core.ops.write import Write
from repro.core.program.dag import Placement, TransferProgram


def initial_placement(program: TransferProgram,
                      pin_scans: bool = False) -> Placement:
    """Algorithm 1's starting point: all Writes pinned to the target.

    Scans can only ever run at the source, but Algorithm 1 leaves them
    unassigned so that *branching on a Scan* produces the placements
    that ship raw fragments (everything downstream at T).  The greedy
    heuristic pins them immediately (``pin_scans=True``) — the "obvious
    choices" of Section 4.2.
    """
    placement: Placement = {}
    for node in program.nodes:
        if isinstance(node, Write):
            placement[node.op_id] = Location.TARGET
        elif pin_scans and isinstance(node, Scan):
            placement[node.op_id] = Location.SOURCE
    return placement


def source_heavy_placement(program: TransferProgram) -> Placement:
    """The Section 5.3 outcome as a fixed plan: everything except the
    Writes runs at the source.  The experiment harness uses this to
    reproduce the paper's measured configuration exactly (Table 3's
    "communicated fragments depend only on the fragmentation of the
    target"); the optimizer is free to do better (e.g. splitting at the
    target when the source feeds are smaller to ship)."""
    return {
        node.op_id: (
            Location.TARGET if isinstance(node, Write)
            else Location.SOURCE
        )
        for node in program.nodes
    }


def assign(program: TransferProgram, placement: Placement,
           node: Operation, location: Location) -> bool:
    """Assign ``node`` to ``location`` and propagate the closure.

    Source assignments pull the upstream to S; target assignments push
    the downstream to T (lines 8–12 of Algorithm 1).  Returns False —
    leaving ``placement`` partially updated — when the assignment
    conflicts with an existing one; callers treat that as a pruned
    branch (they work on copies).
    """
    existing = placement.get(node.op_id)
    if existing is not None:
        return existing is location
    placement[node.op_id] = location
    if location is Location.SOURCE:
        closure = program.upstream_closure(node)
    else:
        closure = program.downstream_closure(node)
    for op_id in closure:
        current = placement.get(op_id)
        if current is None:
            placement[op_id] = location
        elif current is not location:
            return False
    return True


def unassigned_nodes(program: TransferProgram,
                     placement: Placement) -> list[Operation]:
    """Operations without a location yet, in topological order."""
    order = program.topological_order()
    return [node for node in order if node.op_id not in placement]


def resolve_weights(probe: CostProbe,
                    weights: CostWeights | None) -> CostWeights:
    """Explicit weights win; otherwise inherit the probe's own (a
    CostModel carries its weights), falling back to 1/1."""
    if weights is not None:
        return weights
    probe_weights = getattr(probe, "weights", None)
    if isinstance(probe_weights, CostWeights):
        return probe_weights
    return CostWeights()


def placement_cost(program: TransferProgram, placement: Placement,
                   probe: CostProbe,
                   weights: CostWeights | None = None) -> float:
    """Formula 1 for an arbitrary probe (the optimizers' objective)."""
    weights = resolve_weights(probe, weights)
    computation = sum(
        probe.comp_cost(node, placement[node.op_id])
        for node in program.nodes
    )
    communication = sum(
        probe.comm_cost(edge.fragment)
        for edge in program.cross_edges(placement)
    )
    return (
        weighted(weights.computation, computation)
        + weighted(weights.communication, communication)
    )
