"""The plan search: exact optimum over combine orders and placements.

The best program is the least expensive one among those returned by the
cost-based distributed-processing algorithm across combine orderings
(Section 4.2, last paragraph); the worst program charts the optimization
window (Table 5); the greedy search does both choices heuristically in
one pass (Section 4.3).

This module is the *engine*: it does not enumerate orderings (the paper
reports that doing so "takes too long for XML Schemas with more than 40
nodes") but solves one recurrence, exact because formula 1 is additive,
a ``Combine`` result has exactly one consumer (and ``comp_cost`` /
``comm_cost`` depend only on operand fragments and location), and
``Split`` placements are the only coupling between the target fragments
being assembled.  With every Split placed, each assembly is a tree DP
over the connected subsets of its pieces,

  ``best[P∪C][S] = comp(Combine(P,C), S) + best[P][S] + best[C][S]``
  ``best[P∪C][T] = comp(Combine(P,C), T)
  + Σ_{X∈{P,C}} opt(best[X][T], best[X][S] + comm(X))``

(``opt`` = min for the optimal, max for the worst program; a Scan's or
source-placed Split's piece exists at S only, a target-placed Split's
at T only; the edge into the ``Write`` closes the assembly).  What
stays exponential — one assembly's subsets times the placements of the
Splits feeding it, and the Split placements of one component of the
split–assembly graph — is bounded by :data:`MAX_SEARCH_STATES`: beyond
it the search raises instead of approximating.  The long form is
docs/architecture.md § Plan search.

The winning merge steps are materialized into **one** program, and the
reported placement and cost are ``Cost_Based_Optim``'s (or its pessimal
twin's) on it — a formula-1 evaluation, checked against the
recurrence's own total.  The enumerator
(:meth:`~repro.core.program.builder.ProgramBuilder.enumerate` ×
:mod:`repro.core.optimizer.exhaustive`) is the oracle the property
tests hold this search equal to.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import PlacementError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.fragment import Fragment
from repro.core.mapping import Mapping
from repro.core.ops.base import Location, Operation
from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.core.optimizer.exhaustive import (
    cost_based_optim,
    cost_based_pessim,
)
from repro.core.optimizer.greedy import greedy_placement, greedy_program
from repro.core.optimizer.placement import (
    placement_cost,
    resolve_weights,
    weighted,
)
from repro.core.program.builder import Assembly, MergeStep, ProgramBuilder
from repro.core.program.dag import Placement, TransferProgram

#: Most states one search may visit per assembly table / per component
#: of coupled Splits before it refuses (never a silent non-optimum).
MAX_SEARCH_STATES = 1 << 20

#: State tuples index locations by position.
_LOCATIONS = (Location.SOURCE, Location.TARGET)
_S, _T = 0, 1


@dataclass(slots=True)
class OptimizationResult:
    """A chosen program with its placement and estimated cost.

    ``programs_considered`` counts complete programs materialized and
    placed; ``subproblems`` counts the ``(piece subset, location)``
    states the plan search priced (0 for the greedy search).
    """

    program: TransferProgram
    placement: Placement
    cost: float
    programs_considered: int
    elapsed_seconds: float
    subproblems: int = 0

    def annotate(self) -> TransferProgram:
        """Write the placement onto the program nodes and return it."""
        self.program.apply_placement(self.placement)
        return self.program


class _AssemblySearch:
    """The tree DP for one dangling target fragment.

    Pieces are numbered as in the assembly; a subset of them is a
    bitmask.  A subset can be produced iff it is connected in the piece
    tree, and its last ``Combine(P, C)`` cuts one tree edge: ``C`` is
    the part of the subset under the edge, ``P`` the rest.
    """

    def __init__(self, assembly: Assembly, piece_slots: list[int | None],
                 depth_of: Callable[[str], int],
                 comp: Callable[[Operation, int], float],
                 comm: Callable[[Fragment], float],
                 maximize: bool) -> None:
        self.target = assembly.target
        pieces = assembly.fragments
        self._piece_slots = piece_slots
        #: The Splits (by slot) whose placement this assembly depends on.
        self.slots = sorted(
            {slot for slot in piece_slots if slot is not None}
        )
        self._comp = comp
        self._comm = comm
        self._better = operator.gt if maximize else operator.lt
        self._fragments = {
            1 << index: piece for index, piece in enumerate(pieces)
        }
        self._combine_costs: dict[tuple[int, int], tuple[float, float]] = {}
        self._comm_costs: dict[int, float] = {}
        self._full = (1 << len(pieces)) - 1

        self._parent: list[int | None] = [None] * len(pieces)
        for index, piece in enumerate(pieces):
            above = piece.parent_element()
            for other_index, other in enumerate(pieces):
                if other_index != index and above in other.elements:
                    self._parent[index] = other_index
        # Children before parents: a piece's root is deeper than the
        # root of the piece holding its parent element.
        self._subtree = [1 << index for index in range(len(pieces))]
        rooted = [1] * len(pieces)  # connected subsets topped by a piece
        for index in sorted(
                range(len(pieces)),
                key=lambda index: -depth_of(pieces[index].root_name)):
            parent = self._parent[index]
            if parent is not None:
                self._subtree[parent] |= self._subtree[index]
                rooted[parent] *= 1 + rooted[index]
        states = 2 * sum(rooted) << len(self.slots)
        if states > MAX_SEARCH_STATES:
            raise PlacementError(
                f"assembling target fragment {self.target.name!r} from "
                f"{len(pieces)} pieces fed by {len(self.slots)} Split(s) "
                f"needs {states} plan-search states (limit "
                f"{MAX_SEARCH_STATES}); use the greedy optimizer"
            )
        #: ``(subset, location)`` states priced: all of them, once.
        self.subproblems = states
        #: Optimum of this assembly (edge into the Write included) per
        #: placement of ``slots``.
        self.table = {
            locations: self._arrive(
                self._full, self._solve(locations)[self._full]
            )[0]
            for locations in itertools.product(
                (_S, _T), repeat=len(self.slots)
            )
        }

    def _combine_cost(self, rest: int, child: int) -> tuple[float, float]:
        """Weighted ``comp(Combine(rest, child), ·)`` at S and at T.
        Both operands are solved first, so their fragments exist."""
        cost = self._combine_costs.get((rest, child))
        if cost is None:
            combine = Combine(
                self._fragments[rest], self._fragments[child],
                result=self._fragments.get(rest | child),
            )
            self._fragments[rest | child] = combine.result
            cost = (self._comp(combine, _S), self._comp(combine, _T))
            self._combine_costs[(rest, child)] = cost
        return cost

    def _arrive(self, mask: int, state: tuple) -> tuple[float, int]:
        """Cost of having ``mask`` at the target, and where it was
        produced: there already, or at the source and shipped."""
        at_source, at_target = state[_S], state[_T]
        if at_source is None:
            return at_target, _T
        shipping = self._comm_costs.get(mask)
        if shipping is None:
            shipping = self._comm_costs[mask] = self._comm(
                self._fragments[mask]
            )
        shipped = at_source + shipping
        if at_target is None or self._better(shipped, at_target):
            return shipped, _S
        return at_target, _T

    def _solve(self, locations: tuple[int, ...]) -> dict[int, tuple]:
        """``{subset: (best at S, best at T, cut for S, cut for T)}``
        under one placement of the assembly's Splits; ``None`` marks a
        location the subset cannot be produced at, a cut is the child
        side of the last Combine."""
        placed = dict(zip(self.slots, locations))
        memo: dict[int, tuple] = {
            1 << index: (
                (None, 0.0, 0, 0) if placed.get(slot) == _T
                else (0.0, None, 0, 0)
            )
            for index, slot in enumerate(self._piece_slots)
        }
        better = self._better

        def visit(mask: int) -> tuple:
            state = memo.get(mask)
            if state is not None:
                return state
            best = [None, None]
            cut = [0, 0]
            for index, parent in enumerate(self._parent):
                if (not mask >> index & 1 or parent is None
                        or not mask >> parent & 1):
                    continue
                child = mask & self._subtree[index]
                rest = mask ^ child
                rest_state, child_state = visit(rest), visit(child)
                costs = self._combine_cost(rest, child)
                candidates = [
                    None,
                    costs[_T] + self._arrive(rest, rest_state)[0]
                    + self._arrive(child, child_state)[0],
                ]
                if (rest_state[_S] is not None
                        and child_state[_S] is not None):
                    candidates[_S] = (
                        costs[_S] + rest_state[_S] + child_state[_S]
                    )
                for where, cost in enumerate(candidates):
                    if cost is not None and (
                            best[where] is None
                            or better(cost, best[where])):
                        best[where] = cost
                        cut[where] = child
            state = memo[mask] = (best[_S], best[_T], cut[_S], cut[_T])
            return state

        visit(self._full)
        return memo

    def steps(self, placed: dict[int, int]) -> list[MergeStep]:
        """The winning merge steps under the chosen Split placement."""
        memo = self._solve(tuple(placed[slot] for slot in self.slots))
        n_pieces = len(self._piece_slots)
        steps: list[MergeStep] = []

        def emit(mask: int, where: int) -> int:
            if not mask & (mask - 1):
                return mask.bit_length() - 1
            child = memo[mask][2 + where]
            rest = mask ^ child
            if where == _S:
                rest_at = child_at = _S
            else:
                rest_at = self._arrive(rest, memo[rest])[1]
                child_at = self._arrive(child, memo[child])[1]
            steps.append((emit(rest, rest_at), emit(child, child_at)))
            return n_pieces + len(steps) - 1

        emit(self._full, self._arrive(self._full, memo[self._full])[1])
        return steps


def _coupled_components(searches: list[_AssemblySearch], n_slots: int
                        ) -> list[tuple[list[int], list[_AssemblySearch]]]:
    """Connected components of the split–assembly graph: the Splits
    (slots) whose placements interact, with the assemblies they feed."""
    groups = [{slot} for slot in range(n_slots)]
    for search in searches:
        touched = [group for group in groups if group & set(search.slots)]
        if len(touched) > 1:
            groups = [group for group in groups if group not in touched]
            groups.append(set().union(*touched))
    return [
        (sorted(group), [
            search for search in searches
            if search.slots and search.slots[0] in group
        ])
        for group in groups
    ]


def _place_splits(slots: list[int], searches: list[_AssemblySearch],
                  own_costs: list[list[float]], maximize: bool
                  ) -> tuple[float, dict[int, int]]:
    """Best placement of one component's Splits: depth-first, an
    assembly's table entry added when its last Split is placed, pruned
    by what the rest can add at best (each remaining Split's and
    assembly's own optimum — admissible because costs only add up)."""
    pick, better = (
        (max, operator.gt) if maximize else (min, operator.lt)
    )
    position = {slot: index for index, slot in enumerate(slots)}
    closing: list[list[_AssemblySearch]] = [[] for _ in slots]
    for search in searches:
        closing[max(position[slot] for slot in search.slots)].append(search)
    rest = [0.0] * (len(slots) + 1)
    for index in range(len(slots) - 1, -1, -1):
        rest[index] = rest[index + 1] + pick(own_costs[slots[index]]) + sum(
            pick(search.table.values()) for search in closing[index]
        )
    best_cost: float | None = None
    best_placed: dict[int, int] = {}
    placed: dict[int, int] = {}
    visited = 0

    def recurse(index: int, cost: float) -> None:
        nonlocal best_cost, best_placed, visited
        visited += 1
        if visited > MAX_SEARCH_STATES:
            raise PlacementError(
                f"placing {len(slots)} coupled Splits exceeded "
                f"{MAX_SEARCH_STATES} plan-search states; use the "
                "greedy optimizer"
            )
        if best_cost is not None and not better(
                cost + rest[index], best_cost):
            return
        if index == len(slots):
            best_cost, best_placed = cost, dict(placed)
            return
        slot = slots[index]
        for where in (_S, _T):
            placed[slot] = where
            recurse(index + 1, cost + own_costs[slot][where] + sum(
                search.table[tuple(placed[s] for s in search.slots)]
                for search in closing[index]
            ))
        del placed[slot]

    recurse(0, 0.0)
    assert best_cost is not None  # the first leaf is never pruned
    return best_cost, best_placed


def _plan_search(mapping: Mapping, probe: CostProbe,
                 weights: CostWeights | None,
                 maximize: bool) -> OptimizationResult:
    started = time.perf_counter()
    weights = resolve_weights(probe, weights)

    def comp(node: Operation, where: int) -> float:
        return weighted(
            weights.computation, probe.comp_cost(node, _LOCATIONS[where])
        )

    def comm(fragment: Fragment) -> float:
        return weighted(weights.communication, probe.comm_cost(fragment))

    builder = ProgramBuilder(mapping)
    skeleton, assemblies = builder.skeleton()
    # What the skeleton costs whatever the search decides, and what
    # each Split adds by itself at S / at T (its edge from the Scan
    # crosses when it runs at T, its edges straight into Writes when
    # it runs at S).
    fixed = 0.0
    slot_of: dict[int, int] = {}
    own_costs: list[list[float]] = []
    for node in skeleton.nodes:
        if isinstance(node, Scan):
            fixed += comp(node, _S)
        elif isinstance(node, Write):
            fixed += comp(node, _T)
        elif isinstance(node, Split):
            slot_of[node.op_id] = len(own_costs)
            own_costs.append([comp(node, _S), comp(node, _T)])
    for edge in skeleton.edges:
        if isinstance(edge.consumer, Split):
            own_costs[slot_of[edge.consumer.op_id]][_T] += comm(edge.fragment)
        elif isinstance(edge.producer, Split):
            own_costs[slot_of[edge.producer.op_id]][_S] += comm(edge.fragment)
        else:
            fixed += comm(edge.fragment)

    searches = [
        _AssemblySearch(
            assembly,
            [slot_of.get(port[0].op_id) for port in assembly.ports],
            builder.schema.depth, comp, comm, maximize,
        )
        for assembly in assemblies
    ]
    total = fixed
    placed: dict[int, int] = {}
    for search in searches:
        if not search.slots:
            total += search.table[()]
    for slots, coupled in _coupled_components(searches, len(own_costs)):
        cost, best = _place_splits(slots, coupled, own_costs, maximize)
        total += cost
        placed.update(best)

    program = builder.materialize(
        {search.target.name: search.steps(placed) for search in searches},
        skeleton=(skeleton, assemblies),
    )
    place = cost_based_pessim if maximize else cost_based_optim
    placement, cost = place(program, probe, weights)
    if not math.isclose(cost, total, rel_tol=1e-9):
        raise PlacementError(
            f"plan search priced its program at {total!r} but "
            f"placing it costs {cost!r}"
        )
    return OptimizationResult(
        program, placement, cost, 1, time.perf_counter() - started,
        sum(search.subproblems for search in searches),
    )


def optimal_exchange(mapping: Mapping, probe: CostProbe,
                     weights: CostWeights | None = None
                     ) -> OptimizationResult:
    """The cheapest program over every combine order and every legal
    placement (exact; see the module docstring).

    Raises:
        PlacementError: when one target fragment's assembly or one
            component of coupled Splits exceeds
            :data:`MAX_SEARCH_STATES`.
    """
    return _plan_search(mapping, probe, weights, maximize=False)


def worst_exchange(mapping: Mapping, probe: CostProbe,
                   weights: CostWeights | None = None
                   ) -> OptimizationResult:
    """The most expensive program in the same search space (used to
    assess the optimization opportunity, Section 5.4.2)."""
    return _plan_search(mapping, probe, weights, maximize=True)


def greedy_exchange(mapping: Mapping, probe: CostProbe,
                    weights: CostWeights | None = None
                    ) -> OptimizationResult:
    """Greedy combine ordering + greedy placement (milliseconds even on
    large schemas, Section 5.4.2)."""
    started = time.perf_counter()
    program = greedy_program(mapping, probe)
    placement = greedy_placement(program, probe, weights)
    cost = placement_cost(program, placement, probe, weights)
    return OptimizationResult(
        program, placement, cost, 1, time.perf_counter() - started
    )
