"""Computation/communication cost model (Section 4.1, formula 1).

``comp_cost(OP, location)`` prices an operation on the system it runs
at; dividing by the machine's relative speed models the heterogeneous
configurations of Section 5.4 (e.g. a 10× faster target, Figure 11).
A *dumb client* — a system without the ability, or intention, to combine
or split — is modeled by infinite cost, exactly as the paper suggests.

``comm_cost(e)`` is the size of the fragment flowing along a cross-edge
(``size(OP1.out)``), optionally scaled by a channel bandwidth.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.ops.base import Location, Operation
from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.core.program.dag import Placement, TransferProgram

INFINITE_COST = math.inf


@dataclass(frozen=True, slots=True)
class MachineProfile:
    """A system's processing profile.

    Attributes:
        name: label used in reports.
        speed: relative processing speed (1.0 = the baseline machine;
            the paper's experiments use ratios 5/1 … 1/5 and ×10).
        can_combine: False models a dumb client (infinite Combine cost).
        can_split: False forbids Split at this system.
        index_factor: extra Write cost factor for index maintenance.
    """

    name: str = "machine"
    speed: float = 1.0
    can_combine: bool = True
    can_split: bool = True
    index_factor: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(
                f"machine speed must be finite and > 0, got {self.speed}"
            )


@dataclass(frozen=True, slots=True)
class CostWeights:
    """The ``w_comp``/``w_com`` weights of formula 1."""

    computation: float = 1.0
    communication: float = 1.0


@dataclass(slots=True)
class CostBreakdown:
    """Cost of a placed program, split as in Figures 10/11."""

    computation: float = 0.0
    communication: float = 0.0
    by_location: dict[Location, float] = field(
        default_factory=lambda: {
            Location.SOURCE: 0.0, Location.TARGET: 0.0,
        }
    )

    @property
    def total(self) -> float:
        """Weighted total (weights already applied by the caller)."""
        return self.computation + self.communication


# Per-element-occurrence unit costs.  Absolute values are arbitrary
# (costs are compared, never interpreted as seconds); ratios reflect
# that combines (joins) dominate scans, as [5, 6] and the paper's
# Section 5 measurements show.
UNIT_SCAN = 1.0
UNIT_COMBINE = 4.0
UNIT_SPLIT = 1.5
UNIT_WRITE = 2.0


def operation_work(op: Operation, statistics: StatisticsCatalog) -> float:
    """Machine-independent work units of one operation.

    Endpoints price their own operations with this same function
    (divided by their speed), so middleware estimates and endpoint
    probes agree by construction.

    Raises:
        TypeError: for unknown operation types.
    """
    if isinstance(op, Scan):
        return UNIT_SCAN * statistics.fragment_elements(op.fragment)
    if isinstance(op, Combine):
        # The engine indexes the parent feed's elements, then attaches
        # each child row: O(|parent elements| + |child rows|).
        return UNIT_COMBINE * (
            statistics.fragment_elements(op.parent_fragment)
            + statistics.fragment_rows(op.child_fragment)
        )
    if isinstance(op, Split):
        return UNIT_SPLIT * statistics.fragment_elements(op.fragment)
    if isinstance(op, Write):
        return UNIT_WRITE * statistics.fragment_elements(op.fragment)
    raise TypeError(f"cannot price operation {op!r}")


class CostModel:
    """Prices operations and whole programs for one exchange setup."""

    def __init__(self, statistics: StatisticsCatalog,
                 source: MachineProfile | None = None,
                 target: MachineProfile | None = None,
                 weights: CostWeights | None = None,
                 bandwidth: float = 1.0) -> None:
        self.statistics = statistics
        self.source = source or MachineProfile("source")
        self.target = target or MachineProfile("target")
        self.weights = weights or CostWeights()
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth

    @property
    def signature(self) -> str:
        """Digest of everything this model's prices depend on: the
        catalog, both machine profiles, the weights and the bandwidth
        (what a plan cache keys a negotiation on)."""
        text = "\n".join([
            self.statistics.signature, repr(self.source),
            repr(self.target), repr(self.weights), repr(self.bandwidth),
        ])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def machine(self, location: Location) -> MachineProfile:
        """The profile of the system at ``location``."""
        return (
            self.source if location is Location.SOURCE else self.target
        )

    # -- comp_cost(OP, location) ------------------------------------------------

    def comp_cost(self, op: Operation, location: Location) -> float:
        """Execution cost of ``op`` at ``location`` (unweighted)."""
        machine = self.machine(location)
        if isinstance(op, Combine) and not machine.can_combine:
            return INFINITE_COST
        if isinstance(op, Split) and not machine.can_split:
            return INFINITE_COST
        work = operation_work(op, self.statistics)
        if isinstance(op, Write):
            work *= machine.index_factor
        return work / machine.speed

    # -- comm_cost(e) --------------------------------------------------------------

    def comm_cost(self, fragment) -> float:
        """Shipping cost of one fragment instance across the channel
        (fragments travel as sorted feeds, Section 4.1)."""
        return (
            self.statistics.fragment_feed_size(fragment) / self.bandwidth
        )

    # -- cost(G), formula 1 -----------------------------------------------------------

    def breakdown(self, program: TransferProgram,
                  placement: Placement) -> CostBreakdown:
        """Weighted computation/communication breakdown of a placement."""
        result = CostBreakdown()
        w_comp = self.weights.computation
        w_com = self.weights.communication
        for node in program.nodes:
            location = placement[node.op_id]
            cost = weighted(w_comp, self.comp_cost(node, location))
            result.computation += cost
            result.by_location[location] += cost
        for edge in program.cross_edges(placement):
            result.communication += weighted(
                w_com, self.comm_cost(edge.fragment)
            )
        return result


def weighted(weight: float, cost: float) -> float:
    """``weight * cost`` with ``0 x inf == 0``: a zero formula-1 weight
    mutes that term outright, never poisoning comparisons with NaN (a
    dumb client prices its Combines at infinity)."""
    if weight == 0.0:
        return 0.0
    return weight * cost
