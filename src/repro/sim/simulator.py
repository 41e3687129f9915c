"""Estimated-cost exchange simulation (Section 5.4).

:class:`ExchangeSimulator` prices data-exchange and publishing programs
for arbitrary machine-speed configurations.  Everything else is the
paper's one setting: synthetic statistics, the default formula-1
weights and a fast interconnect.

* :meth:`ExchangeSimulator.exchange_costs` — the optimized DE program
  (Algorithm 1 placement over combine orders) vs publishing-only, as
  charted in Figures 10 and 11;
* :meth:`ExchangeSimulator.greedy_quality_trial` — optimal vs greedy vs
  worst-case program costs plus optimizer runtimes, the material of
  Table 5;
* :meth:`ExchangeSimulator.repeated_exchange_costs` — what a stream of
  identical exchanges costs when the negotiated plan is cached: only
  the first exchange pays the optimizer, every later one reuses the
  plan (the amortization argument behind the
  :class:`~repro.services.broker.PlanCache`);
* :meth:`ExchangeSimulator.delta_exchange_costs` — an incremental
  re-exchange over a change-rate sweep, as a fraction of a full one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import (
    CostBreakdown,
    CostModel,
    CostWeights,
    MachineProfile,
)
from repro.core.fragmentation import Fragmentation
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.ops.write import Write
from repro.core.optimizer.search import (
    greedy_exchange,
    optimal_exchange,
    worst_exchange,
)
from repro.core.program.builder import build_transfer_program
from repro.obs.trace import NULL_TRACER, Tracer
from repro.schema.model import SchemaTree
from repro.sim.random_fragmentation import random_fragmentation


@dataclass(slots=True)
class SimulatedCosts:
    """DE vs publishing cost split (the bars of Figures 10/11)."""

    exchange: CostBreakdown
    publish: CostBreakdown

    @property
    def relative_cost(self) -> float:
        """DE total divided by publish total (< 1 means DE wins)."""
        return self.exchange.total / self.publish.total

    @property
    def reduction_percent(self) -> float:
        """Percentage saved by DE over publishing only."""
        return 100.0 * (1.0 - self.relative_cost)


@dataclass(slots=True)
class GreedyQualityTrial:
    """One Table 5 data point."""

    optimal_cost: float
    greedy_cost: float
    worst_cost: float
    optimal_seconds: float
    greedy_seconds: float

    @property
    def worst_over_optimal(self) -> float:
        """The optimization window (Table 5, column 2)."""
        return self.worst_cost / self.optimal_cost

    @property
    def greedy_over_optimal(self) -> float:
        """The greedy quality ratio (Table 5, column 3)."""
        return self.greedy_cost / self.optimal_cost


@dataclass(slots=True)
class AmortizedPlanCosts:
    """Cost of ``n_exchanges`` identical exchanges, with and without a
    negotiated-plan cache."""

    n_exchanges: int
    #: Estimated data cost of one exchange (formula-1 units).
    per_exchange_cost: float
    #: Wall seconds one optimizer run took (paid once when cached).
    optimizer_seconds: float
    #: Total cost without a plan cache: every exchange re-optimizes.
    cold_total: float
    #: Total cost with the cache: exchange 1 optimizes, the rest hit.
    warm_total: float

    @property
    def speedup(self) -> float:
        """Cold total over warm total (>= 1; grows with the stream)."""
        if self.warm_total == 0.0:
            return 1.0
        return self.cold_total / self.warm_total


@dataclass(slots=True)
class DeltaCostEstimate:
    """Predicted cost of one incremental delta re-exchange at a given
    change rate, against re-running the exchange from scratch.

    Change detection is a closure seeded from the version log and
    walked through keyed lookups
    (:func:`~repro.core.delta.compute_delta`), so nothing in a delta
    run is paid per stored row: scans, shipping, splits, combines and
    writes all scale with the fraction of rows that actually changed.
    The estimate is the best case: it leaves out the unchanged rows
    the contribution closure drags along (mutating a spine row
    re-ships its whole subtree)."""

    #: Fraction of source rows changed since the last sync, in [0, 1].
    change_rate: float
    #: One full re-exchange, formula-1 units.
    full_cost: float
    #: Predicted cost of the delta run at this change rate.
    delta_cost: float

    @property
    def relative_cost(self) -> float:
        """Delta over full (< 1 means the delta run wins)."""
        if self.full_cost == 0.0:
            return 1.0
        return self.delta_cost / self.full_cost


class ExchangeSimulator:
    """Prices exchanges over one schema under synthetic statistics.

    Weights are formula 1's defaults and the bandwidth is 100.
    """

    def __init__(self, schema: SchemaTree,
                 tracer: Tracer | None = None) -> None:
        self.schema = schema
        self.statistics = StatisticsCatalog.synthetic(schema)
        self.weights = CostWeights()
        self.tracer = tracer or NULL_TRACER
        # A fast interconnect, as in Section 5.4.2 ("we assumed a fast
        # interconnect network, so computation cost was the major
        # factor").
        self.bandwidth = 100.0

    def model(self, source: MachineProfile,
              target: MachineProfile) -> CostModel:
        """The cost model for one machine configuration."""
        return CostModel(
            self.statistics, source, target, self.weights, self.bandwidth
        )

    # -- Figures 10 / 11 -------------------------------------------------------

    def publish_cost(self, source_fragmentation: Fragmentation,
                     source: MachineProfile,
                     target: MachineProfile) -> CostBreakdown:
        """Publishing only, as in Figures 10/11: the paper prices "a
        single query for producing the document" and "did not try
        optimizing this part" — an unoptimized nested query
        materializes every intermediate result, so each combine is
        charged for the *accumulated* fragment it materializes (not the
        cheap pairwise merge the DE programs use).  The tagged document
        then ships to the requester."""
        from repro.core.cost.model import UNIT_COMBINE, UNIT_SCAN

        whole = Fragmentation.whole_document(self.schema)
        mapping = derive_mapping(source_fragmentation, whole)
        program = build_transfer_program(mapping)
        breakdown = CostBreakdown()
        statistics = self.statistics
        for node in program.nodes:
            if isinstance(node, Write):
                continue  # publishing ends with a shipped document
            if node.kind == "scan":
                work = UNIT_SCAN * statistics.fragment_elements(
                    node.outputs[0]
                )
            elif node.kind == "combine":
                # Materialize the combined intermediate result and
                # re-read it for the next join step (temp-table
                # evaluation of one big unoptimized query).
                work = 2.0 * UNIT_COMBINE * statistics.fragment_elements(
                    node.outputs[0]
                )
            else:  # pragma: no cover - publish programs have no splits
                continue
            cost = self.weights.computation * work / source.speed
            breakdown.computation += cost
            breakdown.by_location[Location.SOURCE] += cost
        document = whole.root_fragment()
        breakdown.communication = (
            self.weights.communication
            * statistics.fragment_size(document) / self.bandwidth
        )
        return breakdown

    def exchange_costs(self, source_fragmentation: Fragmentation,
                       target_fragmentation: Fragmentation,
                       source: MachineProfile, target: MachineProfile
                       ) -> SimulatedCosts:
        """Optimized DE vs publishing-only for one configuration.

        Writes are excluded from the DE side for comparability — the
        publishing-only baseline ends with a shipped document and does
        no storing either.
        """
        model = self.model(source, target)
        mapping = derive_mapping(
            source_fragmentation, target_fragmentation
        )
        with self.tracer.span("optimize exchange", "sim"):
            best = optimal_exchange(mapping, model, self.weights)
        with self.tracer.span("price exchange", "sim"):
            exchange = model.breakdown(best.program, best.placement)
        for node in best.program.nodes:
            if isinstance(node, Write):
                location = best.placement[node.op_id]
                cost = self.weights.computation * model.comp_cost(
                    node, location
                )
                exchange.computation -= cost
                exchange.by_location[location] -= cost
        with self.tracer.span("price publish", "sim"):
            publish = self.publish_cost(
                source_fragmentation, source, target
            )
        return SimulatedCosts(exchange, publish)

    # -- plan-cache amortization ---------------------------------------------------

    def repeated_exchange_costs(
            self, source_fragmentation: Fragmentation,
            target_fragmentation: Fragmentation,
            source: MachineProfile, target: MachineProfile,
            n_exchanges: int) -> AmortizedPlanCosts:
        """Price ``n_exchanges`` identical exchanges under plan caching.

        Without a cache every exchange renegotiates, so each pays the
        measured optimizer runtime on top of its data cost; with a
        :class:`~repro.services.broker.PlanCache` only the first does
        (a cache hit is a lookup, whose cost is noise next to an
        optimizer search).  The cost model's units are seconds
        (work over machine speed, bytes over bandwidth), so optimizer
        wall seconds add onto the estimated data cost directly.
        """
        if n_exchanges < 1:
            raise ValueError(
                f"n_exchanges must be >= 1, got {n_exchanges}"
            )
        model = self.model(source, target)
        mapping = derive_mapping(
            source_fragmentation, target_fragmentation
        )
        with self.tracer.span("optimize exchange", "sim"):
            best = optimal_exchange(mapping, model, self.weights)
        with self.tracer.span("price exchange", "sim"):
            per_exchange = model.breakdown(
                best.program, best.placement
            ).total
        optimizer_seconds = best.elapsed_seconds
        return AmortizedPlanCosts(
            n_exchanges=n_exchanges,
            per_exchange_cost=per_exchange,
            optimizer_seconds=optimizer_seconds,
            cold_total=n_exchanges * (per_exchange + optimizer_seconds),
            warm_total=n_exchanges * per_exchange + optimizer_seconds,
        )

    # -- incremental delta sync ----------------------------------------------------

    def delta_exchange_costs(
            self, source_fragmentation: Fragmentation,
            target_fragmentation: Fragmentation,
            source: MachineProfile, target: MachineProfile,
            change_rates: "list[float] | tuple[float, ...]"
            ) -> list[DeltaCostEstimate]:
        """Price incremental delta syncs over a change-rate sweep.

        For each rate ``r`` in ``change_rates``, predicts what a delta
        re-exchange costs when ``r`` of the source rows changed since
        the last sync.  The full exchange is optimized and priced once
        (Algorithm 1 placement over combine orders); a delta run then
        pays ``r`` of it — detection reads the changed rows and their
        anchors, not the document, and scans, shipping, splits,
        combines and writes all scale with the rows that travel.

        Raises ``ValueError`` on a rate outside [0, 1].
        """
        for rate in change_rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"change rates must be in [0, 1], got {rate}"
                )
        model = self.model(source, target)
        mapping = derive_mapping(
            source_fragmentation, target_fragmentation
        )
        with self.tracer.span("optimize exchange", "sim"):
            best = optimal_exchange(mapping, model, self.weights)
        with self.tracer.span("price exchange", "sim"):
            breakdown = model.breakdown(best.program, best.placement)
        full = breakdown.total
        return [
            DeltaCostEstimate(
                change_rate=rate,
                full_cost=full,
                delta_cost=full * rate,
            )
            for rate in change_rates
        ]

    # -- Table 5 ------------------------------------------------------------------

    def greedy_quality_trial(self, *, n_fragments: int,
                             source: MachineProfile,
                             target: MachineProfile,
                             rng: random.Random
                             ) -> GreedyQualityTrial:
        """One random-fragmentation trial: optimal vs greedy vs worst."""
        source_fragmentation = random_fragmentation(
            self.schema, n_fragments=n_fragments, rng=rng, name="simS"
        )
        target_fragmentation = random_fragmentation(
            self.schema, n_fragments=n_fragments, rng=rng, name="simT"
        )
        model = self.model(source, target)
        mapping = derive_mapping(
            source_fragmentation, target_fragmentation
        )
        found = {}
        for name, search in (("optimal", optimal_exchange),
                             ("worst", worst_exchange),
                             ("greedy", greedy_exchange)):
            with self.tracer.span(f"{name} search", "sim",
                                  n_fragments=n_fragments) as span:
                result = found[name] = search(mapping, model, self.weights)
                span.annotate(
                    programs_considered=result.programs_considered,
                    subproblems=result.subproblems,
                )
        return GreedyQualityTrial(
            optimal_cost=found["optimal"].cost,
            greedy_cost=found["greedy"].cost,
            worst_cost=found["worst"].cost,
            optimal_seconds=found["optimal"].elapsed_seconds,
            greedy_seconds=found["greedy"].elapsed_seconds,
        )
