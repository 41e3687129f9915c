"""The discovery agency — the middleware of Figure 2.

Systems register their WSDL (with the fragmentation extension, step 1);
on a negotiation request the agency derives the source → target mapping
and data transfer program (step 2), probes the endpoints' cost
interfaces (step 3), and returns a plan assigning each operation a
location (step 4).  The agency never sees the systems' internal data
structures — only fragmentations and the cost probe.  With a
:class:`~repro.services.broker.PlanCache` steps 2–4 run once per setup:
a repeat is a lookup keyed by the probe's stated ``signature``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping as MappingType

from repro.errors import NegotiationError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe, EndpointProbe
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.mapping import Mapping, derive_mapping
from repro.core.optimizer.exhaustive import cost_based_optim
from repro.core.optimizer.search import (
    OptimizationResult,
    greedy_exchange,
    optimal_exchange,
)
from repro.core.program.builder import build_transfer_program
from repro.core.program.dag import Placement, TransferProgram
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.schema.model import SchemaTree
from repro.services.broker import PlanCache, plan_fingerprint
from repro.services.endpoint import SystemEndpoint
from repro.wsdl.extension import (
    fragmentation_from_element,
    fragmentation_to_element,
)
from repro.wsdl.model import Definitions, Port, Service, serialize_wsdl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.adapt.stats import StatisticsStore

#: The optimizer strategies negotiate() accepts.
OPTIMIZERS = ("greedy", "optimal", "canonical")


class Registration:
    """One registered system.

    Its WSDL document (the fragmentation extension plus one service
    port) is rendered on first read of :attr:`wsdl` and serialized on
    first read of :attr:`wsdl_text` — negotiation reads neither.  Both
    are cached; two threads racing on a first read render the same
    bytes twice, never different bytes.
    """

    __slots__ = ("name", "fragmentation", "endpoint", "service_name",
                 "_wsdl", "_wsdl_text")

    def __init__(self, name: str, fragmentation: Fragmentation,
                 endpoint: SystemEndpoint | None, service_name: str, *,
                 wsdl: Definitions | None = None,
                 wsdl_text: str | None = None) -> None:
        self.name = name
        self.fragmentation = fragmentation
        self.endpoint = endpoint
        self.service_name = service_name
        self._wsdl = wsdl
        self._wsdl_text = wsdl_text

    @property
    def wsdl(self) -> Definitions:
        """The WSDL document embedding the fragmentation extension."""
        if self._wsdl is None:
            self._wsdl = Definitions(
                name=f"{self.service_name}-{self.name}",
                target_namespace=f"http://{self.name}.example/wsdl",
                types=[fragmentation_to_element(self.fragmentation)],
                services=[
                    Service(
                        self.service_name,
                        documentation=(
                            "Fragment exchange endpoint of system "
                            f"{self.name}"
                        ),
                        ports=[
                            Port(
                                f"{self.service_name}Port",
                                f"tns:{self.service_name}Binding",
                                f"http://{self.name}.example/exchange",
                            )
                        ],
                    )
                ],
            )
        return self._wsdl

    @property
    def wsdl_text(self) -> str:
        """:attr:`wsdl` serialized (for a system registered from a
        document: that document's text, as given)."""
        if self._wsdl_text is None:
            self._wsdl_text = serialize_wsdl(self.wsdl)
        return self._wsdl_text


@dataclass(slots=True)
class ExchangePlan:
    """The agency's answer to a negotiation request."""

    source_name: str
    target_name: str
    mapping: Mapping
    program: TransferProgram
    placement: Placement
    estimated_cost: float
    optimizer: str
    optimizer_seconds: float
    #: Whether the plan was served from a :class:`~repro.services.
    #: broker.PlanCache` instead of a fresh optimization run.
    cached: bool = False

    def annotate(self) -> TransferProgram:
        """Write the placement onto the program and return it (to render)."""
        self.program.apply_placement(self.placement)
        return self.program


class DiscoveryAgency:
    """Registry plus negotiation logic for one agreed XML Schema."""

    def __init__(self, schema: SchemaTree,
                 service_name: str = "DataExchangeService") -> None:
        self.schema = schema
        self.service_name = service_name
        self._registry: dict[str, Registration] = {}

    # -- registration (step 1) ----------------------------------------------------

    def register(self, name: str,
                 fragmentation: Fragmentation | None = None,
                 endpoint: SystemEndpoint | None = None) -> Registration:
        """Register a system.

        A system that provides no fragmentation gets the whole-document
        default (publish&map behaviour, Section 1.1).  The registration's
        WSDL document embeds the fragmentation extension; it is rendered
        when first read.

        Raises:
            NegotiationError: on duplicate names or foreign schemas.
        """
        if name in self._registry:
            raise NegotiationError(f"system {name!r} already registered")
        if fragmentation is None:
            fragmentation = Fragmentation.whole_document(
                self.schema, f"{name}-default"
            )
        if fragmentation.schema is not self.schema:
            # Remote systems re-parse the agreed schema document, so
            # their fragmentations arrive over a structurally identical
            # but distinct SchemaTree.  Accept those by canonical
            # fingerprint and rebind onto this agency's tree (the rest
            # of the pipeline relies on schema identity).
            if not fragmentation.schema.structurally_equal(self.schema):
                raise NegotiationError(
                    f"fragmentation {fragmentation.name!r} is over a "
                    "different schema than this agency's"
                )
            fragmentation = Fragmentation(
                self.schema,
                [
                    Fragment(self.schema, fragment.elements,
                             fragment.name)
                    for fragment in fragmentation
                ],
                fragmentation.name,
            )
        registration = Registration(
            name, fragmentation, endpoint, self.service_name
        )
        self._registry[name] = registration
        return registration

    def register_wsdl(self, name: str, wsdl_text: str,
                      endpoint: SystemEndpoint | None = None
                      ) -> Registration:
        """Register from a serialized WSDL document carrying the
        fragmentation extension (what remote systems actually send).

        Raises:
            NegotiationError: if the document has no fragmentation.
        """
        from repro.wsdl.model import parse_wsdl

        definitions = parse_wsdl(wsdl_text)
        extension = definitions.find_extension("fragmentation")
        if extension is None:
            raise NegotiationError(
                f"WSDL for {name!r} carries no <fragmentation> extension"
            )
        fragmentation = fragmentation_from_element(extension, self.schema)
        if name in self._registry:
            raise NegotiationError(f"system {name!r} already registered")
        registration = Registration(
            name, fragmentation, endpoint, self.service_name,
            wsdl=definitions, wsdl_text=wsdl_text,
        )
        self._registry[name] = registration
        return registration

    def registration(self, name: str) -> Registration:
        """Look up a registered system.

        Raises:
            NegotiationError: if unknown.
        """
        try:
            return self._registry[name]
        except KeyError as exc:
            raise NegotiationError(
                f"system {name!r} is not registered"
            ) from exc

    # -- negotiation (steps 2-4) ------------------------------------------------------

    def negotiate(self, source_name: str, target_name: str, *,
                  optimizer: str = "greedy",
                  probe: CostProbe | None = None,
                  channel: Transport | None = None,
                  weights: CostWeights | None = None,
                  plan_cache: PlanCache | None = None,
                  plan_knobs: MappingType[str, object] | None = None,
                  stats_store: "StatisticsStore | None" = None,
                  metrics: MetricsRegistry | None = None
                  ) -> ExchangePlan:
        """Produce an exchange plan between two registered systems.

        ``probe`` defaults to probing the two endpoints' cost
        interfaces through ``channel`` (both must then be present);
        pass an explicit probe (e.g. a CostModel) to negotiate without
        live endpoints.

        With a ``plan_cache`` the negotiation is memoized: the setup is
        fingerprinted (fragmentations, the probe's ``signature``,
        optimizer, weights plus any ``plan_knobs``) and a hit hands back
        the first negotiation's program and placement, shared and
        read-only, with ``cached=True`` and ``optimizer_seconds=0.0``.
        ``metrics`` counts actual optimizer executions
        (``optimizer.runs`` and ``optimizer.<kind>.runs``, with the plan
        search's ``optimizer.subproblems``), which is how callers assert
        that a warm cache really skipped optimization.

        A ``stats_store`` corrects the *pricing* the optimizer sees
        with the learned per-kind drift ratios for this endpoint pair
        (:meth:`~repro.adapt.stats.StatisticsStore.scaled_probe`).
        The cache fingerprint is still computed from the *base* probe
        — learned ratios evolve with every exchange, and keying the
        cache on them would turn every warm negotiation into a miss.

        Raises:
            NegotiationError: for unknown systems/optimizers or missing
                probes.
        """
        source = self.registration(source_name)
        target = self.registration(target_name)
        if optimizer not in OPTIMIZERS:
            raise NegotiationError(
                f"unknown optimizer {optimizer!r}; expected one of "
                f"{OPTIMIZERS}"
            )
        if probe is None:
            probe = self._endpoint_probe(source, target, channel)
        pricing_probe = probe
        if stats_store is not None:
            from repro.adapt.stats import pair_key

            pricing_probe = stats_store.scaled_probe(
                pair_key(source_name, target_name), probe
            )
        mapping = derive_mapping(
            source.fragmentation, target.fragmentation
        )
        fingerprint = None
        if plan_cache is not None:
            fingerprint = plan_fingerprint(
                source.fragmentation, target.fragmentation, probe,
                optimizer, weights, plan_knobs,
            )
            hit = plan_cache.get(fingerprint)
            if hit is not None:
                return ExchangePlan(
                    source_name,
                    target_name,
                    mapping,
                    hit.program,
                    hit.placement,
                    hit.estimated_cost,
                    hit.optimizer,
                    0.0,
                    cached=True,
                )
        if optimizer == "greedy":
            result = greedy_exchange(mapping, pricing_probe, weights)
        elif optimizer == "optimal":
            result = optimal_exchange(mapping, pricing_probe, weights)
        else:  # canonical order + Algorithm 1 placement
            started = time.perf_counter()
            program = build_transfer_program(mapping)
            placement, cost = cost_based_optim(
                program, pricing_probe, weights
            )
            result = OptimizationResult(
                program, placement, cost, 1, time.perf_counter() - started
            )
        if metrics is not None:
            metrics.counter("optimizer.runs").add(1)
            metrics.counter(f"optimizer.{optimizer}.runs").add(1)
            metrics.counter("optimizer.subproblems").add(
                result.subproblems
            )
        if plan_cache is not None and fingerprint is not None:
            plan_cache.put(
                fingerprint, result.program, result.placement,
                estimated_cost=result.cost, optimizer=optimizer,
            )
        return ExchangePlan(
            source_name,
            target_name,
            mapping,
            result.program,
            result.placement,
            result.cost,
            optimizer,
            result.elapsed_seconds,
        )

    def _endpoint_probe(self, source: Registration,
                        target: Registration,
                        channel: Transport | None) -> CostProbe:
        if source.endpoint is None or target.endpoint is None:
            raise NegotiationError(
                "negotiation needs either an explicit probe or two "
                "registered endpoints"
            )
        if channel is None:
            raise NegotiationError(
                "endpoint probing needs the channel for comm costs"
            )
        statistics = source.endpoint.statistics()
        target.endpoint.use_statistics(statistics)
        return EndpointProbe(
            source.endpoint, target.endpoint, channel, statistics
        )
