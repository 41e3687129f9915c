"""Negotiated-plan cache and multi-session exchange broker.

The paper's agency derives one transfer program per source/target pair
and re-optimizes from scratch on every exchange (Section 4,
Algorithm 1) — fine for a one-shot negotiation, wasteful when the same
fragmentation pair exchanges documents thousands of times.  Mediation
architectures over XML sources amortize mediation plans across
requests; this module does the same for negotiated exchange plans:

* :class:`PlanCache` keys optimized ``TransferProgram`` + ``Placement``
  pairs on a deterministic :class:`PlanFingerprint` of (schema, source
  fragmentation, target fragmentation, probe cost signature, optimizer
  kind, formula-1 weights, executor knobs).  Entries store the plan
  through the :mod:`repro.core.program.serialize` round-trip — loads
  re-validate structure and placement legality, and every session gets
  its own program object.  Eviction is LRU; hit/miss/evict/invalidate
  counts feed a :class:`~repro.obs.metrics.MetricsRegistry`.

* :class:`ExchangeBroker` runs N concurrent exchange sessions against
  one :class:`~repro.services.agency.DiscoveryAgency` on a bounded
  worker budget with simple admission control (reject — or block — at
  ``max_pending`` in-flight sessions).  Each session negotiates through
  the shared plan cache (the first pays ``optimizer_seconds``, cache
  hits do not) and executes on its *own* channel — the shared-channel
  ``reset()`` hazard cannot arise — and its own target store.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import BrokerError, BrokerSaturatedError
from repro.core.cost.model import CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.fragmentation import Fragmentation
from repro.core.mapping import Mapping as FragmentMapping
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.optimizer.placement import resolve_weights
from repro.core.program.builder import build_transfer_program
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.serialize import (
    program_from_json,
    program_to_json,
)
from repro.net.transport import SimulatedChannel, Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.schema.model import SchemaTree
from repro.services.endpoint import SystemEndpoint
from repro.services.exchange import (
    ExchangeOutcome,
    run_optimized_exchange,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.adapt.stats import StatisticsStore
    from repro.core.program.journal import ExchangeJournal
    from repro.net.faults import FaultPlan, RetryPolicy
    from repro.services.agency import DiscoveryAgency, ExchangePlan

__all__ = [
    "PlanFingerprint",
    "CachedPlan",
    "PlanCache",
    "plan_fingerprint",
    "ExchangeSession",
    "ExchangeBroker",
]


# -- fingerprinting ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlanFingerprint:
    """A deterministic cache key for one negotiation setup.

    ``digest`` identifies the full setup; ``cost_signature`` is the
    probe-derived component alone, which :meth:`PlanCache.invalidate`
    can drop by (every plan optimized under one probe, whatever the
    optimizer knobs).
    """

    digest: str
    cost_signature: str


def _fragmentation_token(fragmentation: Fragmentation) -> str:
    """Canonical text form: fragments by name with sorted elements."""
    fragments = ";".join(
        f"{fragment.name}={','.join(sorted(fragment.elements))}"
        for fragment in sorted(
            fragmentation.fragments, key=lambda f: f.name
        )
    )
    return f"{fragmentation.name}:{fragments}"


def _cost_signature(mapping: FragmentMapping,
                    probe: CostProbe) -> str:
    """Hash the probe's answers over the canonical transfer program.

    The probe is opaque (a cost model, or two live endpoints behind a
    channel), so the signature samples it: ``comp_cost`` of every
    canonical-program operation at both locations plus ``comm_cost`` of
    every fragment an edge carries, in topological order.  Two probes
    that answer identically — the only thing the optimizers can see —
    get the same signature.
    """
    program = build_transfer_program(mapping)
    readings: list[str] = []
    for node in program.topological_order():
        source = probe.comp_cost(node, Location.SOURCE)
        target = probe.comp_cost(node, Location.TARGET)
        readings.append(f"{node.label()}|{source:.9g}|{target:.9g}")
    seen: set[str] = set()
    for edge in program.edges:
        name = edge.fragment.name
        if name in seen:
            continue
        seen.add(name)
        readings.append(f"{name}~{probe.comm_cost(edge.fragment):.9g}")
    return hashlib.sha256(
        "\n".join(readings).encode("utf-8")
    ).hexdigest()


def plan_fingerprint(source: Fragmentation, target: Fragmentation,
                     probe: CostProbe, optimizer: str,
                     weights: CostWeights | None = None,
                     knobs: Mapping[str, object] | None = None,
                     mapping: FragmentMapping | None = None
                     ) -> PlanFingerprint:
    """Fingerprint one negotiation setup.

    ``knobs`` carries whatever else the plan's consumer keys on (the
    broker passes its executor knobs); it must be JSON-serializable.
    ``mapping`` avoids re-deriving when the caller already holds the
    source → target mapping.
    """
    if mapping is None:
        mapping = derive_mapping(source, target)
    resolved = resolve_weights(probe, weights)
    signature = _cost_signature(mapping, probe)
    parts = "\n".join([
        source.schema.fingerprint(),
        _fragmentation_token(source),
        _fragmentation_token(target),
        signature,
        f"optimizer={optimizer}",
        f"weights={resolved.computation:.9g}/{resolved.communication:.9g}",
        "knobs=" + json.dumps(
            dict(knobs or {}), sort_keys=True, default=str
        ),
    ])
    digest = hashlib.sha256(parts.encode("utf-8")).hexdigest()
    return PlanFingerprint(digest, signature)


# -- the cache ---------------------------------------------------------------------


@dataclass(slots=True)
class CachedPlan:
    """One cached negotiation result.

    ``payload`` is the serialized program + placement (the
    :mod:`repro.core.program.serialize` JSON form); ``optimizer_seconds``
    is what the cold negotiation paid, kept so amortization reports can
    charge it to the first exchange only.
    """

    payload: str
    estimated_cost: float
    optimizer: str
    optimizer_seconds: float
    cost_signature: str
    hits: int = 0


class PlanCache:
    """LRU cache of negotiated exchange plans, keyed by fingerprint.

    Thread-safe: the broker's sessions share one cache.  Counters are
    kept locally (``hits``/``misses``/``evictions``)
    and mirrored into ``metrics`` as ``plancache.*`` counters when a
    registry is supplied.
    """

    def __init__(self, capacity: int = 128,
                 metrics: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.Lock()

    def _count(self, event: str, amount: int = 1) -> None:
        setattr(self, event, getattr(self, event) + amount)
        if self.metrics is not None:
            self.metrics.counter(f"plancache.{event}").add(amount)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    fingerprint = staticmethod(plan_fingerprint)

    def get(self, fingerprint: PlanFingerprint) -> CachedPlan | None:
        """The cached entry for ``fingerprint`` (LRU-touched), else
        ``None``.  Counts a hit or a miss either way."""
        with self._lock:
            entry = self._entries.get(fingerprint.digest)
            if entry is None:
                self._count("misses")
                return None
            self._entries.move_to_end(fingerprint.digest)
            entry.hits += 1
            self._count("hits")
            return entry

    def load(self, fingerprint: PlanFingerprint, schema: SchemaTree
             ) -> tuple[TransferProgram, Placement, CachedPlan] | None:
        """Deserialize a cached plan against the agreed ``schema``.

        Every load round-trips through the serializer, so the caller
        gets a *fresh* program object (concurrent sessions never share
        one) and the placement is re-validated on the way in.
        """
        entry = self.get(fingerprint)
        if entry is None:
            return None
        program, placement = program_from_json(entry.payload, schema)
        assert placement is not None  # put() always stores locations
        return program, placement, entry

    def put(self, fingerprint: PlanFingerprint,
            program: TransferProgram, placement: Placement, *,
            estimated_cost: float, optimizer: str,
            optimizer_seconds: float) -> CachedPlan:
        """Store one optimized plan, evicting the LRU tail beyond
        ``capacity``."""
        entry = CachedPlan(
            payload=program_to_json(program, placement),
            estimated_cost=estimated_cost,
            optimizer=optimizer,
            optimizer_seconds=optimizer_seconds,
            cost_signature=fingerprint.cost_signature,
        )
        with self._lock:
            self._entries[fingerprint.digest] = entry
            self._entries.move_to_end(fingerprint.digest)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._count("evictions")
        return entry

    def stats(self) -> dict[str, int]:
        """Counter snapshot plus current size."""
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# -- the broker --------------------------------------------------------------------


@dataclass(slots=True)
class ExchangeSession:
    """The result of one brokered exchange session."""

    session_id: int
    source_name: str
    target_name: str
    outcome: ExchangeOutcome
    target: SystemEndpoint
    #: Whether negotiation was served from the plan cache.
    cached: bool
    #: Time spent negotiating (cache lookup included).
    negotiation_seconds: float
    #: What the optimizer itself cost this session (0.0 on cache hits).
    optimizer_seconds: float
    estimated_cost: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Per-session latency: negotiation plus the exchange run."""
        return self.negotiation_seconds + self.outcome.total_seconds


class ExchangeBroker:
    """Run concurrent exchange sessions over one discovery agency.

    Sessions share the agency (and its registered source endpoints)
    plus the optional :class:`PlanCache`; each session gets its *own*
    channel (from ``channel_factory``) and its own target endpoint
    (from the per-request factory), so no session ever resets or
    double-counts another's wire.  ``max_workers`` bounds concurrent
    execution; ``max_pending`` bounds admitted-but-unfinished sessions
    — :meth:`submit` beyond it either raises
    :class:`~repro.errors.BrokerSaturatedError` or, with ``wait=True``,
    blocks until capacity frees (what :meth:`run` does).  Sessions
    negotiate with the greedy optimizer and the default formula-1
    weights.
    """

    def __init__(self, agency: "DiscoveryAgency", *,
                 plan_cache: PlanCache | None = None,
                 max_workers: int = 4,
                 max_pending: int | None = None,
                 probe: CostProbe | None = None,
                 channel_factory: Callable[[], Transport]
                 = SimulatedChannel,
                 batch_rows: int | None = None,
                 retry_policy: "RetryPolicy | None" = None,
                 fault_plan: "FaultPlan | None" = None,
                 stats_store: "StatisticsStore | None" = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        if max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if max_pending is None:
            max_pending = 2 * max_workers
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        # Every session would fail on these; refuse them up front.
        if batch_rows is not None and batch_rows < 1:
            raise ValueError("batch_rows must be >= 1 or None")
        self.agency = agency
        self.plan_cache = plan_cache
        self.max_workers = max_workers
        self.max_pending = max_pending
        self.probe = probe
        self.channel_factory = channel_factory
        self.batch_rows = batch_rows
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.stats_store = stats_store
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self._next_session = 0
        self._inflight = 0
        self._closed = False
        self._capacity = threading.Condition()
        # Negotiation is serialized: the agency and plan cache are
        # shared, and a single negotiation is orders of magnitude
        # cheaper than the exchange it plans (cache hits doubly so).
        self._negotiation_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="exchange-broker",
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Finish in-flight sessions and refuse new ones."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ExchangeBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- admission control ----------------------------------------------------

    def _admit(self, wait: bool) -> None:
        with self._capacity:
            while self._inflight >= self.max_pending:
                if not wait:
                    self.rejected += 1
                    if self.metrics is not None:
                        self.metrics.counter("broker.rejected").add(1)
                    raise BrokerSaturatedError(
                        f"broker at max_pending={self.max_pending} "
                        f"in-flight sessions; retry later or submit "
                        f"with wait=True"
                    )
                self._capacity.wait()
            self._inflight += 1
            self.admitted += 1
        if self.metrics is not None:
            self.metrics.counter("broker.admitted").add(1)
            self.metrics.gauge("broker.inflight").add(1)

    def _release(self) -> None:
        with self._capacity:
            self._inflight -= 1
            self.completed += 1
            self._capacity.notify_all()
        if self.metrics is not None:
            self.metrics.counter("broker.completed").add(1)
            self.metrics.gauge("broker.inflight").add(-1)

    # -- sessions -------------------------------------------------------------

    def submit(self, source_name: str, target_name: str,
               target_factory: Callable[[], SystemEndpoint], *,
               scenario: str | None = None,
               wait: bool = False,
               delta: bool = False,
               journal: "ExchangeJournal | None" = None,
               since: int | None = None
               ) -> "Future[ExchangeSession]":
        """Admit one session and schedule it on the worker pool.

        ``target_factory`` builds the session's private target endpoint
        (sessions concurrently bulk-loading one shared store would
        interleave their appends; a fresh store per requester is the
        multi-user serving model).  Returns a future resolving to the
        session's :class:`ExchangeSession`.

        ``delta=True`` runs an incremental session.  It reuses the
        cached plan of its full predecessor (delta is not part of the
        plan fingerprint: a delta run executes the same negotiated
        program over a filtered feed) and runs it through the delta
        views; pass the exchange's ``journal`` so the session resolves
        ``since`` from (and records its sync into) the right
        high-water record, and note the ``target_factory`` must then
        return the *same* target the previous sync wrote.

        Raises:
            BrokerError: if the broker is closed or the source system
                has no registered endpoint.
            BrokerSaturatedError: when admission control rejects the
                session (``wait=False`` and ``max_pending`` reached).
        """
        if self._closed:
            raise BrokerError("broker is closed")
        source = self.agency.registration(source_name)
        if source.endpoint is None:
            raise BrokerError(
                f"system {source_name!r} registered no endpoint; the "
                "broker needs one to run exchanges"
            )
        self._admit(wait)
        with self._capacity:
            session_id = self._next_session
            self._next_session += 1
        try:
            return self._pool.submit(
                self._run_session, session_id, source_name,
                target_name, target_factory,
                scenario or f"{source_name}->{target_name}",
                delta,
                journal,
                since,
            )
        except BaseException:
            self._release()
            raise

    def run(self, requests: Sequence[tuple[
            str, str, Callable[[], SystemEndpoint]]]
            ) -> list[ExchangeSession]:
        """Run a batch of ``(source, target, target_factory)`` requests
        and return their sessions in request order, blocking at the
        admission gate instead of rejecting."""
        futures = [
            self.submit(source_name, target_name, target_factory,
                        wait=True)
            for source_name, target_name, target_factory in requests
        ]
        return [future.result() for future in futures]

    def _run_session(self, session_id: int, source_name: str,
                     target_name: str,
                     target_factory: Callable[[], SystemEndpoint],
                     scenario: str,
                     delta: bool = False,
                     journal: "ExchangeJournal | None" = None,
                     since: int | None = None
                     ) -> ExchangeSession:
        try:
            with self.tracer.span("broker session", "broker",
                                  session=session_id,
                                  scenario=scenario):
                started = time.perf_counter()
                with self._negotiation_lock:
                    plan = self.agency.negotiate(
                        source_name, target_name,
                        probe=self.probe,
                        plan_cache=self.plan_cache,
                        plan_knobs={"batch_rows": self.batch_rows},
                        stats_store=self.stats_store,
                        metrics=self.metrics,
                    )
                negotiation_seconds = time.perf_counter() - started
                source = self.agency.registration(source_name)
                target = target_factory()
                outcome = run_optimized_exchange(
                    plan.annotate(), plan.placement,
                    source.endpoint, target,
                    self.channel_factory(),
                    scenario=scenario,
                    batch_rows=self.batch_rows,
                    retry_policy=self.retry_policy,
                    fault_plan=self.fault_plan,
                    journal=journal,
                    tracer=self.tracer,
                    metrics=self.metrics,
                    delta=delta,
                    since=since,
                )
                self._learn(plan, outcome)
                return ExchangeSession(
                    session_id=session_id,
                    source_name=source_name,
                    target_name=target_name,
                    outcome=outcome,
                    target=target,
                    cached=plan.cached,
                    negotiation_seconds=negotiation_seconds,
                    optimizer_seconds=plan.optimizer_seconds,
                    estimated_cost=plan.estimated_cost,
                )
        finally:
            self._release()

    def _learn(self, plan: "ExchangePlan",
               outcome: ExchangeOutcome) -> None:
        """Post-exchange feedback: join the run's measurements against
        the broker's pricing ``probe`` and feed the drift ratios to the
        statistics store.  Endpoint-probed negotiations (``probe=None``)
        have no stable prediction to diff, so they learn nothing.
        """
        if (self.stats_store is None or self.probe is None
                or outcome.report is None):
            return
        from repro.adapt.stats import pair_key

        self.stats_store.observe_run(
            pair_key(plan.source_name, plan.target_name),
            plan.program, plan.placement, outcome.report, self.probe,
        )
