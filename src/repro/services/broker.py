"""Negotiated-plan cache and multi-session exchange broker.

The paper's agency derives one transfer program per source/target pair
and re-optimizes from scratch on every exchange (Section 4,
Algorithm 1) — fine for a one-shot negotiation, wasteful when the same
fragmentation pair exchanges documents thousands of times.  Mediation
architectures over XML sources amortize mediation plans across
requests; this module does the same for negotiated exchange plans:

* :class:`PlanCache` keys optimized ``TransferProgram`` + ``Placement``
  pairs on a deterministic :class:`PlanFingerprint` of (schema, source
  fragmentation, target fragmentation, the probe's ``signature``,
  optimizer kind, formula-1 weights, executor knobs).  An entry is the
  pair the optimizer built, and a hit hands out that object: sessions
  share one read-only plan (a run keeps its state in its own
  :class:`~repro.core.program.run.ProgramRun` and reads the placement
  dict), so the op ids — and with them an
  :class:`~repro.core.program.journal.ExchangeJournal`'s write keys —
  match across sessions.  Eviction is LRU; hit/miss/evict counts feed
  a :class:`~repro.obs.metrics.MetricsRegistry`.

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
from repro.core.optimizer.placement import resolve_weights
from repro.core.program.dag import Placement, TransferProgram
from repro.net.transport import SimulatedChannel, Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
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
    """A deterministic cache key for one negotiation setup."""

    digest: str


def _fragmentation_token(fragmentation: Fragmentation) -> str:
    """Canonical text form: fragments by name with sorted elements."""
    fragments = ";".join(
        f"{fragment.name}={','.join(sorted(fragment.elements))}"
        for fragment in sorted(
            fragmentation.fragments, key=lambda f: f.name
        )
    )
    return f"{fragmentation.name}:{fragments}"


def plan_fingerprint(source: Fragmentation, target: Fragmentation,
                     probe: CostProbe, optimizer: str,
                     weights: CostWeights | None = None,
                     knobs: Mapping[str, object] | None = None
                     ) -> PlanFingerprint:
    """Fingerprint one negotiation setup.

    The probe is keyed by the ``signature`` it states (a
    :class:`~repro.core.cost.model.CostModel` or an
    :class:`~repro.core.cost.probe.EndpointProbe`): a digest of
    everything its answers depend on.  ``knobs`` carries whatever else
    the plan's consumer keys on (the broker passes its executor knobs);
    it must be JSON-serializable.

    Raises:
        TypeError: if the probe states no ``signature``.
    """
    signature = getattr(probe, "signature", None)
    if signature is None:
        raise TypeError(
            f"a {type(probe).__name__} states no cost signature, so a "
            "plan cache cannot key on it; negotiate with a CostModel "
            "or through live endpoints"
        )
    resolved = resolve_weights(probe, weights)
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
    return PlanFingerprint(
        hashlib.sha256(parts.encode("utf-8")).hexdigest()
    )


# -- the cache ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CachedPlan:
    """One cached negotiation result, as the optimizer built it.

    Every session the entry serves shares its program and placement,
    read-only."""

    program: TransferProgram
    placement: Placement
    estimated_cost: float
    optimizer: str


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

    def get(self, fingerprint: PlanFingerprint) -> CachedPlan | None:
        """The cached entry for ``fingerprint`` (LRU-touched), else
        ``None``.  Counts a hit or a miss either way."""
        with self._lock:
            entry = self._entries.get(fingerprint.digest)
            if entry is None:
                self._count("misses")
                return None
            self._entries.move_to_end(fingerprint.digest)
            self._count("hits")
            return entry

    def put(self, fingerprint: PlanFingerprint,
            program: TransferProgram, placement: Placement, *,
            estimated_cost: float, optimizer: str) -> None:
        """Store one optimized plan, evicting the LRU tail beyond
        ``capacity``.  The cache keeps ``program`` itself: nothing may
        write to it afterwards."""
        entry = CachedPlan(program, placement, estimated_cost, optimizer)
        with self._lock:
            self._entries[fingerprint.digest] = entry
            self._entries.move_to_end(fingerprint.digest)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._count("evictions")

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
        return the *same* target the previous sync wrote.  That holds
        for full sessions too: sessions served one cached plan share
        its op ids, so a journal matches across them, and a *fresh*
        target reusing a finished session's journal gets no rows.

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
                    plan.program, plan.placement,
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
