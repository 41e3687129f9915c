"""Sharded exchange: scatter K shard sessions, gather one target.

One exchange, one session is the paper's world; this module spreads a
single logical exchange over K concurrent broker sessions:

* :class:`ShardingSpec` names the partitioning (shard count, row
  strategy, optional explicit grain elements) and applies the
  :mod:`repro.core.partition` helpers to cut scanned source instances
  into :class:`ShardPackage` sets — disjoint grain subtrees plus a
  replicated spine, each package a self-contained shard-local ID/PARENT
  namespace.
* :class:`ScatterGatherCoordinator` registers each package as a shard
  source with a private agency, compiles the per-shard transfer
  program through the existing negotiate/plan-cache path — the K
  shards share one fingerprint, so the optimizer runs once — executes
  the shard sessions concurrently on a PR 5
  :class:`~repro.services.broker.ExchangeBroker` (over any Transport,
  including live TCP), and gathers the shard targets into one merged
  store whose published document is byte-identical to the unsharded
  exchange.

Gathering merges rows by element id: exclusive rows union disjointly,
replicated spine rows deduplicate, and any two shards disagreeing on
the content of one id is corruption and raises
:class:`~repro.errors.ShardingError`.  A failed shard session is
surfaced as a per-shard fault (:class:`~repro.errors.ShardFaultError`
in strict mode) without touching sibling shards.  ``shard.*`` metrics
and ``shard``-category spans wire through :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import ReproError, ShardFaultError, ShardingError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, CostWeights
from repro.core.cost.probe import CostProbe
from repro.core.fragmentation import Fragmentation
from repro.core.instance import FragmentInstance, FragmentRow
from repro.core.partition import (
    STRATEGIES,
    GrainPlan,
    PartitionResult,
    partition_instances,
    resolve_grains,
)
from repro.net.transport import SimulatedChannel, Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, ExchangeSession, PlanCache
from repro.services.endpoint import InMemoryEndpoint, SystemEndpoint

__all__ = [
    "ShardPackage",
    "ShardingSpec",
    "ShardedExchangeOutcome",
    "ScatterGatherCoordinator",
]


@dataclass(slots=True)
class ShardPackage:
    """One shard's self-contained slice of the source instances.

    ``instances`` holds an entry for every source fragment (possibly
    empty).  ``exclusive_rows`` counts rows this shard owns alone;
    ``replicated_rows`` counts the spine replica rows it shares with
    every sibling — the honest price of shard-local PARENT resolution.
    """

    index: int
    instances: dict[str, FragmentInstance]
    exclusive_rows: int
    replicated_rows: int

    def endpoint(self, name: str) -> InMemoryEndpoint:
        """An in-memory source endpoint seeded with this package."""
        endpoint = InMemoryEndpoint(name)
        for instance in self.instances.values():
            endpoint.put(instance)
        return endpoint


class ShardingSpec:
    """How to cut one exchange into K shards.

    ``strategy`` is one of :data:`~repro.core.partition.STRATEGIES`
    (``"key-range"`` or ``"prefix-label"``); ``grains`` optionally pins
    the grain elements (default: resolved automatically from the
    fragmentation pair, see
    :func:`~repro.core.partition.resolve_grains`).
    """

    def __init__(self, shards: int, strategy: str = "key-range",
                 grains: Sequence[str] | None = None) -> None:
        if shards < 1:
            raise ShardingError(f"shards must be >= 1, got {shards}")
        if strategy not in STRATEGIES:
            raise ShardingError(
                f"unknown sharding strategy {strategy!r}; expected "
                f"one of {STRATEGIES}"
            )
        self.shards = shards
        self.strategy = strategy
        self.grains = tuple(grains) if grains is not None else None

    def resolve(self, source: Fragmentation,
                target: Fragmentation) -> GrainPlan:
        """The grain plan for one fragmentation pair.

        Raises:
            ShardingError: when the pair cannot shard (see
                :func:`~repro.core.partition.resolve_grains`).
        """
        return resolve_grains(source, target, self.grains)

    def partition(self, instances: Mapping[str, FragmentInstance],
                  source: Fragmentation, target: Fragmentation
                  ) -> tuple[list[ShardPackage], PartitionResult]:
        """Cut scanned ``instances`` into per-shard packages."""
        plan = self.resolve(source, target)
        shard_sets, result = partition_instances(
            instances, source, plan, self.shards, self.strategy
        )
        exclusive = result.rows_per_shard()
        replicated = sum(
            len(instances[name].rows)
            for name in plan.spine if name in instances
        )
        packages = [
            ShardPackage(
                index=index,
                instances=shard_set,
                exclusive_rows=exclusive[index],
                replicated_rows=replicated,
            )
            for index, shard_set in enumerate(shard_sets)
        ]
        return packages, result

    def __repr__(self) -> str:
        return (
            f"ShardingSpec(shards={self.shards}, "
            f"strategy={self.strategy!r}, grains={self.grains!r})"
        )


@dataclass(slots=True)
class ShardedExchangeOutcome:
    """The gathered result of one scatter/gather exchange."""

    scenario: str
    shards: int
    strategy: str
    grains: tuple[str, ...]
    #: Per-shard broker sessions (``None`` where the shard faulted).
    sessions: list[ExchangeSession | None]
    #: Shard index → error description for failed shard sessions.
    faults: dict[int, str]
    #: The merged target endpoint (gathered from surviving shards).
    merged_target: SystemEndpoint | None
    #: Rows in the merged target after by-id deduplication.
    merged_rows: int = 0
    #: Rows scanned from shard targets beyond the merged count — the
    #: spine replicas the shards each wrote once.
    duplicate_rows: int = 0
    #: Partition accounting (source side).
    exclusive_rows: int = 0
    replicated_rows: int = 0
    #: Bytes each shard session shipped on its own channel.
    per_shard_comm_bytes: list[int] = field(default_factory=list)
    #: Phase timings (monotonic wall seconds).
    partition_seconds: float = 0.0
    exchange_seconds: float = 0.0
    gather_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def comm_bytes(self) -> int:
        """Total shipped bytes — the sum of the per-shard channels
        (each session runs its own channel, so the parts reconcile
        exactly)."""
        return sum(self.per_shard_comm_bytes)

    @property
    def rows_written(self) -> int:
        """Rows in the merged target (the unsharded equivalent)."""
        return self.merged_rows

    @property
    def cached_sessions(self) -> int:
        """How many shard negotiations were served from the cache."""
        return sum(
            1 for session in self.sessions
            if session is not None and session.cached
        )


class ScatterGatherCoordinator:
    """Run one logical exchange as K concurrent shard sessions.

    ``agency`` holds the *logical* registrations (source with its
    endpoint, target with its fragmentation).  The coordinator scans
    the source once, partitions per ``spec``, and runs the shards on a
    private scatter plane: one fresh
    :class:`~repro.services.agency.DiscoveryAgency` holding the target
    and the K shard sources (the caller's agency is never touched),
    negotiated through ``plan_cache`` — one optimizer run serves all K
    shards, because the fingerprint covers fragmentations and knobs,
    not system names.

    ``channel_factory`` supplies each shard session's own transport
    (any :class:`~repro.net.transport.Transport`, including
    ``TcpTransport.connect`` against a live server);
    ``fault_plans``/``retry_policy`` arm per-shard fault injection and
    healing.  With ``strict=True`` (default) any failed shard raises
    :class:`~repro.errors.ShardFaultError` after every sibling has
    finished and the survivors were gathered; ``strict=False`` returns
    the partial outcome with ``faults`` filled in.
    """

    def __init__(self, agency: DiscoveryAgency,
                 spec: ShardingSpec, *,
                 probe: CostProbe | None = None,
                 plan_cache: PlanCache | None = None,
                 optimizer: str = "greedy",
                 weights: CostWeights | None = None,
                 channel_factory: Callable[[], Transport]
                 = SimulatedChannel,
                 parallel_workers: int = 1,
                 batch_rows: int | None = None,
                 retry_policy: object | None = None,
                 fault_plans: Mapping[int, object] | None = None,
                 max_workers: int | None = None,
                 strict: bool = True,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.agency = agency
        self.spec = spec
        self.probe = probe
        self.plan_cache = plan_cache
        self.optimizer = optimizer
        self.weights = weights
        self.channel_factory = channel_factory
        self.parallel_workers = parallel_workers
        self.batch_rows = batch_rows
        self.retry_policy = retry_policy
        self.fault_plans = dict(fault_plans or {})
        self.max_workers = max_workers or spec.shards
        self.strict = strict
        self.metrics = metrics
        self.tracer = tracer or NULL_TRACER

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).add(amount)

    # -- the run --------------------------------------------------------------

    def run(self, source_name: str, target_name: str,
            target_factory: Callable[[int], SystemEndpoint], *,
            scenario: str | None = None) -> ShardedExchangeOutcome:
        """Scatter, execute, gather.

        ``target_factory`` builds one private target store per shard
        index ``0..K-1`` and, called with ``-1``, the merged gather
        store.

        Raises:
            ShardingError: when partitioning or gathering fails.
            ShardFaultError: in strict mode, when any shard session
                failed (the partial outcome rides on the exception).
        """
        scenario = scenario or f"{source_name}->{target_name}"
        started = time.perf_counter()
        source = self.agency.registration(source_name)
        target = self.agency.registration(target_name)
        if source.endpoint is None:
            raise ShardingError(
                f"system {source_name!r} registered no endpoint; the "
                "coordinator scans it to scatter"
            )

        with self.tracer.span("scatter partition", "shard",
                              scenario=scenario,
                              shards=self.spec.shards,
                              strategy=self.spec.strategy):
            instances = {
                fragment.name: source.endpoint.scan(fragment)
                for fragment in source.fragmentation
            }
            packages, result = self.spec.partition(
                instances, source.fragmentation, target.fragmentation
            )
        partition_seconds = time.perf_counter() - started
        exclusive_rows = sum(pkg.exclusive_rows for pkg in packages)
        replicated_rows = sum(pkg.replicated_rows for pkg in packages)
        self._count("shard.partitions")
        self._count("shard.rows.exclusive", exclusive_rows)
        self._count("shard.rows.replicated", replicated_rows)

        probe = self.probe
        if probe is None:
            probe = CostModel(
                StatisticsCatalog.synthetic(self.agency.schema)
            )
        plan_cache = self.plan_cache
        if plan_cache is None:
            plan_cache = PlanCache(metrics=self.metrics)
        scatter = DiscoveryAgency(self.agency.schema)
        scatter.register(target_name, target.fragmentation)

        sessions: list[ExchangeSession | None] = [None] * len(packages)
        faults: dict[int, str] = {}
        exchange_started = time.perf_counter()
        with ExchangeBroker(
            scatter,
            plan_cache=plan_cache,
            max_workers=self.max_workers,
            max_pending=max(2 * self.max_workers, len(packages)),
            optimizer=self.optimizer,
            probe=probe,
            weights=self.weights,
            channel_factory=self.channel_factory,
            parallel_workers=self.parallel_workers,
            batch_rows=self.batch_rows,
            retry_policy=self.retry_policy,  # type: ignore[arg-type]
            metrics=self.metrics,
            tracer=self.tracer,
        ) as broker:
            futures = []
            for package in packages:
                shard_source = f"{source_name}#shard{package.index}"
                scatter.register(
                    shard_source, source.fragmentation,
                    package.endpoint(shard_source),
                )
                futures.append(broker.submit(
                    shard_source, target_name,
                    lambda index=package.index: target_factory(index),
                    scenario=f"{scenario}#shard{package.index}",
                    wait=True,
                    fault_plan=self.fault_plans.get(  # type: ignore[arg-type]
                        package.index
                    ),
                ))
                self._count("shard.sessions")
            for index, future in enumerate(futures):
                try:
                    sessions[index] = future.result()
                except ReproError as exc:
                    faults[index] = f"{type(exc).__name__}: {exc}"
                    self._count("shard.faults")
        exchange_seconds = time.perf_counter() - exchange_started

        gather_started = time.perf_counter()
        with self.tracer.span("gather merge", "shard",
                              scenario=scenario,
                              survivors=len(sessions) - len(faults)):
            merged_target = target_factory(-1)
            merged_rows, duplicate_rows = self._gather(
                [session for session in sessions if session is not None],
                target.fragmentation, merged_target,
            )
        gather_seconds = time.perf_counter() - gather_started

        outcome = ShardedExchangeOutcome(
            scenario=scenario,
            shards=self.spec.shards,
            strategy=self.spec.strategy,
            grains=result.plan.grains,
            sessions=sessions,
            faults=faults,
            merged_target=merged_target,
            merged_rows=merged_rows,
            duplicate_rows=duplicate_rows,
            exclusive_rows=exclusive_rows,
            replicated_rows=replicated_rows,
            per_shard_comm_bytes=[
                session.outcome.comm_bytes if session is not None else 0
                for session in sessions
            ],
            partition_seconds=partition_seconds,
            exchange_seconds=exchange_seconds,
            gather_seconds=gather_seconds,
            wall_seconds=time.perf_counter() - started,
        )
        if faults and self.strict:
            raise ShardFaultError(
                f"{len(faults)} of {len(packages)} shard sessions "
                f"failed: {faults}", faults, outcome,
            )
        return outcome

    def _gather(self, sessions: Sequence[ExchangeSession],
                target_fragmentation: Fragmentation,
                merged_target: SystemEndpoint) -> tuple[int, int]:
        """Union shard targets by element id into ``merged_target``.

        Returns ``(merged_rows, duplicate_rows)``.

        Raises:
            ShardingError: when two shards hold *different* rows under
                one element id (shard corruption — replicas must agree).
        """
        merged_rows = 0
        duplicate_rows = 0
        for fragment in target_fragmentation:
            by_eid: dict[int, FragmentRow] = {}
            order: list[int] = []
            for session in sessions:
                instance = session.target.scan(fragment)
                for row in instance.rows:
                    existing = by_eid.get(row.eid)
                    if existing is None:
                        by_eid[row.eid] = row
                        order.append(row.eid)
                        continue
                    duplicate_rows += 1
                    if (existing.parent != row.parent
                            or existing.data != row.data):
                        self._count("shard.merge.conflicts")
                        raise ShardingError(
                            f"gather conflict on fragment "
                            f"{fragment.name!r} id {row.eid}: shard "
                            f"{session.session_id} disagrees with an "
                            "earlier shard about the row content"
                        )
            merged = FragmentInstance(
                fragment, [by_eid[eid] for eid in order]
            )
            merged.sort()
            merged_target.write(fragment, merged)
            merged_rows += len(merged.rows)
        build_indexes = getattr(merged_target, "build_indexes", None)
        if callable(build_indexes):
            build_indexes()
        self._count("shard.merge.rows", merged_rows)
        self._count("shard.merge.duplicates", duplicate_rows)
        return merged_rows, duplicate_rows
