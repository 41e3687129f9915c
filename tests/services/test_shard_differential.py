"""Differential shard-equivalence: sharded == unsharded, byte for byte.

For every shard count K in {1, 2, 3, 8} and every executor
configuration the repo ships — sequential and parallel, unbatched and
batched at several sizes — the scatter/gather
coordinator must publish a target document byte-identical to the plain
single-session exchange, and its accounting must reconcile exactly:
total shipped bytes are the sum of the per-shard channels, and the
rows the shard sessions wrote are the merged rows plus the replicated
spine duplicates the gather deduplicated.
"""

import threading

import pytest

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.services.agency import DiscoveryAgency
from repro.services.broker import PlanCache
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import run_optimized_exchange
from repro.services.shard import ScatterGatherCoordinator, ShardingSpec

SHARD_COUNTS = [1, 2, 3, 8]

# Workers × batch size grid.  Every XMark fragment is flat-storable,
# so every cell runs columnar streams; the ``-row``/``-columnar``
# halves of the ids date from when that was a knob and now only tell
# the cells apart (``stream-row`` moved to one-row batches when the
# knob's going left it equal to ``seq-columnar``).
EXECUTORS = [
    ("seq-row", {}),
    ("seq-columnar", {"batch_rows": 16}),
    ("par-row", {"parallel_workers": 3}),
    ("par-columnar", {"parallel_workers": 3, "batch_rows": 16}),
    ("stream-row", {"batch_rows": 1}),
    ("stream-columnar", {"batch_rows": 64}),
]


@pytest.fixture(scope="module")
def model(auction_schema):
    return CostModel(StatisticsCatalog.synthetic(auction_schema))


@pytest.fixture(scope="module")
def loaded_agency(auction_schema, auction_mf, auction_lf,
                  auction_document):
    source = RelationalEndpoint("S", auction_mf)
    source.load_document(auction_document)
    agency = DiscoveryAgency(auction_schema)
    agency.register("src", auction_mf, source)
    agency.register("tgt", auction_lf)
    return agency


@pytest.fixture(scope="module")
def reference(loaded_agency, auction_lf, model):
    """The unsharded answer: one plain optimized exchange."""
    plan = loaded_agency.negotiate("src", "tgt", probe=model)
    target = RelationalEndpoint("T-ref", auction_lf)
    source = loaded_agency.registration("src").endpoint
    run_optimized_exchange(
        plan.annotate(), plan.placement, source, target,
        SimulatedChannel(),
    )
    return publish_document(target.db, target.mapper).document


def _published(endpoint):
    return publish_document(endpoint.db, endpoint.mapper).document


def _factory(fragmentation):
    lock = threading.Lock()

    def make(index):
        with lock:
            return RelationalEndpoint(f"T{index}", fragmentation)

    return make


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "knobs", [dict(knobs) for _, knobs in EXECUTORS],
    ids=[name for name, _ in EXECUTORS],
)
def test_sharded_equals_unsharded(loaded_agency, auction_lf, model,
                                  reference, shards, knobs):
    coordinator = ScatterGatherCoordinator(
        loaded_agency, ShardingSpec(shards),
        probe=model, plan_cache=PlanCache(), **knobs,
    )
    outcome = coordinator.run("src", "tgt", _factory(auction_lf))

    assert _published(outcome.merged_target) == reference
    assert outcome.shards == shards
    assert not outcome.faults
    assert all(session is not None for session in outcome.sessions)

    # Byte accounting reconciles: the total is exactly the per-shard
    # channels, no more, no less.
    per_shard = [
        session.outcome.comm_bytes for session in outcome.sessions
    ]
    assert outcome.per_shard_comm_bytes == per_shard
    assert outcome.comm_bytes == sum(per_shard)

    # Row accounting reconciles: what the shard sessions wrote is the
    # merged target plus the spine replicas gathered away.
    written = sum(
        session.outcome.rows_written for session in outcome.sessions
    )
    assert written == outcome.merged_rows + outcome.duplicate_rows

    # One logical exchange compiles once: K-1 sessions hit the cache.
    assert outcome.cached_sessions == shards - 1


@pytest.mark.parametrize("shards", [2, 3, 8])
def test_prefix_label_strategy_matches(loaded_agency, auction_lf,
                                       model, reference, shards):
    coordinator = ScatterGatherCoordinator(
        loaded_agency, ShardingSpec(shards, "prefix-label"),
        probe=model, plan_cache=PlanCache(),
    )
    outcome = coordinator.run("src", "tgt", _factory(auction_lf))
    assert _published(outcome.merged_target) == reference
    assert outcome.strategy == "prefix-label"


@pytest.mark.parametrize("shards", [1, 4])
def test_reverse_direction(auction_schema, auction_mf, auction_lf,
                           auction_document, model, shards):
    """LF → MF shards just as cleanly (grain auto-resolution is
    direction-agnostic)."""
    source = RelationalEndpoint("S-lf", auction_lf)
    source.load_document(auction_document)
    agency = DiscoveryAgency(auction_schema)
    agency.register("src", auction_lf, source)
    agency.register("tgt", auction_mf)

    plan = agency.negotiate("src", "tgt", probe=model)
    ref_target = RelationalEndpoint("T-ref", auction_mf)
    run_optimized_exchange(
        plan.annotate(), plan.placement, source, ref_target,
        SimulatedChannel(),
    )
    reference = _published(ref_target)

    coordinator = ScatterGatherCoordinator(
        agency, ShardingSpec(shards), probe=model,
        plan_cache=PlanCache(),
    )
    outcome = coordinator.run("src", "tgt", _factory(auction_mf))
    assert _published(outcome.merged_target) == reference


def test_shard_metrics_and_spans(loaded_agency, auction_lf, model):
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    metrics = MetricsRegistry()
    tracer = Tracer()
    registered = loaded_agency.registered_names()
    coordinator = ScatterGatherCoordinator(
        loaded_agency, ShardingSpec(4), probe=model,
        plan_cache=PlanCache(), metrics=metrics, tracer=tracer,
    )
    outcome = coordinator.run("src", "tgt", _factory(auction_lf))

    # The scatter plane is private, and the K shards compile once.
    assert loaded_agency.registered_names() == registered
    assert metrics.counter("optimizer.runs").value == 1
    assert metrics.counter("shard.partitions").value == 1
    assert metrics.counter("shard.sessions").value == 4
    assert (metrics.counter("shard.rows.exclusive").value
            == outcome.exclusive_rows)
    assert (metrics.counter("shard.merge.rows").value
            == outcome.merged_rows)
    assert (metrics.counter("shard.merge.duplicates").value
            == outcome.duplicate_rows)
    assert metrics.counter("shard.faults").value == 0

    categories = {span.category for span in tracer.spans}
    assert "shard" in categories
    names = {span.name for span in tracer.spans}
    assert "scatter partition" in names
    assert "gather merge" in names
