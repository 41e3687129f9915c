"""Differential blitz: every dataplane, with and without a lossy wire.

For seeded random (schema, fragmentation, document) scenarios the
optimized exchange must publish a byte-identical target document from
every executor configuration — unbatched, and batched at several
batch sizes — and that answer must not change when the channel drops,
corrupts, duplicates or reorders messages, as long as the retry layer
is allowed to heal it.  The customer scenario's S -> T and T -> S,
whose ``Line_Feature`` does not flatten, run the same matrix between
in-memory endpoints, checked against the instance-level split of the
documents.

Marked ``faults``: tier-1 deselects this module (see pyproject.toml);
CI runs it in the dedicated fault-blitz job.
"""

import random

import pytest

from repro.core.delta import instance_digest
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.net.faults import FaultPlan, FaultyChannel, RetryPolicy
from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.workloads.customer import (
    fragment_customers,
    generate_customer_instances,
)

from tests.documents import generate_document, random_schema
from tests.integration.test_random_roundtrips import flat_fragmentation

pytestmark = pytest.mark.faults

# The executor configurations under test.  No ``batch_rows`` is one
# unbounded batch per feed; an int cuts feeds into batches that size.
EXECUTORS = [
    ("sequential", {}),
    ("stream-rows1", {"batch_rows": 1}),
    ("stream-rows7", {"batch_rows": 7}),
    ("stream-rows64", {"batch_rows": 64}),
]

# The acceptance bar from the issue (10% drop + 5% corruption) plus a
# duplication/reordering plan that stresses the sequencing layer.
FAULT_PLANS = [
    ("clean", None),
    ("drop+corrupt",
     FaultPlan(drop=0.10, corrupt=0.05, seed=11)),
    ("dup+reorder",
     FaultPlan(drop=0.08, duplicate=0.08, reorder=0.08, seed=23)),
]

SCENARIO_SEEDS = [3, 41, 96]


@pytest.fixture(scope="module", params=SCENARIO_SEEDS)
def scenario(request):
    """A seeded random exchange problem plus its reference answer."""
    seed = request.param
    rng = random.Random(seed)
    # Sized so the exchange ships tens of messages per run: small
    # enough to keep the matrix quick, large enough that a 10% fault
    # rate reliably fires (a 3-message run can dodge it entirely).
    schema = random_schema(
        rng.randint(6, 12), seed=seed, repeat_prob=0.5
    )
    source_frag = flat_fragmentation(schema, rng, "A")
    target_frag = flat_fragmentation(schema, rng, "B")
    document = generate_document(schema, seed=seed, max_repeat=9)
    source = RelationalEndpoint("A", source_frag)
    source.load_document(document)
    reference = publish_document(source.db, source.mapper).document
    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    placement = source_heavy_placement(program)
    return source, target_frag, program, placement, reference


@pytest.mark.parametrize(
    "options",
    [pytest.param(opts, id=name) for name, opts in EXECUTORS],
)
@pytest.mark.parametrize(
    "plan",
    [pytest.param(plan, id=name) for name, plan in FAULT_PLANS],
)
def test_every_executor_agrees_under_every_plan(
        scenario, options, plan):
    source, target_frag, program, placement, reference = scenario
    target = RelationalEndpoint("B", target_frag)
    channel = SimulatedChannel(wire_format=True)
    wire = channel if plan is None else FaultyChannel(channel, plan)
    retry = None if plan is None else RetryPolicy(max_attempts=10)
    report = ProgramExecutor(
        source, target, wire, retry=retry, **options
    ).run(program, placement)
    published = publish_document(target.db, target.mapper).document
    assert published == reference
    if plan is None:
        assert report.retries == 0
        assert report.redelivered_batches == 0


def test_faulty_runs_actually_exercise_the_fault_path(scenario):
    """Guard against a vacuous matrix: across the streaming configs the
    drop+corrupt plan must inject faults and force retries somewhere."""
    source, target_frag, program, placement, reference = scenario
    plan = FaultPlan(drop=0.10, corrupt=0.05, seed=11)
    injected = retried = 0
    for batch_rows in (1, 7):
        target = RelationalEndpoint("B", target_frag)
        wire = FaultyChannel(
            SimulatedChannel(wire_format=True), plan
        )
        report = ProgramExecutor(
            source, target, wire, batch_rows=batch_rows,
            retry=RetryPolicy(max_attempts=10),
        ).run(program, placement)
        injected += wire.stats.injected
        retried += report.retries
        assert publish_document(
            target.db, target.mapper
        ).document == reference
    assert injected > 0
    assert retried > 0


def test_lossy_wire_charges_for_waste(scenario):
    """The lossy run can never report cheaper communication than the
    clean run: every wasted transmission is charged."""
    source, target_frag, program, placement, _ = scenario

    def run(plan):
        target = RelationalEndpoint("B", target_frag)
        channel = SimulatedChannel(wire_format=True)
        wire = (channel if plan is None
                else FaultyChannel(channel, plan))
        ProgramExecutor(
            source, target, wire, batch_rows=7,
            retry=None if plan is None else RetryPolicy(
                max_attempts=10
            ),
        ).run(program, placement)
        return channel

    clean = run(None)
    lossy = run(FaultPlan(drop=0.10, corrupt=0.05, seed=11))
    if lossy.lost_messages:
        assert lossy.total_bytes > clean.total_bytes
        assert lossy.lost_bytes > 0
    assert lossy.total_bytes >= clean.total_bytes


@pytest.fixture(scope="module", params=["S-T", "T-S"])
def customer_scenario(request, customers_s, customers_t):
    """The customer exchange between in-memory endpoints, and the
    target instances the documents split into."""
    source_frag, target_frag = (
        (customers_s, customers_t) if request.param == "S-T"
        else (customers_t, customers_s)
    )
    documents = generate_customer_instances(6, seed=17)
    source = InMemoryEndpoint("source")
    for instance in fragment_customers(documents, source_frag).values():
        source.put(instance)
    expected = {
        name: instance_digest(instance)
        for name, instance in fragment_customers(
            documents, target_frag
        ).items()
    }
    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    return source, target_frag, program, expected


@pytest.mark.parametrize(
    "options",
    [pytest.param(opts, id=name) for name, opts in EXECUTORS],
)
@pytest.mark.parametrize(
    "plan",
    [pytest.param(plan, id=name) for name, plan in FAULT_PLANS],
)
def test_non_flat_exchanges_agree_under_every_plan(
        customer_scenario, options, plan):
    source, target_frag, program, expected = customer_scenario
    target = InMemoryEndpoint("target")
    channel = SimulatedChannel(wire_format=True)
    wire = channel if plan is None else FaultyChannel(channel, plan)
    retry = None if plan is None else RetryPolicy(max_attempts=10)
    report = ProgramExecutor(
        source, target, wire, retry=retry, **options
    ).run(program, source_heavy_placement(program))
    assert {
        fragment.name: instance_digest(target.scan(fragment))
        for fragment in target_frag
    } == expected
    if plan is None:
        assert report.retries == 0
        assert report.redelivered_batches == 0


def test_non_flat_runs_exercise_every_fault(customer_scenario):
    """Guard against a vacuous matrix: over the batched configs the
    two lossy plans drop, corrupt, duplicate and re-order messages of
    the customer exchange, and the retry layer heals them."""
    source, target_frag, program, expected = customer_scenario
    injected = {}
    for _, plan in FAULT_PLANS[1:]:
        for batch_rows in (1, 7):
            wire = FaultyChannel(SimulatedChannel(wire_format=True), plan)
            target = InMemoryEndpoint("target")
            ProgramExecutor(
                source, target, wire, batch_rows=batch_rows,
                retry=RetryPolicy(max_attempts=10),
            ).run(program, source_heavy_placement(program))
            for kind in ("drops", "corruptions", "duplicates",
                         "reorders"):
                injected[kind] = (
                    injected.get(kind, 0) + getattr(wire.stats, kind)
                )
            assert instance_digest(
                target.scan(target_frag.fragments[-1])
            ) == expected[target_frag.fragments[-1].name]
    assert all(injected.values()), injected
