"""The seeded delta closure against the whole-document oracle.

``repro.core.delta.compute_delta`` walks from the version log through
keyed lookups; ``tests/core/delta_reference.py`` is the body it
replaced — scan everything, build the whole contribution graph, close
over it.  For a random balanced schema, two random flat-storable
fragmentations of it, a random document and one to four rounds of
changes (seeded updates and leaf deletes, a cascading delete, a
delete-then-recreate of one eid, an empty round), the two must agree
on every field of the ``DeltaSet`` for every ``since``, on a relational
endpoint (hash-index lookups) and on an in-memory one (the cached-scan
default) — and a target kept in step by delta exchanges must digest
equal to a fresh full exchange after every round, in both directions,
also when a run dies mid-merge and is run again, with and without a
journal to resume from.  Fragmentations that do *not* flatten
(repeated inner elements, which only a tree-holding endpoint stores)
are held to the oracle too.
"""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.delta import compute_delta, endpoint_digest
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import FragmentInstance, FragmentRow
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.journal import ExchangeJournal
from repro.net.transport import SimulatedChannel
from repro.schema.generator import balanced_schema
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.services.exchange import run_optimized_exchange
from repro.sim.random_fragmentation import random_fragmentation
from repro.workloads.mutate import mutate_endpoint

from tests.documents import generate_document
from tests.core.delta_reference import compute_delta as reference_delta

ROUND_KINDS = ("mutate", "cascade", "recreate", "empty")


def _flat(fragmentation: Fragmentation) -> Fragmentation:
    """``fragmentation`` with every repeated element made a fragment
    root as well, so that each fragment stores as one flat relation."""
    schema = fragmentation.schema
    roots = {fragment.root_name for fragment in fragmentation} | {
        node.name for node in schema.iter_nodes()
        if node.cardinality.repeated
    }
    return Fragmentation.from_roots(
        schema, sorted(roots), fragmentation.name
    )


@st.composite
def scenarios(draw, flat: bool = True):
    levels, fanout = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    schema = balanced_schema(
        levels, fanout, repeat_prob=0.4,
        seed=draw(st.integers(0, 9999)),
    )
    rng = random.Random(draw(st.integers(0, 9999)))
    elements = len(schema.element_names())
    one, other = (
        random_fragmentation(
            schema, n_fragments=draw(st.integers(1, elements)),
            rng=rng, name=name,
        )
        for name in ("A", "B")
    )
    if flat:
        one, other = _flat(one), _flat(other)
    document = generate_document(
        schema, seed=draw(st.integers(0, 9999))
    )
    rounds = draw(st.lists(
        st.sampled_from(ROUND_KINDS), min_size=1, max_size=4
    ))
    return one, other, document, rounds, draw(st.integers(0, 9999))


def _relational(fragmentation, document):
    endpoint = RelationalEndpoint("rel", fragmentation)
    endpoint.load_document(document)
    endpoint.enable_versioning()
    return endpoint


def _in_memory(fragmentation, document):
    """The same stored rows, held as trees."""
    loaded = RelationalEndpoint("loader", fragmentation)
    loaded.load_document(document)
    endpoint = InMemoryEndpoint("mem")
    for fragment in fragmentation:
        endpoint.put(loaded.scan(fragment))
    endpoint.enable_versioning()
    return endpoint


def _change(endpoint, kind: str, seed: int) -> None:
    """One round of changes, the same on any endpoint holding the same
    rows (picks go by the sorted feed every endpoint scans)."""
    rng = random.Random(seed)
    fragments = sorted(endpoint.stored_fragments(), key=lambda f: f.name)
    if kind == "mutate":
        mutate_endpoint(endpoint, 0.3, seed=seed, delete_fraction=0.2)
    elif kind == "cascade":
        # A row other fragments hang under, if there is one that is
        # not the document root: its subtree goes with it.
        anchors = {fragment.parent_element() for fragment in fragments}
        for fragment in rng.sample(fragments, len(fragments)):
            rows = [row for row in endpoint.scan(fragment).rows
                    if row.parent is not None]
            if rows and anchors & fragment.elements:
                endpoint.apply_changes(
                    fragment, deletes={rng.choice(rows).eid}
                )
                break
    elif kind == "recreate":
        fragment = rng.choice(fragments)
        rows = endpoint.scan(fragment).rows
        if rows:
            victim = rng.choice(rows)
            endpoint.apply_changes(fragment, deletes={victim.eid})
            endpoint.apply_changes(fragment, upserts=[victim])


def _fields(delta):
    return (delta.ship, delta.affected, delta.deletes,
            delta.changed_rows, delta.total_rows, delta.high)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_seeded_closure_equals_the_whole_document_oracle(scenario):
    one, other, document, rounds, seed = scenario
    for stored, wanted in ((one, other), (other, one)):
        for build in (_relational, _in_memory):
            source = build(stored, document)
            for number, kind in enumerate(rounds):
                _change(source, kind, seed + number)
                for since in range(source.versions.current + 1):
                    assert _fields(compute_delta(
                        source, list(stored), list(wanted), since
                    )) == _fields(reference_delta(
                        source, list(stored), list(wanted), since
                    )), (build.__name__, number, kind, since)


@settings(max_examples=40, deadline=None)
@given(scenarios(flat=False))
def test_closure_reads_trees_with_repeated_inner_elements(scenario):
    """Fragments that do not flatten (only tree-holding endpoints
    store them): an element may occur many times in one row, and which
    target row an occurrence belongs to is read off the row's tree."""
    one, other, document, rounds, seed = scenario
    whole = FragmentInstance(
        Fragment.whole(one.schema), [FragmentRow(document, None)]
    )
    for stored, wanted in ((one, other), (other, one)):
        source = InMemoryEndpoint("trees")
        for piece in whole.copy().split(list(stored)):
            source.put(piece)
        source.enable_versioning()
        for number, kind in enumerate(rounds):
            _change(source, kind, seed + number)
            for since in range(source.versions.current + 1):
                assert _fields(compute_delta(
                    source, list(stored), list(wanted), since
                )) == _fields(reference_delta(
                    source, list(stored), list(wanted), since
                )), (number, kind, since)


class _DiesMidMerge:
    """A target that fails its ``merges``-th merge (and every later
    call is never made: the run is dead)."""

    def __init__(self, target, merges: int) -> None:
        self._target = target
        self._merges = merges

    def __getattr__(self, name: str):
        return getattr(self._target, name)

    def merge_rows(self, fragment, rows):
        if self._merges == 0:
            raise RuntimeError("crashed mid-merge")
        self._merges -= 1
        return self._target.merge_rows(fragment, rows)


@pytest.mark.parametrize("journaled", [True, False],
                         ids=["journal", "no-journal"])
@settings(max_examples=15, deadline=None)
@given(scenario=scenarios(), crash_after=st.integers(0, 4),
       batch_rows=st.sampled_from([None, 2, 64]))
def test_delta_merged_target_equals_a_fresh_full_exchange(
        journaled, scenario, crash_after, batch_rows):
    one, other, document, rounds, seed = scenario
    for stored, wanted in ((one, other), (other, one)):
        source = _relational(stored, document)
        program = build_transfer_program(derive_mapping(stored, wanted))
        placement = source_heavy_placement(program)

        def exchange(target, **knobs):
            return run_optimized_exchange(
                program, placement, source, target, SimulatedChannel(),
                batch_rows=batch_rows, **knobs,
            )

        journal = ExchangeJournal() if journaled else None
        target = RelationalEndpoint("tgt", wanted)
        exchange(target, journal=journal)
        synced = source.versions.current
        for number, kind in enumerate(rounds):
            _change(source, kind, seed + number)
            knobs = dict(journal=journal, delta=True,
                         since=None if journaled else synced)
            try:
                exchange(_DiesMidMerge(target, crash_after), **knobs)
            except RuntimeError:
                event("a delta run died mid-merge")
                if journaled:
                    # A dead run never advances the high-water mark.
                    assert journal.last_sync_version() == synced
                outcome = exchange(target, **knobs)
                assert outcome.delta_since == synced
            synced = source.versions.current
            fresh = RelationalEndpoint("fresh", wanted)
            exchange(fresh)
            assert endpoint_digest(target, list(wanted)) \
                == endpoint_digest(fresh, list(wanted)), (number, kind)
            assert target.build_indexes() == 0
