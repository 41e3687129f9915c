"""Property-based end-to-end round trips on random schemas.

For any random schema tree, any random document and any pair of random
*flat-storable* fragmentations A and B:

* publish(load_A(doc)) == publish(shred_B(publish(load_A(doc)))) —
  the publish&map pipeline is lossless;
* running the optimized data-exchange program A -> B leaves the target
  database publishing the identical document — DE and PM agree
  everywhere, not just on the paper's workloads.

Flat-storability is guaranteed by making every repeated element a
fragment root (see DESIGN.md).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.fragmentation import Fragmentation
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.publisher import publish_document
from repro.relational.shredder import shred_document
from repro.services.endpoint import RelationalEndpoint

from tests.documents import generate_document, random_schema


def flat_fragmentation(schema, rng: random.Random,
                       name: str) -> Fragmentation:
    """A random valid fragmentation whose fragments are all flat."""
    required = {schema.root.name} | {
        node.name for node in schema.iter_nodes()
        if node.cardinality.repeated
    }
    optional = [
        name for name in schema.element_names() if name not in required
    ]
    extras = [
        element for element in optional if rng.random() < 0.4
    ]
    return Fragmentation.from_roots(
        schema, sorted(required | set(extras)), name
    )


@st.composite
def pipelines(draw):
    schema = random_schema(
        draw(st.integers(min_value=2, max_value=12)),
        seed=draw(st.integers(0, 9999)),
        repeat_prob=0.4,
    )
    rng = random.Random(draw(st.integers(0, 9999)))
    source = flat_fragmentation(schema, rng, "A")
    target = flat_fragmentation(schema, rng, "B")
    document = generate_document(
        schema, seed=draw(st.integers(0, 9999))
    )
    return schema, source, target, document


@settings(max_examples=25, deadline=None)
@given(pipelines())
def test_publish_and_map_is_lossless(case):
    schema, source_frag, target_frag, document = case
    source_db = Database("A")
    source_mapper = FragmentRelationMapper(source_frag)
    source_mapper.create_tables(source_db)
    source_mapper.load_document(source_db, document)
    published = publish_document(source_db, source_mapper).document

    target_db = Database("B")
    target_mapper = FragmentRelationMapper(target_frag)
    target_mapper.create_tables(target_db)
    shred_document(published, target_mapper).load_into(target_db)
    republished = publish_document(target_db, target_mapper).document
    assert republished == published


@settings(max_examples=25, deadline=None)
@given(pipelines())
def test_optimized_exchange_agrees_with_publish_and_map(case):
    schema, source_frag, target_frag, document = case
    source = RelationalEndpoint("A", source_frag)
    source.load_document(document)
    reference = publish_document(source.db, source.mapper).document

    target = RelationalEndpoint("B", target_frag)
    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    from repro.core.program.executor import ProgramExecutor

    ProgramExecutor(source, target).run(
        program, source_heavy_placement(program)
    )
    assert publish_document(
        target.db, target.mapper
    ).document == reference
