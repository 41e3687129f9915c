"""Property-based tests of program generation on random inputs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import derive_mapping
from repro.core.program.builder import ProgramBuilder
from repro.sim.random_fragmentation import random_fragmentation

from tests.documents import random_schema


@st.composite
def mappings(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=12))
    schema = random_schema(
        n_nodes, seed=draw(st.integers(0, 9999)), repeat_prob=0.4
    )
    rng = random.Random(draw(st.integers(0, 9999)))
    source = random_fragmentation(
        schema, n_fragments=draw(st.integers(1, n_nodes)), rng=rng,
        name="S",
    )
    target = random_fragmentation(
        schema, n_fragments=draw(st.integers(1, n_nodes)), rng=rng,
        name="T",
    )
    return derive_mapping(source, target)


@settings(max_examples=60, deadline=None)
@given(mappings())
def test_every_enumerated_program_validates(mapping):
    for program in ProgramBuilder(mapping).enumerate(8):
        program.validate()
        # Exactly one Scan per source fragment, one Write per target.
        assert len(program.scans()) == len(mapping.source.fragments)
        assert len(program.writes()) == len(mapping.target.fragments)


@settings(max_examples=60, deadline=None)
@given(mappings())
def test_programs_conserve_elements(mapping):
    """The fragments flowing into each Write carry exactly the target
    fragment's elements; scans carry exactly the source's."""
    builder = ProgramBuilder(mapping)
    program = builder.build()
    for write in program.writes():
        (edge,) = program.in_edges(write)
        assert edge.fragment.elements == write.fragment.elements
    scanned = set()
    for scan in program.scans():
        assert not (scanned & scan.fragment.elements)
        scanned |= scan.fragment.elements
    assert scanned == set(mapping.source.schema.element_names())


@settings(max_examples=40, deadline=None)
@given(mappings())
def test_split_outputs_are_connected_fragments(mapping):
    """Split pieces are valid fragments by construction — the mapping's
    per-pair contributions are always connected subtrees."""
    program = ProgramBuilder(mapping).build()
    for node in program.nodes:
        if node.kind != "split":
            continue
        for piece in node.outputs:
            schema = piece.schema
            assert schema.top_of(piece.elements) == piece.root_name


@settings(max_examples=40, deadline=None)
@given(mappings())
def test_identity_mappings_have_no_processing(mapping):
    if any(not entry.is_identity for entry in mapping.entries):
        return  # only exercise the all-identity case here
    program = ProgramBuilder(mapping).build()
    assert all(
        node.kind in ("scan", "write") for node in program.nodes
    )
