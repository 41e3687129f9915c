"""Property-based tests on the core invariants.

* ``Split`` then ``Combine`` reconstructs the original instance for any
  random schema, any random document and any random valid
  fragmentation — the paper's operations are lossless inverses.
* Split pieces always partition the element occurrences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import FragmentInstance, FragmentRow
from repro.sim.random_fragmentation import random_fragmentation
from repro.xmlkit.writer import serialize

import random

from tests.documents import (
    element_count,
    feed_element_count,
    generate_document,
    random_schema,
)


@st.composite
def schema_doc_fragmentation(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=14))
    schema_seed = draw(st.integers(min_value=0, max_value=10_000))
    doc_seed = draw(st.integers(min_value=0, max_value=10_000))
    schema = random_schema(n_nodes, seed=schema_seed, repeat_prob=0.4)
    document = generate_document(schema, seed=doc_seed)
    n_fragments = draw(st.integers(min_value=2, max_value=n_nodes))
    fragmentation = random_fragmentation(
        schema,
        n_fragments=n_fragments,
        rng=random.Random(draw(st.integers(0, 10_000))),
    )
    return schema, document, fragmentation


def _serialized(instance):
    return sorted(
        serialize(doc, indent=None)
        for doc in instance.to_xml_documents()
    )


@settings(max_examples=60, deadline=None)
@given(schema_doc_fragmentation())
def test_split_then_combine_is_identity(case):
    schema, document, fragmentation = case
    whole = Fragment.whole(schema)
    instance = FragmentInstance(
        whole, [FragmentRow(document, None)]
    )
    reference = _serialized(instance.copy())

    pieces = instance.split(list(fragmentation.fragments))
    by_name = {piece.fragment.name: piece for piece in pieces}

    # Re-combine child fragments into their parents, deepest first.
    ordered = sorted(
        fragmentation.fragments,
        key=lambda fragment: -schema.depth(fragment.root_name),
    )
    current = {piece.fragment.name: piece for piece in pieces}
    for fragment in ordered:
        if fragment is fragmentation.root_fragment():
            continue
        # Find the current instance containing the parent element.
        parent_element = fragment.parent_element()
        owner_name = next(
            name for name, piece in current.items()
            if parent_element in piece.fragment.elements
        )
        child = current.pop(fragment.name)
        current[owner_name] = current[owner_name].combine(child)

    (rebuilt,) = current.values()
    assert _serialized(rebuilt) == reference


@settings(max_examples=60, deadline=None)
@given(schema_doc_fragmentation())
def test_split_partitions_element_occurrences(case):
    schema, document, fragmentation = case
    whole = Fragment.whole(schema)
    total = element_count(document)
    instance = FragmentInstance(whole, [FragmentRow(document, None)])
    pieces = instance.split(list(fragmentation.fragments))
    assert sum(feed_element_count(piece) for piece in pieces) == total
    # Row counts: one row per occurrence of each fragment root.
    for piece in pieces:
        root = piece.fragment.root_name
        expected = sum(
            1 for node in document.iter_all() if node.name == root
        )
        assert piece.row_count() == expected


@settings(max_examples=40, deadline=None)
@given(schema_doc_fragmentation())
def test_fragmentation_validity_holds_for_random_samples(case):
    schema, _, fragmentation = case
    # Constructing the Fragmentation already validates Definition 3.4;
    # re-validate structural facts directly.
    covered = set()
    for fragment in fragmentation:
        assert not (covered & fragment.elements)
        covered |= fragment.elements
    assert covered == set(schema.element_names())
