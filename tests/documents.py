"""Seeded random schemas and documents, and measures of documents.

:func:`random_schema` grows irregular schema trees and
:func:`generate_document` fills any schema tree with a reproducible
document with fresh element ids; :func:`element_count`,
:func:`feed_element_count` and :func:`tagged_size` measure documents
and feeds.
"""

from __future__ import annotations

import random

from repro.core.instance import ElementData, FragmentInstance
from repro.schema.model import Cardinality, SchemaNode, SchemaTree

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
)


def random_schema(n_nodes: int, *, max_fanout: int = 4,
                  repeat_prob: float = 0.3, seed: int = 0,
                  prefix: str = "e") -> SchemaTree:
    """Grow a random schema tree with exactly ``n_nodes`` elements.

    Nodes are attached to uniformly chosen existing nodes whose fan-out
    is below ``max_fanout``; cardinalities are drawn with the given
    repeat probability.  Deterministic for a fixed seed.
    """
    if n_nodes < 1:
        raise ValueError("a schema tree needs at least one element")
    rng = random.Random(seed)
    root = SchemaNode(f"{prefix}0")
    open_nodes = [root]
    for index in range(1, n_nodes):
        parent = rng.choice(open_nodes)
        cardinality = (
            Cardinality.MANY if rng.random() < repeat_prob
            else Cardinality.ONE
        )
        child = SchemaNode(f"{prefix}{index}", cardinality)
        parent.children.append(child)
        if len(parent.children) >= max_fanout:
            open_nodes.remove(parent)
        open_nodes.append(child)
    return SchemaTree(root)


def _occurrences(node: SchemaNode, rng: random.Random,
                 max_repeat: int) -> int:
    if node.cardinality is Cardinality.ONE:
        return 1
    if node.cardinality is Cardinality.OPT:
        return rng.randint(0, 1)
    low = 1 if node.cardinality is Cardinality.PLUS else 0
    return rng.randint(low, max_repeat)


def generate_document(schema: SchemaTree, *, seed: int = 0,
                      max_repeat: int = 3,
                      text_words: int = 2) -> ElementData:
    """Generate a random document conforming to ``schema``.

    Args:
        schema: the schema tree to conform to.
        seed: RNG seed (documents are reproducible).
        max_repeat: maximum occurrences of a ``*``/``+`` element per
            parent.
        text_words: words of text per leaf element.
    """
    rng = random.Random(seed)
    next_eid = 1

    def build(node: SchemaNode) -> ElementData:
        nonlocal next_eid
        data = ElementData(node.name, next_eid)
        next_eid += 1
        for attribute in node.attributes:
            data.attrs[attribute] = rng.choice(_WORDS)
        if node.is_leaf:
            data.text = " ".join(
                rng.choice(_WORDS) for _ in range(text_words)
            )
        for child in node.children:
            for _ in range(_occurrences(child, rng, max_repeat)):
                data.add_child(build(child))
        return data

    return build(schema.root)


def element_count(document: ElementData) -> int:
    """Element occurrences in ``document``'s subtree."""
    return sum(1 for _ in document.iter_all())


def feed_element_count(instance: FragmentInstance) -> int:
    """Element occurrences across all rows of a feed."""
    return sum(element_count(row.data) for row in instance.rows)


def tagged_size(document: ElementData) -> int:
    """Approximate serialized size in bytes (tags + attrs + text)."""
    total = 0
    for node in document.iter_all():
        total += 2 * len(node.name) + 5  # <n></n>
        total += len(node.text)
        for key, value in node.attrs.items():
            total += len(key) + len(value) + 4
    return total
