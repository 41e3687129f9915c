"""Random schema-tree generators for the simulation study (Section 5.4).

The paper evaluates on synthetic DTDs: a balanced tree with 3 levels and
fan-out 4 (Figures 10/11) and balanced trees of height 2 with fan-out 5,
i.e. 31 nodes (Table 5).  :func:`balanced_schema` builds exactly those.
"""

from __future__ import annotations

import random

from repro.schema.model import Cardinality, SchemaNode, SchemaTree


def balanced_schema(levels: int, fanout: int, *, repeat_prob: float = 0.3,
                    seed: int = 0, prefix: str = "e") -> SchemaTree:
    """Build a balanced schema tree.

    Args:
        levels: number of levels *below* the root (height of the tree);
            ``levels=2, fanout=5`` gives the paper's 31-node DTDs.
        fanout: children per internal node.
        repeat_prob: probability that a non-root element is repeated
            (``*``); the paper's generator does not specify this, so it
            is a seeded knob.
        seed: RNG seed for cardinality choices (deterministic).
        prefix: element name prefix (names are ``{prefix}{counter}``).
    """
    rng = random.Random(seed)
    counter = 0

    def fresh_name() -> str:
        nonlocal counter
        name = f"{prefix}{counter}"
        counter += 1
        return name

    def build(depth: int) -> SchemaNode:
        cardinality = Cardinality.ONE
        if depth > 0 and rng.random() < repeat_prob:
            cardinality = Cardinality.MANY
        node = SchemaNode(fresh_name(), cardinality)
        if depth < levels:
            node.children = [build(depth + 1) for _ in range(fanout)]
        return node

    return SchemaTree(build(0))
