"""Generated fragments for the properties that pin the plan search's
shortcuts (unvalidated ``combined_with``, lazy names, memoized catalog
sums) to the slow paths they replace."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.schema.generator import balanced_schema
from repro.sim.random_fragmentation import random_fragmentation


@st.composite
def combine_walks(draw):
    """``(schema, steps)``: a balanced schema and the ``(parent, child,
    parent.combined_with(child))`` steps of combining the pieces of a
    random fragmentation of it, in a random order, into one."""
    schema = balanced_schema(
        draw(st.integers(1, 3)), draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 999)),
    )
    pieces = list(random_fragmentation(
        schema, n_fragments=draw(st.integers(1, min(len(schema), 8))),
        rng=random.Random(draw(st.integers(0, 9999))),
    ))
    steps = []
    while True:
        pairs = [
            (parent, child)
            for parent in pieces for child in pieces
            if parent.can_combine(child)
        ]
        if not pairs:
            return schema, steps
        parent, child = pairs[draw(st.integers(0, len(pairs) - 1))]
        combined = parent.combined_with(child)
        steps.append((parent, child, combined))
        pieces.remove(parent)
        pieces.remove(child)
        pieces.append(combined)


def walk_fragments(steps) -> list:
    """Every fragment a walk met: the pieces and each combine result."""
    return [fragment for step in steps for fragment in step]
