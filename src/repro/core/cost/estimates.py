"""Cardinality and size statistics for fragments.

The cost model needs, for any fragment that can appear in a program
(including mid-program combine/split results), an estimated row count
and serialized size.  Both are compositional over *element occurrence
counts*: for fragment ``f``,

* ``rows(f)   = count(root(f))``
* ``size(f)   = Σ_{e ∈ f} count(e) · bytes_per_occurrence(e)``

so a catalog of per-element counts and widths prices every derived
fragment consistently.  Catalogs are built either from real data
(:meth:`StatisticsCatalog.from_document`) or synthetically from the
schema's cardinalities (:meth:`StatisticsCatalog.synthetic`) — the
latter is what the simulator of Section 5.4 uses.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.core.fragment import Fragment
from repro.core.instance import ElementData
from repro.schema.model import SchemaTree


#: Bytes charged per key (eid) in a tabular sorted feed.
KEY_BYTES = 8.0
#: Per-value separator overhead in a feed.
SEPARATOR_BYTES = 2.0


class StatisticsCatalog:
    """Per-element occurrence counts and byte widths for one schema.

    Two widths are kept per element: the *tagged* width (serialized XML,
    what a published document costs on the wire) and the *value* width
    (text + attribute values only, what a tabular sorted feed carries —
    the paper ships DE fragments as feeds, see Section 4.1's remark on
    sorted feeds and Table 3).

    The sums the cost model prices (:meth:`fragment_elements`,
    :meth:`fragment_feed_size`) are memoized by element set (see
    :meth:`_memoized`): the plan search prices the same fragments
    thousands of times.  Nothing writes the count or width tables after
    construction, so a memoized sum cannot go stale."""

    def __init__(self, schema: SchemaTree, counts: dict[str, float],
                 widths: dict[str, float],
                 value_widths: dict[str, float] | None = None) -> None:
        self.schema = schema
        self._counts = counts
        self._widths = widths
        if value_widths is None:
            # Conservative fallback: values are the width minus the
            # fixed tag overhead.
            value_widths = {
                name: max(0.0, widths[name] - (2 * len(name) + 5))
                for name in widths
            }
        self._value_widths = value_widths
        self._element_sums: dict[tuple[str, ...], float] = {}
        self._feed_sums: dict[tuple[str, ...], float] = {}
        self._signature: str | None = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def synthetic(cls, schema: SchemaTree, *, fanout: float = 3.0,
                  optional_prob: float = 0.5, text_bytes: float = 12.0,
                  ) -> "StatisticsCatalog":
        """Derive statistics from the schema alone.

        Repeated elements (``*``/``+``) occur ``fanout`` times per
        parent occurrence; optional elements occur ``optional_prob``
        times; leaf text contributes ``text_bytes`` bytes.
        """
        counts: dict[str, float] = {}
        widths: dict[str, float] = {}
        value_widths: dict[str, float] = {}
        for node in schema.iter_nodes():
            parent = schema.parent_of(node.name)
            base = 1.0 if parent is None else counts[parent.name]
            if node.cardinality.repeated:
                multiplier = fanout
            elif node.cardinality.optional:
                multiplier = optional_prob
            else:
                multiplier = 1.0
            counts[node.name] = base * multiplier
            value = text_bytes if node.is_leaf else 0.0
            value += sum(text_bytes / 2 for _ in node.attributes)
            tag = 2 * len(node.name) + 5 + sum(
                len(attr) + 4 for attr in node.attributes
            )
            widths[node.name] = tag + value
            value_widths[node.name] = value
        return cls(schema, counts, widths, value_widths)

    @classmethod
    def from_document(cls, schema: SchemaTree,
                      root: ElementData) -> "StatisticsCatalog":
        """Measure exact statistics from a materialized document."""
        counts: dict[str, float] = {name: 0.0 for name in
                                    schema.element_names()}
        byte_totals: dict[str, float] = {name: 0.0 for name in
                                         schema.element_names()}
        value_totals: dict[str, float] = {name: 0.0 for name in
                                          schema.element_names()}
        for node in root.iter_all():
            counts[node.name] += 1
            value = len(node.text) + sum(
                len(value) for value in node.attrs.values()
            )
            tag = 2 * len(node.name) + 5 + sum(
                len(key) + 4 for key in node.attrs
            )
            byte_totals[node.name] += tag + value
            value_totals[node.name] += value
        widths = {
            name: (byte_totals[name] / counts[name]) if counts[name] else 0.0
            for name in counts
        }
        value_widths = {
            name: (value_totals[name] / counts[name])
            if counts[name] else 0.0
            for name in counts
        }
        return cls(schema, counts, widths, value_widths)

    @property
    def signature(self) -> str:
        """Digest of the schema and the three tables: equal exactly
        when every count and width is.  Hashed on first read, so a
        catalog no plan cache keys on never pays for it."""
        if self._signature is None:
            tables = (self._counts, self._widths, self._value_widths)
            text = "\n".join([
                self.schema.fingerprint(),
                *(repr(sorted(table.items())) for table in tables),
            ])
            self._signature = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
        return self._signature

    # -- per-element accessors ---------------------------------------------------

    def count(self, element: str) -> float:
        """Estimated occurrences of ``element`` in the full document."""
        return self._counts[element]

    # -- per-fragment accessors ----------------------------------------------------

    def fragment_rows(self, fragment: Fragment) -> float:
        """Estimated row count of the fragment's instance feed."""
        return self._counts[fragment.root_name]

    def fragment_elements(self, fragment: Fragment) -> float:
        """Estimated total element occurrences in the instance."""
        return self._memoized(self._element_sums, fragment.elements,
                              self._counts.__getitem__)

    def fragment_size(self, fragment: Fragment) -> float:
        """Estimated serialized (tagged XML) bytes of the instance,
        including the ID/PARENT exposure on each row."""
        body = sum(
            self._counts[name] * self._widths[name]
            for name in fragment.elements
        )
        return body + 24.0 * self.fragment_rows(fragment)

    def fragment_feed_size(self, fragment: Fragment) -> float:
        """Estimated bytes of the instance as a tabular *sorted feed*
        (keys + values, no tags) — the paper's DE wire format and the
        ``size()`` that ``comm_cost`` prices (Section 4.1, Table 3)."""
        body = self._memoized(
            self._feed_sums, fragment.elements,
            lambda name: self._counts[name] * (
                KEY_BYTES + SEPARATOR_BYTES + self._value_widths[name]
            ),
        )
        return body + KEY_BYTES * self.fragment_rows(fragment)

    @staticmethod
    def _memoized(memo: dict[tuple[str, ...], float],
                  elements: frozenset[str],
                  term: Callable[[str], float]) -> float:
        """``Σ term(e)`` over ``elements``, summed once per key.

        The key is the elements in the set's iteration order, the order
        the sum is taken in: an equal set built another way may iterate
        differently, and float addition is not associative, so the key
        makes the memoized sum the direct sum bit for bit."""
        key = tuple(elements)
        total = memo.get(key)
        if total is None:
            total = memo[key] = sum(map(term, key))
        return total
