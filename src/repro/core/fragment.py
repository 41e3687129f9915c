"""Fragments of an XML Schema (Definition 3.1).

A fragment is a *pruned subtree* of the schema: it is rooted at some
schema element and contains a connected, upward-closed set of elements of
that element's subtree.  ("Upward-closed": if an element is in the
fragment, so is its parent, unless it is the fragment root.)  The root of
a fragment carries the two bookkeeping attributes ``ID`` and ``PARENT``
that link fragment instances back together.

Examples from the paper: the ``Order_Service`` fragment of Section 3.1
contains ``{Order, Service, ServiceName}`` and is rooted at ``Order``;
combining it under ``Customer`` yields ``Customer_Order_Service``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import FragmentationError, OperationError, SchemaError
from repro.schema.model import SchemaNode, SchemaTree

ID_ATTR = "ID"
PARENT_ATTR = "PARENT"


class Fragment:
    """A named, pruned subtree of a schema tree.

    Fragments are immutable value objects; equality is by schema
    identity, root and element set.
    """

    __slots__ = ("_name", "schema", "root_name", "elements", "_hash")

    def __init__(self, schema: SchemaTree, elements: Iterable[str],
                 name: str | None = None) -> None:
        element_set = frozenset(elements)
        if not element_set:
            raise FragmentationError("a fragment cannot be empty")
        for element in element_set:
            schema.node(element)  # raises SchemaError if unknown
        try:
            root_name = schema.top_of(element_set)
        except SchemaError as exc:
            raise FragmentationError(str(exc)) from exc
        for element in element_set:
            parent = schema.parent_name(element)
            if element != root_name and parent not in element_set:
                raise FragmentationError(
                    f"fragment element {element!r} is disconnected from "
                    f"root {root_name!r}"
                )
        self._init(schema, element_set, root_name, name)

    def _init(self, schema: SchemaTree, elements: frozenset[str],
              root_name: str, name: str | None) -> None:
        self.schema = schema
        self.elements = elements
        self.root_name = root_name
        self._name = name or None
        self._hash = hash((id(schema), root_name, elements))

    @property
    def name(self) -> str:
        """The given name, or (``None`` / ``""``) :meth:`default_name`,
        computed on first read."""
        if self._name is None:
            self._name = self.default_name(self.schema, self.elements)
        return self._name

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def default_name(schema: SchemaTree, elements: frozenset[str]) -> str:
        """The paper's naming convention: pre-order element names joined
        by underscores (e.g. ``Customer_Order_Service``)."""
        return "_".join(schema.in_preorder(elements))

    @classmethod
    def full_subtree(cls, schema: SchemaTree, root_name: str,
                     name: str | None = None) -> "Fragment":
        """The fragment containing the entire subtree under ``root_name``."""
        return cls(schema, schema.subtree_names(root_name), name)

    @classmethod
    def whole(cls, schema: SchemaTree, name: str | None = None) -> "Fragment":
        """The trivial fragment covering the whole schema (one full
        document per instance row) — the publish&map default."""
        return cls.full_subtree(schema, schema.root.name, name)

    @classmethod
    def single(cls, schema: SchemaTree, element: str,
               name: str | None = None) -> "Fragment":
        """The smallest granularity: a fragment of a single element."""
        return cls(schema, [element], name)

    # -- basic properties ---------------------------------------------------

    def __contains__(self, element: str) -> bool:
        return element in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fragment):
            return NotImplemented
        return (
            self.schema is other.schema
            and self.root_name == other.root_name
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Fragment({self.name!r})"

    def parent_element(self) -> str | None:
        """The schema parent of the fragment root (``None`` at the
        schema root).  Instances' ``PARENT`` attributes refer to
        occurrences of this element."""
        return self.schema.parent_name(self.root_name)

    def is_flat_storable(self) -> bool:
        """True if no non-root element of the fragment is repeated —
        i.e. each root occurrence maps to one flat relational row (see
        DESIGN.md)."""
        return not self.schema.has_repeated_below(
            self.root_name, self.elements
        )

    # -- pruned-subtree navigation -----------------------------------------

    def children_of(self, element: str) -> list[SchemaNode]:
        """Schema children of ``element`` that belong to this fragment,
        in schema order."""
        if element not in self.elements:
            raise FragmentationError(
                f"{element!r} is not in fragment {self.name!r}"
            )
        return [
            child
            for child in self.schema.node(element).children
            if child.name in self.elements
        ]

    def leaf_elements(self) -> list[str]:
        """True schema leaves contained in this fragment, pre-order
        (these carry text content and become relational columns)."""
        return [
            node.name
            for node in self.schema.iter_nodes()
            if node.name in self.elements and node.is_leaf
        ]

    # -- the algebraic structure used by Combine / Split ---------------------

    def can_combine(self, child: "Fragment") -> bool:
        """True if ``child`` can be inlined into this fragment
        (Definition 3.7): its root's schema parent belongs to us and
        the element sets are disjoint."""
        parent = child.parent_element()
        return (
            parent is not None
            and parent in self.elements
            and not (self.elements & child.elements)
        )

    def combined_with(self, child: "Fragment",
                      name: str | None = None) -> "Fragment":
        """The schema-level result of ``Combine(self, child)``.

        Built without re-validation: when :meth:`can_combine` holds the
        union is a fragment by construction — rooted at our root, and
        connected because the child's root hangs off one of our
        elements.

        Raises:
            OperationError: if the fragments are not parent/child-related
                (the paper's example: ``Line`` and ``Customer`` cannot be
                combined).
        """
        if not self.can_combine(child):
            raise OperationError(
                f"cannot combine {child.name!r} into {self.name!r}: "
                "roots are not parent/child related"
            )
        combined = Fragment.__new__(Fragment)
        combined._init(self.schema, self.elements | child.elements,
                       self.root_name, name)
        return combined

    def split_into(self, element_sets: Sequence[Iterable[str]],
                   names: Sequence[str] | None = None) -> list["Fragment"]:
        """The schema-level result of ``Split(self, f1, ..., fn)``.

        The element sets must partition this fragment's elements and the
        first set must contain this fragment's root (Definition 3.8:
        splitting is projection, the original root stays in a piece).

        Raises:
            OperationError: if the sets do not partition the fragment.
        """
        sets = [frozenset(part) for part in element_sets]
        union: set[str] = set()
        total = 0
        for part in sets:
            union |= part
            total += len(part)
        if union != self.elements or total != len(self.elements):
            raise OperationError(
                f"split of {self.name!r} must partition its elements"
            )
        result_names: Sequence[str | None]
        if names is None:
            result_names = [None] * len(sets)
        elif len(names) != len(sets):
            raise OperationError("one name per split output is required")
        else:
            result_names = names
        return [
            Fragment(self.schema, part, part_name)
            for part, part_name in zip(sets, result_names)
        ]
