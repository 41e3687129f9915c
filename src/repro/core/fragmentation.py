"""Fragmentations and their validity (Definitions 3.3 and 3.4).

A fragmentation is a set of fragments of one schema.  It is *valid* iff

(i)  each schema element is defined exactly once across the fragments
     (non-redundant and complete), and
(ii) if there is more than one fragment, every fragment has a parent or
     a child fragment (connectivity).

Because valid fragmentations partition the element set of a tree, the
fragments themselves form a tree: the parent of fragment ``f`` is the
fragment containing the schema parent of ``f``'s root.  That fragment
tree is what constrains combine orderings (Section 4.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import FragmentationError
from repro.core.fragment import Fragment
from repro.schema.model import SchemaTree


class Fragmentation:
    """A valid set of fragments over one schema tree."""

    def __init__(self, schema: SchemaTree, fragments: Iterable[Fragment],
                 name: str = "fragmentation") -> None:
        self.schema = schema
        self.name = name
        self.fragments: list[Fragment] = sorted(
            fragments, key=lambda f: schema.depth(f.root_name)
        )
        self._validate()
        self._by_element: dict[str, Fragment] = {}
        self._by_name: dict[str, Fragment] = {}
        for fragment in self.fragments:
            self._by_name[fragment.name] = fragment
            for element in fragment.elements:
                self._by_element[element] = fragment

    def _validate(self) -> None:
        if not self.fragments:
            raise FragmentationError(
                f"fragmentation {self.name!r} has no fragments"
            )
        seen: dict[str, str] = {}
        names: set[str] = set()
        for fragment in self.fragments:
            if fragment.schema is not self.schema:
                raise FragmentationError(
                    f"fragment {fragment.name!r} belongs to another schema"
                )
            if fragment.name in names:
                raise FragmentationError(
                    f"duplicate fragment name {fragment.name!r}"
                )
            names.add(fragment.name)
            for element in fragment.elements:
                if element in seen:
                    raise FragmentationError(
                        f"element {element!r} is defined in both "
                        f"{seen[element]!r} and {fragment.name!r} "
                        "(Definition 3.4 (i))"
                    )
                seen[element] = fragment.name
        missing = set(self.schema.element_names()) - set(seen)
        if missing:
            raise FragmentationError(
                f"fragmentation {self.name!r} does not cover elements "
                f"{sorted(missing)} (Definition 3.4 (i))"
            )
        # (ii) holds automatically for a partition of a tree, but we
        # check it as stated to mirror the definition.
        if len(self.fragments) > 1:
            for fragment in self.fragments:
                if not self._has_neighbor(fragment, seen):
                    raise FragmentationError(
                        f"fragment {fragment.name!r} has no parent or "
                        "child fragment (Definition 3.4 (ii))"
                    )

    def _has_neighbor(self, fragment: Fragment,
                      owner: dict[str, str]) -> bool:
        parent = fragment.parent_element()
        if parent is not None and owner[parent] != fragment.name:
            return True
        for element in fragment.elements:
            for child in self.schema.node(element).children:
                if child.name not in fragment.elements:
                    return True
        return False

    # -- construction -------------------------------------------------------

    @classmethod
    def most_fragmented(cls, schema: SchemaTree,
                        name: str = "MF") -> "Fragmentation":
        """The paper's *MF*: one fragment per schema element."""
        return cls(
            schema,
            [Fragment.single(schema, element)
             for element in schema.element_names()],
            name,
        )

    @classmethod
    def least_fragmented(cls, schema: SchemaTree,
                         name: str = "LF") -> "Fragmentation":
        """The paper's *LF*: inline every element that has a one-to-one
        relation with its parent; fragment boundaries sit exactly at
        repeated (``*``/``+``) elements."""
        roots = [schema.root.name] + [
            node.name
            for node in schema.iter_nodes()
            if node.cardinality.repeated
        ]
        return cls.from_roots(schema, roots, name)

    @classmethod
    def from_roots(cls, schema: SchemaTree, roots: Sequence[str],
                   name: str = "fragmentation") -> "Fragmentation":
        """Cut the schema tree at the given fragment roots.

        Each element is assigned to its nearest ancestor-or-self root.
        The schema root must be among ``roots``.
        """
        root_set = set(roots)
        if schema.root.name not in root_set:
            raise FragmentationError(
                "the schema root must be one of the fragment roots"
            )
        membership: dict[str, set[str]] = {root: set() for root in root_set}

        def assign(element: str, current_root: str) -> None:
            owner = element if element in root_set else current_root
            membership[owner].add(element)
            for child in schema.node(element).children:
                assign(child.name, owner)

        assign(schema.root.name, schema.root.name)
        fragments = [
            Fragment(schema, elements) for elements in membership.values()
        ]
        return cls(schema, fragments, name)

    @classmethod
    def whole_document(cls, schema: SchemaTree,
                       name: str = "document") -> "Fragmentation":
        """The default when a system registers no fragmentation: a single
        fragment covering the entire schema (publish&map behaviour)."""
        return cls(schema, [Fragment.whole(schema)], name)

    # -- lookups -------------------------------------------------------------

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments)

    def __len__(self) -> int:
        return len(self.fragments)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def fragment(self, name: str) -> Fragment:
        """Return the fragment called ``name``.

        Raises:
            FragmentationError: if there is no such fragment.
        """
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise FragmentationError(
                f"{self.name!r} has no fragment {name!r}"
            ) from exc

    def fragment_of(self, element: str) -> Fragment:
        """Return the unique fragment that defines ``element``."""
        try:
            return self._by_element[element]
        except KeyError as exc:
            raise FragmentationError(
                f"element {element!r} is not covered by {self.name!r}"
            ) from exc

    def parent_fragment(self, fragment: Fragment) -> Fragment | None:
        """The fragment containing the schema parent of ``fragment``'s
        root, or ``None`` for the fragment holding the schema root."""
        parent_element = fragment.parent_element()
        if parent_element is None:
            return None
        return self.fragment_of(parent_element)

    def root_fragment(self) -> Fragment:
        """The fragment containing the schema root."""
        return self.fragment_of(self.schema.root.name)

    def is_flat_storable(self) -> bool:
        """True if every fragment can be stored as one flat relation."""
        return all(fragment.is_flat_storable() for fragment in self.fragments)

    def __repr__(self) -> str:
        return (
            f"Fragmentation({self.name!r}, "
            f"{[fragment.name for fragment in self.fragments]!r})"
        )
