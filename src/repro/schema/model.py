"""Schema trees: the paper's view of XML Schemas (Section 3.1).

A schema is a rooted tree of named elements.  Each element has a
cardinality *relative to its parent* (exactly-one, optional, ``*`` or
``+``), an ordered list of child elements, an optional list of attribute
names, and leaf elements carry text content in instances.

Element names are unique within a tree — the paper's validity definition
("each element in the XML Schema is defined only once", Def. 3.4) relies
on this, and both the customer schema of Section 1.1 and the XMark DTD of
Figure 7 satisfy it.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import SchemaError


class Cardinality(enum.Enum):
    """How many times an element occurs under its parent."""

    ONE = ""
    OPT = "?"
    MANY = "*"
    PLUS = "+"

    @property
    def repeated(self) -> bool:
        """True for ``*`` and ``+`` (more than one occurrence allowed)."""
        return self in (Cardinality.MANY, Cardinality.PLUS)

    @property
    def optional(self) -> bool:
        """True for ``?`` and ``*`` (zero occurrences allowed)."""
        return self in (Cardinality.OPT, Cardinality.MANY)

    @classmethod
    def from_suffix(cls, suffix: str) -> "Cardinality":
        """Map a DTD occurrence suffix (``""``/``?``/``*``/``+``)."""
        for member in cls:
            if member.value == suffix:
                return member
        raise SchemaError(f"unknown occurrence suffix {suffix!r}")


@dataclass(slots=True)
class SchemaNode:
    """One element declaration in a schema tree."""

    name: str
    cardinality: Cardinality = Cardinality.ONE
    children: list["SchemaNode"] = field(default_factory=list)
    attributes: list[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Leaf elements carry text content in instances."""
        return not self.children

    def child(self, name: str) -> "SchemaNode":
        """Return the direct child named ``name``.

        Raises:
            SchemaError: if there is no such child.
        """
        for node in self.children:
            if node.name == name:
                return node
        raise SchemaError(f"{self.name!r} has no child element {name!r}")


class SchemaTree:
    """A rooted schema tree with unique element names and fast lookups."""

    def __init__(self, root: SchemaNode) -> None:
        self.root = root
        self._nodes: dict[str, SchemaNode] = {}
        self._parents: dict[str, str | None] = {}
        self._depths: dict[str, int] = {}
        self._positions: dict[str, int] = {}
        self._fingerprint: str | None = None
        self._index(root, None, 0)

    def _index(self, node: SchemaNode, parent: str | None,
               depth: int) -> None:
        if node.name in self._nodes:
            raise SchemaError(
                f"element {node.name!r} is declared more than once"
            )
        self._nodes[node.name] = node
        self._parents[node.name] = parent
        self._depths[node.name] = depth
        self._positions[node.name] = len(self._positions)
        for child in node.children:
            self._index(child, node.name, depth + 1)

    # -- lookups ---------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> SchemaNode:
        """Return the node named ``name``.

        Raises:
            SchemaError: if the element is not declared in this tree.
        """
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise SchemaError(f"unknown element {name!r}") from exc

    def element_names(self) -> list[str]:
        """All element names, in document (pre-) order."""
        return [node.name for node in self.iter_nodes()]

    def in_preorder(self, names: Iterable[str]) -> list[str]:
        """``names`` (all declared in this tree) sorted into document
        (pre-) order, by positions recorded once at construction."""
        return sorted(names, key=self._positions.__getitem__)

    def iter_nodes(self) -> Iterator[SchemaNode]:
        """Iterate all nodes in pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def fingerprint(self) -> str:
        """Canonical structural fingerprint of this tree.

        Two independently parsed copies of the same schema document
        (same element names, cardinalities, attribute lists and child
        order) produce the same hex digest, so identity-independent
        consumers — the discovery agency's registration check, the
        negotiated-plan cache — can recognize an agreed schema without
        sharing the Python object.
        """
        if self._fingerprint is None:
            parts: list[str] = []
            for node in self.iter_nodes():
                parts.append(
                    f"{node.name}{node.cardinality.value}"
                    f"[{','.join(node.attributes)}]"
                    f"({','.join(child.name for child in node.children)})"
                )
            digest = hashlib.sha256(
                "\n".join(parts).encode("utf-8")
            ).hexdigest()
            self._fingerprint = digest
        return self._fingerprint

    def structurally_equal(self, other: "SchemaTree") -> bool:
        """True when ``other`` describes the same schema, element for
        element — identity not required (e.g. two parses of one DTD)."""
        return self is other or self.fingerprint() == other.fingerprint()

    def parent_name(self, name: str) -> str | None:
        """Name of the parent element, or ``None`` for the root."""
        self.node(name)
        return self._parents[name]

    def parent_of(self, name: str) -> SchemaNode | None:
        """Parent node, or ``None`` for the root."""
        parent = self.parent_name(name)
        return None if parent is None else self._nodes[parent]

    def depth(self, name: str) -> int:
        """Root depth 0, children 1, and so on."""
        self.node(name)
        return self._depths[name]

    def position(self, name: str) -> int:
        """Pre-order position: the root 0, its first child 1, ..."""
        self.node(name)
        return self._positions[name]

    def path(self, name: str) -> list[str]:
        """Element names from the root down to ``name`` (inclusive)."""
        chain = [name]
        current = self.parent_name(name)
        while current is not None:
            chain.append(current)
            current = self._parents[current]
        chain.reverse()
        return chain

    def subtree_names(self, name: str) -> frozenset[str]:
        """Names of all elements in the full subtree rooted at ``name``."""
        names: list[str] = []
        stack = [self.node(name)]
        while stack:
            node = stack.pop()
            names.append(node.name)
            stack.extend(node.children)
        return frozenset(names)

    # -- structure checks used by fragments ------------------------------

    def top_of(self, names: frozenset[str] | set[str]) -> str:
        """Return the unique topmost element of a connected name set.

        Raises:
            SchemaError: if the set is empty or not connected.
        """
        tops = [
            name
            for name in names
            if (parent := self.parent_name(name)) is None
            or parent not in names
        ]
        if len(tops) != 1:
            raise SchemaError(
                f"element set {sorted(names)} is not a connected subtree"
            )
        return tops[0]

    def has_repeated_below(self, root_name: str,
                           names: frozenset[str] | set[str]) -> bool:
        """True if any element of ``names`` other than ``root_name`` is
        repeated (``*``/``+``) — i.e. the set is not *flat-storable*
        as a single relational row per root occurrence."""
        for name in names:
            if name == root_name:
                continue
            if self.node(name).cardinality.repeated:
                return True
        return False
