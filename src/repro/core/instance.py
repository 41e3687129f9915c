"""Fragment instances (Definition 3.2) as keyed feeds.

A fragment instance is, conceptually, a set of XML documents conforming
to the fragment's schema.  Internally we represent it as a *feed* of
rows: one row per occurrence of the fragment root, holding a nested
:class:`ElementData` value plus the ``PARENT`` reference (the element id
of the occurrence of the fragment root's schema parent).  Every element
occurrence carries an internal element id (``eid``), mirroring the
keys/foreign keys a relational back-end maintains; the paper's ``ID`` /
``PARENT`` attributes are simply the root-level exposure of those keys.

This representation makes ``Combine`` (attach child rows under the
matching parent occurrence, drop their ID/PARENT exposure, Def. 3.7) and
``Split`` (cut subtrees out and re-expose ID/PARENT, Def. 3.8) exact
inverses, which the property tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import OperationError
from repro.core.fragment import ID_ATTR, PARENT_ATTR, Fragment
from repro.schema.model import SchemaTree
from repro.xmlkit.tree import Element


def combine_orphan_message(parent_name: str, child_name: str,
                           orphan_keys: Iterable[int | None]) -> str:
    """Error text for child rows whose parent occurrences are missing,
    listing the orphaned PARENT keys.  Shared by the materialized,
    streaming and columnar combine paths so every dataplane reports
    the identical diagnosis.  ``None`` (a root row arriving where a
    child is expected) sorts first and renders literally."""
    keys = sorted(set(orphan_keys),
                  key=lambda key: (key is not None, key or 0))
    shown = ", ".join(str(key) for key in keys[:10])
    if len(keys) > 10:
        shown += f", ... ({len(keys) - 10} more)"
    return (
        f"combine({parent_name!r}, {child_name!r}): {len(keys)} "
        f"orphaned PARENT key(s) reference missing parents: [{shown}]"
    )


@dataclass(slots=True)
class ElementData:
    """One element occurrence: name, key, attributes, text, children.

    ``children`` maps a child element name to the list of its
    occurrences; serialization orders the groups by schema order, so the
    map needs no particular ordering discipline.
    """

    name: str
    eid: int
    attrs: dict[str, str] = field(default_factory=dict)
    text: str = ""
    children: dict[str, list["ElementData"]] = field(default_factory=dict)

    def add_child(self, child: "ElementData") -> "ElementData":
        """Attach ``child`` and return it."""
        self.children.setdefault(child.name, []).append(child)
        return child

    def iter_all(self) -> Iterator["ElementData"]:
        """This occurrence and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for group in node.children.values():
                stack.extend(reversed(group))

    def occurrences_of(self, name: str) -> Iterator["ElementData"]:
        """All descendant-or-self occurrences of element ``name``."""
        for node in self.iter_all():
            if node.name == name:
                yield node

    def copy(self) -> "ElementData":
        """Deep copy (used by tests and by endpoints that retain data)."""
        return ElementData(
            self.name,
            self.eid,
            dict(self.attrs),
            self.text,
            {
                name: [child.copy() for child in group]
                for name, group in self.children.items()
            },
        )

    def to_xml(self, schema: SchemaTree,
               expose: tuple[int | None, ...] | None = None) -> Element:
        """Render as an :class:`~repro.xmlkit.tree.Element`.

        Args:
            schema: supplies child ordering.
            expose: when given as ``(parent_eid,)``, write the paper's
                ``ID``/``PARENT`` attributes on this (root) element.
        """
        attrs = dict(self.attrs)
        if expose is not None:
            attrs[ID_ATTR] = str(self.eid)
            (parent_eid,) = expose
            attrs[PARENT_ATTR] = "" if parent_eid is None else str(parent_eid)
        element = Element(self.name, attrs, text=self.text)
        schema_node = schema.node(self.name)
        for child_node in schema_node.children:
            for child in self.children.get(child_node.name, []):
                element.children.append(child.to_xml(schema))
        # Children not declared under this element in the schema cannot
        # occur here by construction; no fallback path is needed.
        return element


@dataclass(slots=True)
class FragmentRow:
    """One fragment-root occurrence and its PARENT reference.

    ``version`` is endpoint-side bookkeeping stamped by a
    :class:`~repro.core.delta.VersionLog` when the owning endpoint has
    versioning enabled: the monotone exchange version at which this row
    last changed.  It never travels on the wire — delta exchange uses
    it purely to pick the changed subset (0 means "unversioned").
    """

    data: ElementData
    parent: int | None
    version: int = 0

    @property
    def eid(self) -> int:
        """The exposed ``ID`` attribute value of this row."""
        return self.data.eid


class FragmentInstance:
    """A feed of :class:`FragmentRow` conforming to one fragment.

    Operations that consume instances (``Combine``, ``Split``) take
    ownership of their inputs and may share or mutate the underlying
    :class:`ElementData`; use :meth:`copy` when the original must be
    preserved (tests do).
    """

    __slots__ = ("fragment", "rows")

    def __init__(self, fragment: Fragment,
                 rows: Iterable[FragmentRow] = ()) -> None:
        self.fragment = fragment
        self.rows: list[FragmentRow] = list(rows)

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[FragmentRow]:
        return iter(self.rows)

    def row_count(self) -> int:
        """Number of fragment-root occurrences."""
        return len(self.rows)

    def copy(self) -> "FragmentInstance":
        """Deep copy of the feed."""
        return FragmentInstance(
            self.fragment,
            [FragmentRow(row.data.copy(), row.parent, row.version)
             for row in self.rows],
        )

    def sort(self) -> None:
        """Sort rows by (PARENT, ID) — the sorted-feed order of [5, 6].

        ``PARENT=None`` (root rows) sorts strictly before every real
        eid, matching the relational engine's NULLS-FIRST ``ORDER BY
        parent, id``; keying on ``row.parent or 0`` would collapse
        root rows with children of a genuine eid-0 parent and diverge
        from the document order the aligned join lines up with.
        """
        self.rows.sort(
            key=lambda row: (row.parent is not None, row.parent or 0,
                             row.eid)
        )

    # -- the instance-level semantics of Combine / Split ----------------------

    def combine(self, child: "FragmentInstance",
                result_name: str | None = None) -> "FragmentInstance":
        """Inline ``child`` rows under the matching parent occurrences
        (Definition 3.7).  The child's ID/PARENT exposure disappears;
        its element ids survive internally, like keys would.

        Raises:
            OperationError: if the fragments cannot combine, or child
                rows reference parent occurrences that do not exist.
        """
        result_fragment = self.fragment.combined_with(
            child.fragment, result_name
        )
        anchor = child.fragment.parent_element()
        index: dict[int, ElementData] = {}
        for row in self.rows:
            for occurrence in row.data.occurrences_of(anchor):
                index[occurrence.eid] = occurrence
        orphan_keys: list[int | None] = []
        for child_row in child.rows:
            # None (no PARENT) can never match an occurrence; previously
            # it was folded onto the sentinel -1, which a genuine
            # negative eid could collide with.
            key = child_row.parent
            target = index.get(key) if key is not None else None
            if target is None:
                orphan_keys.append(key)
                continue
            target.add_child(child_row.data)
        if orphan_keys:
            raise OperationError(combine_orphan_message(
                self.fragment.name, child.fragment.name, orphan_keys
            ))
        return FragmentInstance(
            result_fragment, [FragmentRow(row.data, row.parent)
                              for row in self.rows]
        )

    def split(self, pieces: Sequence[Fragment]) -> list["FragmentInstance"]:
        """Split into disjoint pieces (Definition 3.8).

        ``pieces`` must partition this fragment's elements (checked via
        :meth:`Fragment.split_into` semantics) and one piece must contain
        this fragment's root; each other piece root gets fresh
        ``PARENT`` references to the enclosing element occurrence.
        """
        # Validate the partition at the schema level first.
        self.fragment.split_into(
            [piece.elements for piece in pieces],
            [piece.name for piece in pieces],
        )
        owner: dict[str, Fragment] = {}
        for piece in pieces:
            for element in piece.elements:
                owner[element] = piece
        outputs: dict[str, list[FragmentRow]] = {
            piece.name: [] for piece in pieces
        }
        root_piece = owner[self.fragment.root_name]

        def extract(node: ElementData, piece: Fragment) -> ElementData:
            kept: dict[str, list[ElementData]] = {}
            for child_name, group in node.children.items():
                child_piece = owner[child_name]
                if child_piece is piece:
                    kept[child_name] = [
                        extract(child, piece) for child in group
                    ]
                else:
                    for child in group:
                        outputs[child_piece.name].append(
                            FragmentRow(
                                extract(child, child_piece), node.eid
                            )
                        )
            return ElementData(
                node.name, node.eid, dict(node.attrs), node.text, kept
            )

        for row in self.rows:
            outputs[root_piece.name].append(
                FragmentRow(extract(row.data, root_piece), row.parent)
            )
        return [
            FragmentInstance(piece, outputs[piece.name]) for piece in pieces
        ]

    # -- XML views -------------------------------------------------------------

    def to_xml_documents(self) -> list[Element]:
        """One XML document per row, ID/PARENT exposed on the root
        (what actually travels on a cross-edge)."""
        return [
            row.data.to_xml(self.fragment.schema, expose=(row.parent,))
            for row in self.rows
        ]
