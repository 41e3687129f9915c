"""A lightweight element tree built on top of the streaming parser."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XmlSyntaxError
from repro.xmlkit.parser import END, START, TEXT, tokens


@dataclass(slots=True)
class Element:
    """An XML element: a name, attributes, child elements and text.

    ``text`` holds the concatenated character data directly inside this
    element (the documents this library manipulates have no mixed
    content, so a single text slot per element suffices and keeps the
    model small).
    """

    name: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["Element"] = field(default_factory=list)
    text: str = ""

    def append(self, child: "Element") -> "Element":
        """Append ``child`` and return it (enables fluent tree building)."""
        self.children.append(child)
        return child

    def child(self, name: str) -> "Element | None":
        """Return the first direct child named ``name``, or ``None``."""
        for node in self.children:
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Element"]:
        """Return all direct children named ``name``."""
        return [node for node in self.children if node.name == name]

    def get(self, attr: str, default: str | None = None) -> str | None:
        """Return attribute ``attr`` or ``default``."""
        return self.attrs.get(attr, default)

    def local_name(self) -> str:
        """Return the name with any namespace prefix stripped."""
        _, _, local = self.name.rpartition(":")
        return local


def parse_tree(text: str) -> Element:
    """Parse ``text`` into an :class:`Element` tree and return the root.

    Raises:
        XmlSyntaxError: on malformed input.
    """
    root: Element | None = None
    stack: list[Element] = []
    for kind, value, attrs in tokens(text):
        if kind == START:
            node = Element(value, attrs)
            if stack:
                stack[-1].children.append(node)
            elif root is None:
                root = node
            stack.append(node)
        elif kind == END:
            node = stack.pop()
            node.text = node.text.strip()
        elif kind == TEXT:
            stack[-1].text += value
    if root is None:
        raise XmlSyntaxError("document has no root element")
    return root
