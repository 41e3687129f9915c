"""XML serialization: whole trees and streaming (tagger-style) output.

The streaming writer is what the publisher's *tagger* uses to emit a
full document from sorted relational feeds without materializing a tree
(Section 5.1 of the paper).
"""

from __future__ import annotations

from io import StringIO
from typing import Callable

from repro.errors import ReproError
from repro.xmlkit.escape import escape_attr, escape_text
from repro.xmlkit.tree import Element

_DECLARATION = '<?xml version="1.0"?>'


def serialize(root: Element, indent: int | None = 2,
              declaration: bool = True) -> str:
    """Serialize an element tree to a string.

    Args:
        root: the tree to serialize.
        indent: spaces per nesting level, or ``None`` for compact output.
        declaration: whether to emit ``<?xml version="1.0"?>``.
    """
    out: list[str] = []
    if declaration:
        out.append(_DECLARATION)
        if indent is not None:
            out.append("\n")
    _write_element(out.append, root, 0, indent)
    if indent is not None:
        out.append("\n")
    return "".join(out)


def _write_element(write: Callable[[str], object], node: Element,
                   depth: int, indent: int | None) -> None:
    pad = "" if indent is None else " " * (indent * depth)
    newline = "" if indent is None else "\n"
    write(f"{pad}<{node.name}")
    for key, value in node.attrs.items():
        write(f' {key}="{escape_attr(value)}"')
    if not node.children and not node.text:
        write("/>")
        return
    write(">")
    if node.text:
        write(escape_text(node.text))
    if node.children:
        for child in node.children:
            write(newline)
            _write_element(write, child, depth + 1, indent)
        write(newline)
        write(pad)
    write(f"</{node.name}>")


class XmlStreamWriter:
    """Incremental document writer with balanced-tag checking.

    Usage mirrors a SAX emitter::

        w = XmlStreamWriter()
        w.start("site", {"id": "0"})
        w.leaf("name", "ACME")
        w.end("site")
        document = w.getvalue()
    """

    def __init__(self, declaration: bool = True) -> None:
        self._out = StringIO()
        self._stack: list[str] = []
        self._closed_root = False
        if declaration:
            self._out.write(_DECLARATION)

    def start(self, name: str, attrs: dict[str, str] | None = None) -> None:
        """Open element ``name`` with optional attributes."""
        if self._closed_root:
            raise ReproError("cannot write after the root element closed")
        self._out.write(f"<{name}")
        if attrs:
            for key, value in attrs.items():
                self._out.write(f' {key}="{escape_attr(value)}"')
        self._out.write(">")
        self._stack.append(name)

    def characters(self, text: str) -> None:
        """Write character data inside the current element."""
        if not self._stack:
            raise ReproError("character data outside the root element")
        self._out.write(escape_text(text))

    def leaf(self, name: str, text: str,
             attrs: dict[str, str] | None = None) -> None:
        """Write ``<name>text</name>`` in one call."""
        self.start(name, attrs)
        if text:
            self.characters(text)
        self.end(name)

    def end(self, name: str) -> None:
        """Close element ``name`` (must match the innermost open tag)."""
        if not self._stack:
            raise ReproError(f"end tag </{name}> with no open element")
        expected = self._stack.pop()
        if expected != name:
            raise ReproError(
                f"end tag </{name}> does not match open <{expected}>"
            )
        self._out.write(f"</{name}>")
        if not self._stack:
            self._closed_root = True

    def getvalue(self) -> str:
        """Return the document written so far.

        Raises:
            ReproError: if elements are still open.
        """
        if self._stack:
            raise ReproError(
                f"document still has open element <{self._stack[-1]}>"
            )
        return self._out.getvalue()

    def bytes_written(self) -> int:
        """Return the current output size in characters (≈ bytes, ASCII)."""
        return self._out.tell()
