"""XML serialization of element trees."""

from __future__ import annotations

from typing import Callable

from repro.xmlkit.escape import escape_attr, escape_text
from repro.xmlkit.tree import Element

#: The XML declaration every serialized and published document opens
#: with.
DECLARATION = '<?xml version="1.0"?>'


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
        out.append(DECLARATION)
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
