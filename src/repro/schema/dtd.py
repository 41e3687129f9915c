"""A DTD parser producing :class:`~repro.schema.model.SchemaTree` trees.

Supports the subset the paper's Figure 7 DTD uses:

* ``<!ELEMENT name (a, b?, c*, d+)>`` — sequences with occurrence
  suffixes,
* ``<!ELEMENT name (a+)>`` / ``(a*)`` — a single repeated child,
* ``<!ELEMENT name (#PCDATA)>`` and ``<!ELEMENT name EMPTY>`` — leaves,
* ``<!ATTLIST name attr CDATA|ID #REQUIRED|#IMPLIED>`` — attributes.

Alternation (``|``) and mixed content are out of scope and raise
:class:`~repro.errors.DtdSyntaxError` with a clear message, matching the
documents the paper actually exchanges.
"""

from __future__ import annotations

import re

from repro.errors import DtdSyntaxError, SchemaError
from repro.schema.model import Cardinality, SchemaNode, SchemaTree

_DECL_RE = re.compile(r"<!(ELEMENT|ATTLIST)\s+([^>]*?)>", re.DOTALL)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_.:-]*")


def _parse_children(name: str, model: str) -> list[tuple[str, Cardinality]]:
    """Parse a parenthesized content model into (child, cardinality) pairs."""
    if "|" in model:
        raise DtdSyntaxError(
            f"element {name!r}: alternation content models are not supported"
        )
    inner = model.strip()
    # A trailing suffix on the whole group, e.g. (item)* — applied to
    # each child that has no suffix of its own.
    group_suffix = ""
    if inner and inner[-1] in "?*+":
        group_suffix = inner[-1]
        inner = inner[:-1].strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise DtdSyntaxError(
            f"element {name!r}: expected a parenthesized content model, "
            f"got {model!r}"
        )
    body = inner[1:-1]
    parts = [part.strip() for part in body.split(",") if part.strip()]
    children: list[tuple[str, Cardinality]] = []
    for part in parts:
        suffix = ""
        while part and part[-1] in "?*+":
            suffix = part[-1] + suffix
            part = part[:-1].strip()
        if len(suffix) > 1:
            raise DtdSyntaxError(
                f"element {name!r}: multiple occurrence suffixes in "
                f"{part + suffix!r}"
            )
        if not _NAME_RE.fullmatch(part):
            raise DtdSyntaxError(
                f"element {name!r}: bad child name {part!r}"
            )
        children.append((part, Cardinality.from_suffix(suffix or group_suffix)))
    return children


def parse_dtd(text: str, root: str | None = None) -> SchemaTree:
    """Parse DTD ``text`` and return its schema tree.

    Args:
        text: the DTD source (``<!ELEMENT ...>`` / ``<!ATTLIST ...>``
            declarations; comments are ignored).
        root: name of the root element.  When omitted, the unique element
            that no other element references is used.

    Raises:
        DtdSyntaxError: on unsupported or malformed declarations.
        SchemaError: if the declarations do not form a single tree.
    """
    text = _COMMENT_RE.sub("", text)
    content_models: dict[str, list[tuple[str, Cardinality]]] = {}
    attributes: dict[str, list[str]] = {}

    stripped = _DECL_RE.sub("", text).strip()
    if stripped:
        snippet = stripped.splitlines()[0][:60]
        raise DtdSyntaxError(f"unrecognized DTD content: {snippet!r}")

    for kind, body in _DECL_RE.findall(text):
        body = " ".join(body.split())
        name_match = _NAME_RE.match(body)
        if not name_match:
            raise DtdSyntaxError(f"missing element name in <!{kind} {body}>")
        name = name_match.group(0)
        rest = body[name_match.end():].strip()
        if kind == "ELEMENT":
            if name in content_models:
                raise DtdSyntaxError(f"element {name!r} declared twice")
            if rest in ("EMPTY", "(#PCDATA)", "ANY"):
                content_models[name] = []
            else:
                content_models[name] = _parse_children(name, rest)
        else:  # ATTLIST
            attr_names = _parse_attlist(name, rest)
            attributes.setdefault(name, []).extend(attr_names)

    if not content_models:
        raise DtdSyntaxError("DTD declares no elements")

    referenced = {
        child
        for children in content_models.values()
        for child, _ in children
    }
    for child in referenced:
        if child not in content_models:
            # Children used but never declared are treated as PCDATA
            # leaves, as parsers conventionally do for lax DTDs.
            content_models[child] = []

    if root is None:
        candidates = [
            name for name in content_models if name not in referenced
        ]
        if len(candidates) != 1:
            raise SchemaError(
                "cannot infer the root element; candidates: "
                f"{sorted(candidates)}"
            )
        root = candidates[0]
    elif root not in content_models:
        raise SchemaError(f"root element {root!r} is not declared")

    def build(name: str, cardinality: Cardinality,
              seen: tuple[str, ...]) -> SchemaNode:
        if name in seen:
            raise SchemaError(
                f"recursive element {name!r} cannot form a schema tree"
            )
        node = SchemaNode(
            name,
            cardinality,
            attributes=list(attributes.get(name, [])),
        )
        for child, child_card in content_models[name]:
            node.children.append(build(child, child_card, seen + (name,)))
        return node

    return SchemaTree(build(root, Cardinality.ONE, ()))


def _parse_attlist(name: str, rest: str) -> list[str]:
    """Extract attribute names from an ATTLIST body."""
    tokens = rest.split()
    names: list[str] = []
    index = 0
    while index < len(tokens):
        attr = tokens[index]
        if not _NAME_RE.fullmatch(attr):
            raise DtdSyntaxError(
                f"ATTLIST {name!r}: bad attribute name {attr!r}"
            )
        if index + 1 >= len(tokens):
            raise DtdSyntaxError(
                f"ATTLIST {name!r}: attribute {attr!r} missing a type"
            )
        names.append(attr)
        index += 2  # skip the type token
        # Skip the default declaration (#REQUIRED/#IMPLIED/#FIXED "v"/"v").
        if index < len(tokens) and tokens[index].startswith("#"):
            fixed = tokens[index] == "#FIXED"
            index += 1
            if fixed and index < len(tokens):
                index += 1
        elif index < len(tokens) and tokens[index].startswith(('"', "'")):
            index += 1
    return names
