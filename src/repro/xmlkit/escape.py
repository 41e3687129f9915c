"""Entity escaping and unescaping for XML character data and attributes."""

from __future__ import annotations

import re

from repro.errors import XmlSyntaxError

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def escape_text(text: str) -> str:
    """Escape character data for use between tags.

    Only ``&``, ``<`` and ``>`` need escaping in content; we escape all
    three so round-trips are byte-stable.
    """
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def escape_attr(value: str) -> str:
    """Escape an attribute value for inclusion in double quotes."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


# A reference runs to the first ``;``.  The terminator is optional in
# the pattern so that an unterminated ``&`` still matches (and is
# reported) at once instead of being retried from every later ``&``.
_REFERENCE = re.compile(r"&([^;]*)(;?)")


def _resolve(reference: re.Match[str]) -> str:
    name, terminator = reference.groups()
    if not terminator:
        raise XmlSyntaxError("unterminated entity reference")
    if not name:
        raise XmlSyntaxError("empty entity reference")
    if name.startswith("#x") or name.startswith("#X"):
        try:
            return chr(int(name[2:], 16))
        except ValueError as exc:
            raise XmlSyntaxError(
                f"bad hexadecimal character reference &{name};"
            ) from exc
    if name.startswith("#"):
        try:
            return chr(int(name[1:], 10))
        except ValueError as exc:
            raise XmlSyntaxError(
                f"bad decimal character reference &{name};"
            ) from exc
    try:
        return _NAMED_ENTITIES[name]
    except KeyError as exc:
        raise XmlSyntaxError(f"unknown entity &{name};") from exc


def unescape(text: str) -> str:
    """Resolve entity and character references in ``text``.

    Supports the five XML named entities plus decimal (``&#65;``) and
    hexadecimal (``&#x41;``) character references.

    Raises:
        XmlSyntaxError: on an unterminated or unknown reference.
    """
    if "&" not in text:
        return text
    return _REFERENCE.sub(_resolve, text)
