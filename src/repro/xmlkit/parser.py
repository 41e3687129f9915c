"""A streaming XML parser.

The paper's shredder uses the Expat SAX parser; this module is its
pure-Python stand-in.  One tokenizer, :func:`tokens`, which the
relational shredder (:mod:`repro.relational.shredder`) and the tree
builder (:func:`repro.xmlkit.tree.parse_tree`, under every SOAP
envelope) read directly, and :func:`push_parse`, a SAX-style push API
that drives a :class:`ContentHandler` over it.

Supported syntax: the XML declaration, elements with attributes (both
quote styles), character data with entity/character references, CDATA
sections, comments, processing instructions, and a DOCTYPE declaration
whose internal subset is skipped (DTDs are parsed separately by
:mod:`repro.schema.dtd`).
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XmlSyntaxError
from repro.xmlkit.escape import unescape

_WS = " \t\r\n"

# Characters that may start an XML name.  This is deliberately the
# pragmatic ASCII subset plus ':' (prefixed names) and '_' — enough for
# WSDL, XMark and every document the paper manipulates.
_NAME_START = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")

# The fast path: one well-formed end, start or empty-element tag per
# match, built from the name alphabet and whitespace of the scanner
# below.  It accepts a subset of what the character-level branches
# accept (attributes must be whitespace-separated); whatever it does
# not match is left to them, and they alone report errors.  Every
# repetition starts with mandatory whitespace and every quantified
# class excludes the character that must follow it, so a tag that
# fails to match fails in time linear in its length.
_S = f"[{re.escape(_WS)}]"
_NAME_RE = (
    f"[{re.escape(''.join(sorted(_NAME_START)))}]"
    f"[{re.escape(''.join(sorted(_NAME_CHARS)))}]*"
)
_VALUE_RE = r"""(?:"[^"<]*"|'[^'<]*')"""
_TAG = re.compile(
    rf"</({_NAME_RE}){_S}*>"
    rf"|<({_NAME_RE})((?:{_S}+{_NAME_RE}{_S}*={_S}*{_VALUE_RE})*){_S}*(/?)>"
)
_ATTR = re.compile(
    rf"""({_NAME_RE}){_S}*={_S}*(?:"([^"<]*)"|'([^'<]*)')"""
)


class _Scanner:
    """Character-level scanner with line/column tracking."""

    __slots__ = ("text", "pos", "_line_starts")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self._line_starts: list[int] | None = None

    def _location(self, pos: int | None = None) -> tuple[int, int]:
        if pos is None:
            pos = self.pos
        if self._line_starts is None:
            starts = [0]
            idx = self.text.find("\n")
            while idx != -1:
                starts.append(idx + 1)
                idx = self.text.find("\n", idx + 1)
            self._line_starts = starts
        starts = self._line_starts
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, pos - starts[lo] + 1

    def error(self, message: str, pos: int | None = None) -> XmlSyntaxError:
        line, column = self._location(pos)
        return XmlSyntaxError(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_ws(self) -> None:
        text = self.text
        pos = self.pos
        n = len(text)
        while pos < n and text[pos] in _WS:
            pos += 1
        self.pos = pos

    def read_name(self) -> str:
        text = self.text
        start = self.pos
        if start >= len(text) or text[start] not in _NAME_START:
            raise self.error("expected an XML name")
        pos = start + 1
        n = len(text)
        while pos < n and text[pos] in _NAME_CHARS:
            pos += 1
        self.pos = pos
        return text[start:pos]

    def read_until(self, token: str, what: str) -> str:
        idx = self.text.find(token, self.pos)
        if idx == -1:
            raise self.error(f"unterminated {what}")
        value = self.text[self.pos : idx]
        self.pos = idx + len(token)
        return value


def _read_attributes(scanner: _Scanner) -> dict[str, str]:
    """Read ``name="value"`` pairs up to (but excluding) ``>`` or ``/>``."""
    attrs: dict[str, str] = {}
    while True:
        scanner.skip_ws()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return attrs
        name = scanner.read_name()
        scanner.skip_ws()
        scanner.expect("=")
        scanner.skip_ws()
        quote = scanner.peek()
        if quote not in ('"', "'"):
            raise scanner.error("attribute value must be quoted")
        scanner.pos += 1
        raw = scanner.read_until(quote, "attribute value")
        if "<" in raw:
            raise scanner.error("'<' not allowed in attribute value")
        if name in attrs:
            raise scanner.error(f"duplicate attribute {name!r}")
        attrs[name] = unescape(raw)


def _skip_doctype(scanner: _Scanner) -> None:
    """Skip a DOCTYPE declaration, including a bracketed internal subset."""
    scanner.expect("<!DOCTYPE")
    depth = 0
    while True:
        if scanner.at_end():
            raise scanner.error("unterminated DOCTYPE")
        ch = scanner.text[scanner.pos]
        scanner.pos += 1
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            return


# Token kinds of :func:`tokens`.
START, END, TEXT, COMMENT, PI, DECLARATION = range(6)


def tokens(text: str) -> Iterator[tuple]:
    """Tokenize ``text`` into ``(kind, value, extra)`` tuples.

    The one tokenizer, under :func:`push_parse` and for consumers
    that want neither an object nor a type test per event.

    ``value`` is the element name (``START``/``END``), the character
    data (``TEXT``), the comment text, the PI target, or the declared
    version; ``extra`` is a ``START``'s attribute dict, a ``PI``'s
    data, a ``DECLARATION``'s ``(encoding, standalone)``, else ``None``.

    Raises:
        XmlSyntaxError: on any well-formedness violation.
    """
    scanner = _Scanner(text)
    stack: list[str] = []
    seen_root = False

    # Optional XML declaration.
    scanner.skip_ws()
    if scanner.startswith("<?xml"):
        scanner.pos += len("<?xml")
        attrs = _read_attributes(scanner)
        scanner.skip_ws()
        scanner.expect("?>")
        yield DECLARATION, attrs.get("version", "1.0"), (
            attrs.get("encoding"), attrs.get("standalone"),
        )

    size = len(text)
    match_tag = _TAG.match
    find_attrs = _ATTR.findall
    pos = scanner.pos
    while pos < size:
        if text[pos] != "<":
            idx = text.find("<", pos)
            if idx == -1:
                idx = size
            raw = text[pos:idx]
            if stack:
                yield TEXT, unescape(raw), None
            elif raw.strip():
                raise scanner.error(
                    "character data outside the root element", pos=pos
                )
            pos = idx
            continue

        tag = match_tag(text, pos)
        if tag is not None:
            end_name, name, raw_attrs, empty = tag.groups()
            if name is None:
                if stack and stack[-1] == end_name:
                    stack.pop()
                    pos = tag.end()
                    yield END, end_name, None
                    continue
            elif stack or not seen_root:
                found = find_attrs(raw_attrs) if raw_attrs else ()
                attrs = {
                    key: double or single
                    for key, double, single in found
                }
                if len(attrs) == len(found):
                    if "&" in raw_attrs:
                        for key, value in attrs.items():
                            attrs[key] = unescape(value)
                    pos = tag.end()
                    seen_root = True
                    yield START, name, attrs
                    if empty:
                        yield END, name, None
                    else:
                        stack.append(name)
                    continue
            # A misplaced tag or a duplicate attribute: the branches
            # below find it again and raise from where they always did.

        scanner.pos = pos
        if scanner.startswith("<!--"):
            scanner.pos += 4
            yield COMMENT, scanner.read_until("-->", "comment"), None
        elif scanner.startswith("<![CDATA["):
            if not stack:
                raise scanner.error("CDATA outside the root element")
            scanner.pos += len("<![CDATA[")
            yield TEXT, scanner.read_until("]]>", "CDATA section"), None
        elif scanner.startswith("<!DOCTYPE"):
            if seen_root:
                raise scanner.error("DOCTYPE after the root element")
            _skip_doctype(scanner)
        elif scanner.startswith("<?"):
            scanner.pos += 2
            target = scanner.read_name()
            data = scanner.read_until("?>", "processing instruction").strip()
            yield PI, target, data
        elif scanner.startswith("</"):
            scanner.pos += 2
            name = scanner.read_name()
            scanner.skip_ws()
            scanner.expect(">")
            if not stack:
                raise scanner.error(f"unexpected end tag </{name}>")
            expected = stack.pop()
            if name != expected:
                raise scanner.error(
                    f"mismatched end tag </{name}>, expected </{expected}>"
                )
            yield END, name, None
        else:
            scanner.expect("<")
            if seen_root and not stack:
                raise scanner.error("multiple root elements")
            name = scanner.read_name()
            attrs = _read_attributes(scanner)
            scanner.skip_ws()
            if scanner.startswith("/>"):
                scanner.pos += 2
                seen_root = True
                yield START, name, attrs
                yield END, name, None
            else:
                scanner.expect(">")
                seen_root = True
                stack.append(name)
                yield START, name, attrs
        pos = scanner.pos

    scanner.pos = pos
    if stack:
        raise scanner.error(f"unclosed element <{stack[-1]}>")
    if not seen_root:
        raise scanner.error("document has no root element")


class ContentHandler:
    """SAX-style callback interface (subset of the Expat API the paper uses).

    Subclass and override the callbacks of interest; the defaults do
    nothing, so handlers only implement what they need.
    """

    def start_element(self, name: str, attrs: dict[str, str]) -> None:
        """Called for each start tag (and each empty-element tag)."""

    def end_element(self, name: str) -> None:
        """Called for each end tag (and each empty-element tag)."""

    def characters(self, text: str) -> None:
        """Called for character data (possibly several times per node)."""

    def processing_instruction(self, target: str, data: str) -> None:
        """Called for each processing instruction."""

    def comment(self, text: str) -> None:
        """Called for each comment."""


def push_parse(text: str, handler: ContentHandler) -> None:
    """Parse ``text``, pushing events into ``handler`` (SAX style)."""
    start_element = handler.start_element
    end_element = handler.end_element
    characters = handler.characters
    for kind, value, extra in tokens(text):
        if kind == START:
            start_element(value, extra)
        elif kind == END:
            end_element(value)
        elif kind == TEXT:
            characters(value)
        elif kind == PI:
            handler.processing_instruction(value, extra)
        elif kind == COMMENT:
            handler.comment(value)
