r"""SOAP 1.1 envelopes for fragment feeds and documents.

A fragment feed crosses the wire as one SOAP message whose body holds
one ``FragmentFeed`` element.  It names the fragment and declares the
row ``count``, an Adler-32 ``checksum`` of the rows and, for a batch of
a streamed transfer, its ``seq`` number.  Every receiver demands the
count and the checksum and holds them against what arrived, so
corruption in flight surfaces as a :class:`~repro.errors.SoapFault`
instead of silently wrong data; the sequence numbers let the reliable
shipping layer de-duplicate and re-order deliveries (see
:mod:`repro.net.faults`).

The rows are the paper's sorted *tuple* feed of a flat-storable
fragment.  The ``columns`` attribute names the fragment's
:class:`~repro.core.columnar.ColumnLayout` once, and the text is one
line per row: the row's cells in that order, joined by ``|``.  Keys
(``id``, ``parent``, every ``<element>_eid``) are decimal numbers,
``\N`` is an absent cell (``None``), and ``""`` is written as nothing.
One escape, ``\`` and four hex digits, writes a character by its code
point: it covers ``|``, newline, ``\r``, ``\`` itself and ``&<>``
wherever they occur (so the text needs no XML escaping), and
whitespace at the end of the text, which a tree parser strips.  The
checksum is the Adler-32 of the text's UTF-8 bytes.  A fragment that
does not flatten is sent as its flat parts, each a tuple feed of its
own (:mod:`repro.core.program.run`); a feed that names no columns is
no feed any receiver accepts.

The writer strips element text, as publish&map's shredder does, and
leaves what it wrote on the batch it encoded (the batch is
:meth:`~repro.core.columnar.ColumnBatch.rebind`-ed to it), so sender
and receiver hold the same values whether or not anyone decodes.
A receiver parses the envelope — four elements and one text node — and
checks it with :func:`verify_fragment_feed`: the feed sink
(:func:`read_message`) checks kind, name, count and checksum without
splitting a cell; :func:`read_fragment_feed` also decodes the feed
into the column lists of the fragment's layout, and
:func:`unwrap_fragment_feed` into rows.  A message is decoded by
whoever receives it, never by its sender.  Everything a receiver reads
is input from outside the process: whatever is malformed, numbers and
escapes included, is a :class:`~repro.errors.SoapFault`.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass

from repro.errors import OperationError, SoapFault
from repro.core.columnar import ColumnBatch, ColumnLayout, layout_of
from repro.core.fragment import Fragment
from repro.core.instance import FragmentInstance
from repro.xmlkit.escape import escape_attr
from repro.xmlkit.tree import Element, parse_tree
from repro.xmlkit.writer import serialize

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
CHECKSUM_ATTR = "checksum"
SEQ_ATTR = "seq"
COLUMNS_ATTR = "columns"
#: Between the cells of a tuple-feed line.
SEPARATOR = "|"
#: Starts a four-hex-digit code point in a tuple-feed cell.
ESCAPE = "\\"
#: A tuple-feed cell that is ``None``.
NULL_CELL = ESCAPE + "N"


def soap_envelope(body: Element) -> str:
    """Wrap ``body`` in a SOAP 1.1 envelope and serialize."""
    envelope = Element(
        "soap:Envelope", {"xmlns:soap": ENVELOPE_NS}
    )
    envelope.append(Element("soap:Body")).append(body)
    return serialize(envelope, indent=None)


def soap_fault(message: str, code: str = "soap:Server") -> str:
    """A serialized SOAP 1.1 Fault envelope (a service-side error).

    Receivers reply with one of these when a request fails
    verification; :func:`parse_envelope` on the other side raises the
    carried message as a :class:`~repro.errors.SoapFault`.
    """
    fault = Element("soap:Fault")
    fault.append(Element("faultcode", text=code))
    fault.append(Element("faultstring", text=message))
    return soap_envelope(fault)


def _fault_message(payload: Element) -> str:
    """Extract the human-readable message from a ``Fault`` payload.

    Real-world faults nest: the ``detail`` element may itself carry a
    ``Fault`` from a downstream hop.  The innermost ``faultstring``
    wins — it names the root cause — with outer strings appended for
    context.
    """
    strings: list[str] = []
    node: Element | None = payload
    while node is not None:
        fault_string = node.child("faultstring")
        if fault_string is not None and fault_string.text:
            strings.append(fault_string.text)
        detail = node.child("detail")
        node = detail.child("Fault") if detail is not None else None
    if not strings:
        return "fault"
    # Innermost first: it is the root cause.
    return ": ".join(reversed(strings))


def parse_envelope(text: str) -> Element:
    """Parse a SOAP envelope and return the single body child.

    Raises:
        SoapFault: if the message is not a well-formed SOAP envelope,
            the body does not carry exactly one element, or it carries
            a ``Fault`` (whose ``faultstring`` — innermost, for nested
            faults — becomes the raised message).
    """
    try:
        root = parse_tree(text)
    except Exception as exc:
        raise SoapFault(f"message is not well-formed XML: {exc}") from exc
    if root.local_name() != "Envelope":
        raise SoapFault(f"not a SOAP envelope: <{root.name}>")
    body = next(
        (child for child in root.children
         if child.local_name() == "Body"),
        None,
    )
    if body is None or len(body.children) != 1:
        raise SoapFault("SOAP body must contain exactly one element")
    payload = body.children[0]
    if payload.local_name() == "Fault":
        raise SoapFault(_fault_message(payload))
    return payload


def _number(element: str, attr: str, raw: str) -> int:
    """A numeric wire attribute; input from outside the process, so a
    value that is no number is the sender's fault, not a crash."""
    try:
        return int(raw)
    except ValueError:
        raise SoapFault(
            f"<{element}> carries a non-numeric {attr}={raw!r}"
        ) from None


def _digest(value: int) -> str:
    return format(value & 0xFFFFFFFF, "08x")


def _text_digest(text: str) -> str:
    """The checksum of a tuple feed: Adler-32 over its text."""
    return _digest(zlib.adler32(text.encode("utf-8", "surrogatepass")))


def wrap_document(text: str) -> str:
    """Serialize a whole published document as one SOAP message
    (publish&map ships the tagged document monolithically).  The
    document travels as escaped character data with its byte count
    declared for receiver-side verification.

    Receivers read element text stripped, and whitespace outside a
    document's root element carries no content, so what travels — and
    is declared — is the document stripped of it."""
    text = text.strip()
    return soap_envelope(
        Element("Document", {"bytes": str(len(text))}, text=text)
    )


def _feed_name(attrs: dict[str, str]) -> str:
    name = attrs.get("fragment")
    if not name:
        raise SoapFault("feed names no fragment")
    return name


def _check_totals(payload: str, attrs: dict[str, str], count: int,
                  digest: str) -> None:
    """Hold a feed's declared checksum and row count, both required,
    against the ``count`` rows that arrived, whose recomputed checksum
    is ``digest``."""
    name = attrs["fragment"]
    declared_digest = attrs.get(CHECKSUM_ATTR)
    if declared_digest is None:
        raise SoapFault(f"feed of fragment {name!r} carries no checksum")
    if declared_digest != digest:
        raise SoapFault(
            f"feed of fragment {name!r} failed its checksum "
            "(message corrupted in flight)"
        )
    declared_count = attrs.get("count")
    if declared_count is None:
        raise SoapFault(f"feed of fragment {name!r} declares no count")
    if _number(payload, "count", declared_count) != count:
        raise SoapFault(
            f"feed declares {declared_count} rows but carries {count}"
        )


def verify_fragment_feed(payload: Element) -> tuple[str, int, str]:
    """Receiver-side verification of a parsed ``FragmentFeed``.

    It needs no :class:`~repro.core.fragment.Fragment`: it checks what
    a receiver that does not know the fragment *can* see — payload
    kind, fragment name, and the declared row count and checksum
    against the lines that arrived.  No cell is split and no row
    decoded.  Returns ``(fragment name, row count, recomputed
    digest)``.

    Raises:
        SoapFault: on a wrong payload kind, a missing fragment name, a
            feed that names no columns (no tuple feed) or holds
            elements, or a missing or mismatched count or checksum.
    """
    if payload.local_name() != "FragmentFeed":
        raise SoapFault(
            f"expected a FragmentFeed, got <{payload.name}>"
        )
    name = _feed_name(payload.attrs)
    if COLUMNS_ATTR not in payload.attrs:
        raise SoapFault(
            f"feed of fragment {name!r} names no columns: it is no "
            "tuple feed"
        )
    if payload.children:
        raise SoapFault(
            f"tuple feed of fragment {name!r} carries elements"
        )
    text = payload.text
    count = text.count("\n") + 1 if text else 0
    digest = _text_digest(text)
    _check_totals(payload.name, payload.attrs, count, digest)
    return name, count, digest


# -- the tuple writer --------------------------------------------

_KEYS = frozenset(("id", "parent", "eid"))
_STR_OR_NONE = frozenset((str, type(None)))
#: What the escape writes wherever it occurs in a cell.
_SPECIALS = f"{SEPARATOR}\n\r{ESCAPE}&<>"


def _code(char: str) -> str:
    """``char`` written as the escape character and its code point."""
    return f"{ESCAPE}{ord(char):04x}"


_ESCAPES = {ord(char): _code(char) for char in _SPECIALS}
_ESCAPED = re.compile(f"{re.escape(ESCAPE)}([0-9a-f]{{4}})?")


def _column_names(layout: ColumnLayout) -> str:
    """A tuple feed's ``columns``: the layout's names, in its order."""
    return " ".join([spec.name for spec in layout.specs])


def _wire_cells(cells: list, role: str, keys: list | None
                ) -> tuple[list[str], list]:
    """One column of a tuple feed: ``(its cells' wire text, the values
    written)``.  Keys are written as decimal numbers, other values as
    ``str``, and text stripped — ``""`` where the element is present
    (its key in ``keys`` is not ``None``) but its text cell is.  The
    values written are ``cells`` itself unless one of them was written
    as something else."""
    if role in _KEYS:
        if None in cells:
            return [NULL_CELL if cell is None else str(cell)
                    for cell in cells], cells
        return list(map(str, cells)), cells
    written = cells
    if not set(map(type, cells)) <= _STR_OR_NONE:
        written = [None if cell is None else str(cell) for cell in cells]
    if role == "text":
        stripped = [
            cell.strip() if cell is not None
            else None if key is None else ""
            for cell, key in zip(written, keys)
        ] if None in written else list(map(str.strip, written))
        if stripped != written:
            written = stripped
    present = "".join(filter(None, written))
    if any(char in present for char in _SPECIALS):
        return [NULL_CELL if cell is None else cell.translate(_ESCAPES)
                for cell in written], written
    if None in written:
        return [NULL_CELL if cell is None else cell
                for cell in written], written
    return written, written


def _escaped_end(text: str) -> str:
    """``text`` with the whitespace it ends with written as escapes:
    a tree parser strips it from an element's text.  (It begins with a
    row's ``id``.)"""
    if not text[-1:].isspace():
        return text
    end = len(text.rstrip())
    return text[:end] + "".join(map(_code, text[end:]))


def _tuple_text(batch: ColumnBatch) -> str:
    """The text of ``batch``'s tuple feed, written column by column
    straight from its cells.  Whatever was written differently from
    the cell it came from (padded text, a non-``str`` value) goes back
    onto the batch — copies of the touched columns, rebound by
    :meth:`~repro.core.columnar.ColumnBatch.rebind` — so the batch
    holds what crossed the wire."""
    layout = batch.layout
    columns = [batch.column(spec.name) for spec in layout.specs]
    if None in columns[layout.positions["id"]]:
        raise OperationError(
            f"columnar row of {batch.fragment.name!r} has NULL id"
        )
    wire, rebound = [], False
    for position, spec in enumerate(layout.specs):
        cells, values = _wire_cells(
            columns[position], spec.role,
            columns[layout.element_cells[spec.element][0]]
            if spec.role == "text" else None,
        )
        wire.append(cells)
        if values is not columns[position]:
            columns[position] = values
            rebound = True
    if rebound:
        batch.rebind(columns)
    return _escaped_end("\n".join(map(SEPARATOR.join, zip(*wire))))


# ``soap_envelope`` around a feed, cut where the feed goes.
_ENVELOPE_HEAD, _ENVELOPE_TAIL = soap_envelope(
    Element("FragmentFeed")
).split("<FragmentFeed/>")


def _encode_columns(batch: ColumnBatch) -> tuple[str, str]:
    """``batch``'s feed message and the checksum written into it."""
    text = _tuple_text(batch)
    checksum = _text_digest(text)
    numbering = "" if batch.seq is None else f' {SEQ_ATTR}="{batch.seq}"'
    feed = (
        f'{_ENVELOPE_HEAD}<FragmentFeed'
        f' fragment="{escape_attr(batch.fragment.name)}"'
        f' {COLUMNS_ATTR}="{_column_names(batch.layout)}"'
        f' count="{batch.row_count()}"{numbering}'
        f' {CHECKSUM_ATTR}="{checksum}"'
    )
    if text:
        return f"{feed}>{text}</FragmentFeed>{_ENVELOPE_TAIL}", checksum
    return f"{feed}/>{_ENVELOPE_TAIL}", checksum


def encode_fragment_feed(instance: FragmentInstance,
                         seq: int | None = None) -> tuple[str, str]:
    """Encode an instance of a flat fragment: ``(message, checksum)``.

    The message is :func:`wrap_fragment_feed`'s: the tuple feed of the
    rows' column batch, whose leaf text is stripped as every receiver
    stores it (:meth:`~repro.core.columnar.ColumnLayout.
    cells_from_row`); the rows themselves are left as they are.  The
    checksum is the one written into the message, which a sender keeps
    to hold the receiver's ack against.

    Raises:
        OperationError: if the fragment does not flatten (it is sent
            as its flat parts).
    """
    return _encode_columns(
        ColumnBatch.from_rows(instance.fragment, instance.rows, seq)
    )


def encode_batch(batch: ColumnBatch) -> tuple[str, str]:
    """Encode one batch: returns ``(message, checksum)``.

    The batch is written straight from its column lists."""
    return _encode_columns(batch)


def wrap_fragment_feed(instance: FragmentInstance,
                       seq: int | None = None) -> str:
    """Serialize a fragment instance as one SOAP message.

    The message carries a content ``checksum``; ``seq`` (set for
    chunked streaming transfers) numbers this message within its feed.
    """
    return encode_fragment_feed(instance, seq)[0]


# -- receivers ----------------------------------------------------------------------


def _escaped_char(match: re.Match[str]) -> str:
    code = match[1]
    if code is not None:
        char = chr(int(code, 16))
        if char in _SPECIALS or char.isspace():
            return char
    raise SoapFault(f"tuple feed cell carries a bad escape {match[0]!r}")


def _unescaped(cell: str) -> str | None:
    """A tuple-feed cell that holds the escape character, decoded."""
    if cell == NULL_CELL:
        return None
    return _ESCAPED.sub(_escaped_char, cell)


def _keys(cells: list[str], element: str, column: str) -> list:
    """A tuple feed's key cells as ints (``None`` where absent)."""
    try:
        return [None if cell == NULL_CELL else int(cell) for cell in cells]
    except ValueError:
        for cell in cells:
            if cell != NULL_CELL:
                _number(element, column, cell)
        raise


def _tuple_columns(payload: Element, fragment: Fragment) -> list[list]:
    """Decode a verified tuple feed of ``fragment`` into the column
    lists of its layout.

    Raises:
        SoapFault: if the feed does not name the layout's columns, a
            line does not hold one cell per column, or a key or an
            escape is malformed.
    """
    layout = layout_of(fragment)
    names = _column_names(layout)
    declared = payload.get(COLUMNS_ATTR)
    if declared != names:
        raise SoapFault(
            f"feed of fragment {fragment.name!r} names columns "
            f"{declared!r}, not {names!r}"
        )
    text = payload.text
    width = len(layout.specs)
    rows = [line.split(SEPARATOR) for line in text.split("\n")] \
        if text else []
    if set(map(len, rows)) - {width}:
        raise SoapFault(
            f"feed of fragment {fragment.name!r} carries a line that "
            f"is not {width} cells"
        )
    columns = [list(cells) for cells in zip(*rows)] if rows \
        else [[] for _ in range(width)]
    escaped = ESCAPE in text
    for position, spec in enumerate(layout.specs):
        cells = columns[position]
        if spec.role in _KEYS:
            columns[position] = _keys(
                cells, spec.element or fragment.root_name, spec.name
            )
        elif escaped:
            columns[position] = [
                cell if ESCAPE not in cell else _unescaped(cell)
                for cell in cells
            ]
    if None in columns[layout.positions["id"]]:
        raise SoapFault(
            f"feed of fragment {fragment.name!r} carries a row with no id"
        )
    return columns


def _expect(name: str, fragment: Fragment) -> None:
    if name != fragment.name:
        raise SoapFault(
            f"feed carries fragment {name!r}, expected "
            f"{fragment.name!r}"
        )


def unwrap_fragment_feed(text: str,
                         fragment: Fragment) -> FragmentInstance:
    """Parse a SOAP fragment-feed message into rows of ``fragment``.

    Raises:
        SoapFault: on anything :func:`verify_fragment_feed` rejects, a
            feed of another fragment, a fragment that does not flatten
            (it travels as its flat parts), or rows that do not
            decode.
    """
    payload = parse_envelope(text)
    name, _, _ = verify_fragment_feed(payload)
    _expect(name, fragment)
    if not fragment.is_flat_storable():
        raise SoapFault(
            f"feed of fragment {name!r} is a tuple feed, but the "
            "fragment does not flatten"
        )
    row_from_cells = layout_of(fragment).row_from_cells
    return FragmentInstance(fragment, map(
        row_from_cells, zip(*_tuple_columns(payload, fragment))
    ))


@dataclass(frozen=True, slots=True)
class FeedReceipt:
    """What a receiver verified of one fragment-feed message.

    ``checksum`` is the digest recomputed over the received rows,
    ``seq`` the number the message carried (verbatim), and
    ``columns`` the rows decoded into the fragment's column lists when
    the receiver named the fragment (else ``None``).
    """

    fragment: str
    count: int
    checksum: str
    seq: str | None
    columns: list[list] | None = None


def _receipt(payload: Element, fragment: Fragment | None) -> FeedReceipt:
    name, count, digest = verify_fragment_feed(payload)
    columns = None
    if fragment is not None:
        _expect(name, fragment)
        columns = _tuple_columns(payload, fragment)
    return FeedReceipt(name, count, digest, payload.get(SEQ_ATTR), columns)


def read_fragment_feed(text: str, fragment: Fragment | None = None
                       ) -> FeedReceipt:
    """Verify a fragment-feed message; given its fragment, decode it.

    The one receiver-side check of a feed hop — the TCP feed sink, a
    wire-format channel receiving its own message, fault injection
    catching a corrupted one.  It checks what
    :func:`verify_fragment_feed` checks.  Given the (flat-storable)
    fragment, the feed must be that fragment's tuple feed, naming its
    layout's columns, and its lines are decoded into the column lists
    of that :class:`~repro.core.columnar.ColumnLayout`: split per line
    and per cell, escapes resolved only in cells that hold one, keys
    as ``int`` — all after the checksum, so that corruption reads as
    "checksum".

    Raises:
        SoapFault: on a malformed message, a payload that is no
            ``FragmentFeed`` (a ``Fault`` payload raises its message),
            anything :func:`verify_fragment_feed` rejects, another
            fragment's feed, or rows that do not decode.
    """
    return _receipt(parse_envelope(text), fragment)


def read_message(text: str) -> FeedReceipt | Element:
    """Receive one message of any kind.

    A fragment feed is verified by :func:`read_fragment_feed` (nothing
    decoded); anything else is returned as its payload tree."""
    payload = parse_envelope(text)
    if payload.local_name() != "FragmentFeed":
        return payload
    return _receipt(payload, None)
