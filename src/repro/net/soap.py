"""SOAP 1.1 envelopes for fragment feeds and documents.

Fragment feeds are shipped as a sequence of fragment-instance documents
inside one SOAP body.  The wire format preserves element ids (a ``_eid``
attribute on every element) exactly as a sorted-feed shipment carries
its keys/foreign keys in the paper's setting; ``ID``/``PARENT`` appear
on fragment roots per Definition 3.1.

Every feed message additionally carries an Adler-32 ``checksum`` of its
row content and, for chunked streaming transfers, a ``seq`` number —
the receiver verifies the checksum (corruption in flight surfaces as a
:class:`~repro.errors.SoapFault` instead of silently wrong data) and
the sequence numbers let the reliable shipping layer de-duplicate and
re-order deliveries (see :mod:`repro.net.faults`).

One encode, one decode, no trees for flat feeds.  A batch is encoded
by :func:`encode_batch`: a :class:`~repro.core.columnar.ColumnBatch`
straight from its cells, anything else by the tree writer
(:func:`encode_fragment_feed`, straight from each row's
``ElementData``); both return the checksum with the message and write
the same bytes for the same rows.  A receiver verifies with
:func:`read_fragment_feed` — one walk over the tokens that checks the
payload kind, the fragment name and the declared count, digests each
row's own received text in place, and, given a flat fragment, decodes
the rows straight into the column lists of its layout.  The tree decoders
(:func:`unwrap_fragment_feed`, :func:`verify_fragment_feed`) remain for
non-flat fragments and the HTTP feed plane.  A message is decoded by
whoever receives it, never by its sender.  Everything a receiver reads
is input from outside the process: whatever is malformed, numbers and
nesting included, is a :class:`~repro.errors.SoapFault`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import OperationError, SoapFault, XmlSyntaxError
from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import ID_ATTR, PARENT_ATTR, Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.stream import RowBatch
from repro.xmlkit.escape import escape_attr, escape_text
from repro.xmlkit.parser import COMMENT, END, START, TEXT, tokens
from repro.xmlkit.tree import Element, parse_tree
from repro.xmlkit.writer import serialize

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
_EID_ATTR = "_eid"
CHECKSUM_ATTR = "checksum"
SEQ_ATTR = "seq"


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


def _missing_eid(element: str) -> SoapFault:
    return SoapFault(f"wire element <{element}> is missing its {_EID_ATTR}")


def _element_from_wire(row: Element) -> ElementData:
    """Decode one wire row tree; iterative, so no nesting depth is a
    crash."""

    def data_of(element: Element) -> ElementData:
        attrs = dict(element.attrs)
        if _EID_ATTR not in attrs:
            raise _missing_eid(element.name)
        eid = _number(element.name, _EID_ATTR, attrs.pop(_EID_ATTR))
        attrs.pop(ID_ATTR, None)
        attrs.pop(PARENT_ATTR, None)
        return ElementData(element.name, eid, attrs, element.text)

    root = data_of(row)
    stack = [(row, root)]
    while stack:
        element, data = stack.pop()
        for child in element.children:
            stack.append((child, data.add_child(data_of(child))))
    return root


def _digest(value: int) -> str:
    return format(value & 0xFFFFFFFF, "08x")


def feed_digest(rows: list[Element]) -> str:
    """Adler-32 digest over the canonical serialization of wire rows.

    The wire serializer is deterministic (fixed attribute and child
    order), so re-serializing the rows a receiver parsed reproduces the
    sender's bytes — any in-flight mutation of row content changes the
    digest.
    """
    running = zlib.adler32(b"")
    for row in rows:
        running = zlib.adler32(
            serialize(row, indent=None).encode("utf-8"), running
        )
    return _digest(running)


def wrap_document(text: str) -> str:
    """Serialize a whole published document as one SOAP message
    (publish&map ships the tagged document monolithically).  The
    document travels as escaped character data with its byte count
    declared for receiver-side verification."""
    return soap_envelope(
        Element("Document", {"bytes": str(len(text))}, text=text)
    )


def unwrap_document(payload: Element) -> str:
    """Extract the document text from a ``Document`` payload.

    Raises:
        SoapFault: on a wrong payload or a byte-count mismatch.
    """
    if payload.local_name() != "Document":
        raise SoapFault(f"expected a Document, got <{payload.name}>")
    text = payload.text
    declared = payload.get("bytes")
    if declared is not None \
            and _number(payload.name, "bytes", declared) != len(text):
        raise SoapFault(
            f"document declares {declared} bytes but carries "
            f"{len(text)}"
        )
    return text


def _feed_name(attrs: dict[str, str]) -> str:
    name = attrs.get("fragment")
    if not name:
        raise SoapFault("feed names no fragment")
    return name


def _check_totals(payload: str, attrs: dict[str, str], count: int,
                  digest: str) -> None:
    """Hold a feed's declared checksum and row count against the
    ``count`` rows that arrived, whose recomputed checksum is
    ``digest``."""
    declared_digest = attrs.get(CHECKSUM_ATTR)
    if declared_digest is not None and declared_digest != digest:
        raise SoapFault(
            f"feed of fragment {attrs['fragment']!r} failed its checksum "
            "(message corrupted in flight)"
        )
    declared_count = attrs.get("count")
    if declared_count is not None \
            and _number(payload, "count", declared_count) != count:
        raise SoapFault(
            f"feed declares {declared_count} rows but carries {count}"
        )


def verify_fragment_feed(payload: Element) -> tuple[str, int, str]:
    """Receiver-side verification of a parsed ``FragmentFeed`` tree.

    Unlike :func:`unwrap_fragment_feed` this needs no
    :class:`~repro.core.fragment.Fragment`: it checks what a receiver
    that does not know the fragment *can* see — payload kind, declared
    row count, and the Adler-32 content checksum recomputed over the
    re-serialized rows.  Returns ``(fragment name, row count,
    recomputed digest)``.  The feed sink runs the streaming
    :func:`read_fragment_feed` instead; this tree form serves the HTTP
    feed plane and :func:`unwrap_fragment_feed`.

    Raises:
        SoapFault: on a wrong payload kind, a missing fragment name, a
            count mismatch, a checksum mismatch, or rows nested too deep
            to serialize again.
    """
    if payload.local_name() != "FragmentFeed":
        raise SoapFault(
            f"expected a FragmentFeed, got <{payload.name}>"
        )
    name = _feed_name(payload.attrs)
    try:
        digest = feed_digest(payload.children)
    except RecursionError:
        raise SoapFault(
            f"feed of fragment {name!r} nests too deep to verify"
        ) from None
    count = len(payload.children)
    _check_totals(payload.name, payload.attrs, count, digest)
    return name, count, digest


def _wire_element(data: ElementData, keys: str = "") -> str:
    """One element occurrence in wire form: its own attributes, its
    ``_eid``, then ``keys`` (a fragment root's ``ID``/``PARENT``).

    The wire carries element text without leading or trailing
    whitespace — every receiver strips it, as the shredder does for
    publish&map — so the stripped text is what is written, digested,
    and left on the row: sender and receiver hold the same value
    whether or not the row is decoded again.
    """
    name = data.name
    attrs = "".join([
        f' {key}="{escape_attr(value)}"'
        for key, value in data.attrs.items()
    ]) if data.attrs else ""
    text = data.text
    if text:
        stripped = text.strip()
        if stripped is not text:
            data.text = text = stripped
        text = escape_text(text)
    children = "".join([
        _wire_element(child)
        for group in data.children.values() for child in group
    ]) if data.children else ""
    if text or children:
        return (
            f'<{name}{attrs} {_EID_ATTR}="{data.eid}"{keys}>'
            f"{text}{children}</{name}>"
        )
    return f'<{name}{attrs} {_EID_ATTR}="{data.eid}"{keys}/>'


def _root_keys(eid: int, parent: int | None) -> str:
    return (
        f' {ID_ATTR}="{eid}" {PARENT_ATTR}='
        f'"{"" if parent is None else parent}"'
    )


def _column_rows(batch: ColumnBatch) -> list[str]:
    """Write every row of ``batch`` straight from its cells.

    The bytes are the tree writer's for the rows
    :meth:`~repro.core.columnar.ColumnLayout.row_from_cells` would
    build: keys through ``int()``, other cells through ``str()``, text
    stripped as :func:`_wire_element` writes it.  Whatever was written
    differently from the cell it came from (padded text, a non-``str``
    value) goes back onto the batch — copies of the touched columns,
    rebound by :meth:`~repro.core.columnar.ColumnBatch.rebind` — so the
    batch holds what crossed the wire.
    """
    layout = batch.layout
    cells_of = layout.element_cells

    def plan(element: str) -> tuple:
        eid_at, text_at, attr_ats, children = cells_of[element]
        return (
            element, eid_at, text_at,
            [(f' {attribute}="', at) for attribute, at in attr_ats],
            [plan(child) for child in children],
        )

    written: dict[int, dict[int, str]] = {}

    def write(entry: tuple, row: tuple, index: int, keys: str = ""
              ) -> str:
        name, eid_at, text_at, attrs, children = entry
        eid = row[eid_at]
        if eid is None:
            return ""
        head = f"<{name}"
        for prefix, at in attrs:
            value = row[at]
            if value is not None:
                if type(value) is not str:
                    value = written.setdefault(at, {})[index] = str(value)
                head += f'{prefix}{escape_attr(value)}"'
        text = ""
        if text_at is not None:
            value = row[text_at]
            stripped = (
                "" if value is None
                else value if type(value) is str else str(value)
            ).strip()
            if stripped is not value:
                written.setdefault(text_at, {})[index] = stripped
            if stripped:
                text = escape_text(stripped)
        inner = "".join([
            write(child, row, index) for child in children
        ]) if children else ""
        if text or inner:
            return (
                f'{head} {_EID_ATTR}="{int(eid)}"{keys}>'
                f"{text}{inner}</{name}>"
            )
        return f'{head} {_EID_ATTR}="{int(eid)}"{keys}/>'

    root = plan(batch.fragment.root_name)
    id_at, parent_at = layout.positions["id"], layout.positions["parent"]
    columns = [batch.column(spec.name) for spec in layout.specs]
    rows = []
    for index, row in enumerate(zip(*columns)):
        eid, parent = row[id_at], row[parent_at]
        if eid is None:
            raise OperationError(
                f"columnar row of {batch.fragment.name!r} has NULL id"
            )
        rows.append(write(
            root, row, index,
            _root_keys(int(eid), None if parent is None else int(parent)),
        ))
    if written:
        fresh = list(columns)
        for position, patch in written.items():
            cells = fresh[position] = list(columns[position])
            for index, value in patch.items():
                cells[index] = value
        batch.rebind(fresh, written)
    return rows


# ``soap_envelope`` around a feed, cut where the feed goes.
_ENVELOPE_HEAD, _ENVELOPE_TAIL = soap_envelope(
    Element("FragmentFeed")
).split("<FragmentFeed/>")
# ``feed_digest`` serializes each row as a document of its own.
_ROW_PROLOG = serialize(Element("row"), indent=None).removesuffix("<row/>")


def _row_digest(rows: list[str]) -> str:
    """The feed checksum over wire rows: each row as its own compact
    document, exactly the bytes :func:`feed_digest` covers."""
    return _digest(zlib.adler32(
        _ROW_PROLOG.join(["", *rows]).encode("utf-8")
    ))


def _assemble(fragment: Fragment, rows: list[str],
              seq: int | None) -> tuple[str, str]:
    """Wrap written rows in the feed envelope; returns ``(message,
    checksum)``."""
    checksum = _row_digest(rows)
    numbering = "" if seq is None else f' {SEQ_ATTR}="{seq}"'
    feed = (
        f'{_ENVELOPE_HEAD}<FragmentFeed'
        f' fragment="{escape_attr(fragment.name)}"'
        f' count="{len(rows)}"{numbering} {CHECKSUM_ATTR}="{checksum}"'
    )
    if rows:
        rows.insert(0, f"{feed}>")
        rows.append(f"</FragmentFeed>{_ENVELOPE_TAIL}")
        return "".join(rows), checksum
    return f"{feed}/>{_ENVELOPE_TAIL}", checksum


def encode_fragment_feed(instance: FragmentInstance,
                         seq: int | None = None) -> tuple[str, str]:
    """Encode a fragment instance; returns ``(message, checksum)``.

    The message is :func:`wrap_fragment_feed`'s; the checksum is the
    one written into it, which a sender keeps to hold the receiver's
    ack against.  Every row is written once, straight from its
    :class:`~repro.core.instance.ElementData`; the checksum covers
    exactly the bytes :func:`feed_digest` covers on the receiving
    side (each row as its own compact document).
    """
    return _assemble(instance.fragment, [
        _wire_element(row.data, _root_keys(row.data.eid, row.parent))
        for row in instance.rows
    ], seq)


def encode_batch(batch: ColumnBatch | RowBatch) -> tuple[str, str]:
    """Encode one batch of a feed; returns ``(message, checksum)``.

    A :class:`~repro.core.columnar.ColumnBatch` is written straight
    from its cells, a :class:`~repro.core.stream.RowBatch` by the tree
    writer; the two write the same bytes for the same rows, so the
    message is :func:`encode_fragment_feed`'s for the batch's rows and
    ``seq`` either way.
    """
    if isinstance(batch, ColumnBatch):
        return _assemble(batch.fragment, _column_rows(batch), batch.seq)
    return encode_fragment_feed(
        FragmentInstance(batch.fragment, batch.rows), batch.seq
    )


def wrap_fragment_feed(instance: FragmentInstance,
                       seq: int | None = None) -> str:
    """Serialize a fragment instance as one SOAP message.

    The message carries a content ``checksum``; ``seq`` (set for
    chunked streaming transfers) numbers this message within its feed.
    """
    return encode_fragment_feed(instance, seq)[0]


def unwrap_fragment_feed(text: str,
                         fragment: Fragment) -> FragmentInstance:
    """Parse a SOAP fragment-feed message back into an instance.

    The tree decode, for non-flat fragments and the HTTP feed plane.

    Raises:
        SoapFault: on anything :func:`verify_fragment_feed` rejects, a
            feed of another fragment, or missing / non-numeric keys.
    """
    payload = parse_envelope(text)
    declared, _, _ = verify_fragment_feed(payload)
    if declared != fragment.name:
        raise SoapFault(
            f"feed carries fragment {declared!r}, expected "
            f"{fragment.name!r}"
        )
    rows: list[FragmentRow] = []
    for child in payload.children:
        parent_raw = child.get(PARENT_ATTR, "")
        parent = (
            _number(child.name, PARENT_ATTR, parent_raw) if parent_raw
            else None
        )
        rows.append(FragmentRow(_element_from_wire(child), parent))
    return FragmentInstance(fragment, rows)


# -- the streaming receiver -------------------------------------------------------


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


def read_fragment_feed(text: str, fragment: Fragment | None = None
                       ) -> FeedReceipt:
    """Verify a fragment-feed message in one walk over its tokens.

    The one receiver-side check of a feed hop — the TCP feed sink, a
    wire-format channel receiving its own message, fault injection
    catching a corrupted one.  It checks the payload kind, the
    fragment name and the declared row count, and recomputes the
    Adler-32 checksum over each received row's *own text* (the bytes
    from its start tag to its end tag, where the tokenizer found
    them): no tree is built and nothing is serialized again.

    Without ``fragment`` the rows are not decoded, and an element
    nested inside one of its own name is rejected — element names are
    unique in a schema, so no fragment has that shape.  Given the
    (flat-storable) fragment, the feed must be that fragment's and its
    rows are decoded straight into the column lists of its
    :class:`~repro.core.columnar.ColumnLayout` (keys as ``int``, text
    stripped as every tree parser strips it, ``None`` for absent
    elements and attributes); an element the fragment does not have at
    that place is rejected.  Nothing recurses, so no nesting depth crashes
    the receiver.

    Raises:
        SoapFault: on a malformed message, a payload that is no
            ``FragmentFeed`` (a ``Fault`` payload raises its message),
            a missing fragment name or another fragment's feed, a
            checksum or count mismatch, an element the fragment does
            not have, or a missing / non-numeric key.
    """
    receipt = _read_feed(text, fragment)
    if receipt is None:
        payload = parse_envelope(text)
        raise SoapFault(f"expected a FragmentFeed, got <{payload.name}>")
    return receipt


def read_message(text: str) -> FeedReceipt | Element:
    """Receive one message of any kind.

    A fragment feed is verified by :func:`read_fragment_feed`'s walk
    (nothing decoded); anything else is parsed into its payload tree by
    :func:`parse_envelope`.
    """
    receipt = _read_feed(text, None)
    return parse_envelope(text) if receipt is None else receipt


def _read_feed(text: str, fragment: Fragment | None
               ) -> FeedReceipt | None:
    """:func:`read_fragment_feed`'s walk; ``None`` when the body
    carries something other than a feed."""
    try:
        return _walk_feed(text, fragment)
    except XmlSyntaxError as exc:
        raise SoapFault(f"message is not well-formed XML: {exc}") from exc


def _next_tag(text: str, cursor: int, kind: int, extra) -> int:
    """Where to look for the next tag after a token that is not a
    start tag: no '<' lies between there and the next token's own (an
    end tag, text or comment ends where the tokenizer says, a PI or the
    declaration at its first '?>')."""
    if kind == END or kind == TEXT or kind == COMMENT:
        return extra
    return text.find("?>", text.find("<", cursor)) + 2


def _payload(stream: Iterator[tuple], text: str
             ) -> tuple[int, str, dict[str, str]] | None:
    """Walk the envelope up to its body's element: ``(cursor past that
    element's '<', its name, its attributes)``, or ``None`` when it is
    no ``FragmentFeed``.  Raises what :func:`parse_envelope` raises
    for a malformed envelope."""
    cursor = 0
    in_body = False
    depth = 0
    for kind, value, extra in stream:
        if kind == START:
            # A start tag holds no '<': the next one is its own.
            cursor = text.find("<", cursor) + 1
            depth += 1
            local = value.rpartition(":")[2]
            if depth == 1 and local != "Envelope":
                raise SoapFault(f"not a SOAP envelope: <{value}>")
            if in_body:
                return (cursor, value, extra) \
                    if local == "FragmentFeed" else None
            in_body = depth == 2 and local == "Body"
            continue
        if kind == END:
            if in_body:
                break
            depth -= 1
        cursor = _next_tag(text, cursor, kind, extra)
    raise SoapFault("SOAP body must contain exactly one element")


def _walk_feed(text: str, fragment: Fragment | None
               ) -> FeedReceipt | None:
    stream = tokens(text)
    found = _payload(stream, text)
    if found is None:
        return None
    cursor, payload, attrs = found
    name = _feed_name(attrs)

    decode = fragment is not None
    if decode:
        if name != fragment.name:
            raise SoapFault(
                f"feed carries fragment {name!r}, expected "
                f"{fragment.name!r}"
            )
        layout = layout_of(fragment)
        slots = {
            element: (eid_at, text_at, attr_ats, frozenset(children))
            for element, (eid_at, text_at, attr_ats, children)
            in layout.element_cells.items()
        }
        top = frozenset((fragment.root_name,))
        width = len(layout.specs)
        parent_at = layout.positions["parent"]
    spans: list[str] = []
    rows: list[list] = []
    depth = 0
    for kind, value, extra in stream:
        if kind == START:
            if not depth:
                start = text.find("<", cursor)
                if not text.startswith(value, start + 1):
                    raise SoapFault(
                        f"row <{value}> of feed {name!r} is not where "
                        "the message text says (a DTD?)"
                    )
                if decode:
                    cells: list = [None] * width
                    cells[parent_at] = extra.get(PARENT_ATTR) or None
                    allowed, stack = top, []
                else:
                    path = {value}
            if decode:
                if value not in allowed:
                    raise SoapFault(
                        f"feed of fragment {name!r} carries an element "
                        f"<{value}> the fragment does not have there"
                    )
                eid_at, text_at, attr_ats, children = slots[value]
                if cells[eid_at] is not None:
                    raise SoapFault(
                        f"<{value}> repeats within one row of fragment "
                        f"{name!r}"
                    )
                cells[eid_at] = extra.get(_EID_ATTR)
                if cells[eid_at] is None:
                    raise _missing_eid(value)
                for attribute, at in attr_ats:
                    cells[at] = extra.get(attribute)
                stack.append((text_at, allowed))
                allowed, pending = children, ""
            elif depth:
                if value in path:
                    raise SoapFault(
                        f"<{value}> nests inside itself in feed "
                        f"{name!r}; no fragment has that shape"
                    )
                path.add(value)
            depth += 1
        elif kind == END:
            if not depth:
                break  # the feed closes
            depth -= 1
            if decode:
                text_at, allowed = stack.pop()
                if text_at is not None:
                    cells[text_at] = pending.strip()
            else:
                path.discard(value)
            if not depth:
                spans.append(text[start:extra])
                cursor = extra
                if decode:
                    rows.append(cells)
        elif not depth:
            cursor = _next_tag(text, cursor, kind, extra)
        elif kind == TEXT and decode:
            pending += value
    for kind, _, _ in stream:  # the rest of the body holds no element
        if kind == START:
            raise SoapFault("SOAP body must contain exactly one element")
        if kind == END:
            break
    for _ in stream:  # the rest of the envelope: well-formedness only
        pass

    count = len(spans)
    digest = _row_digest(spans)
    _check_totals(payload, attrs, count, digest)
    columns = None
    if decode:
        columns = (
            [list(cells) for cells in zip(*rows)] if rows
            else [[] for _ in range(width)]
        )
        root = fragment.root_name
        for position, spec in enumerate(layout.specs):
            if spec.role in ("id", "eid", "parent"):
                columns[position] = _numbers(
                    columns[position], spec.element or root,
                    PARENT_ATTR if spec.role == "parent" else _EID_ATTR,
                )
    return FeedReceipt(name, count, digest, attrs.get(SEQ_ATTR), columns)


def _numbers(cells: list, element: str, attr: str) -> list:
    """Wire key strings (or ``None``) as ints."""
    try:
        return [None if raw is None else int(raw) for raw in cells]
    except ValueError:
        for raw in cells:
            if raw is not None:
                _number(element, attr, raw)
        raise
