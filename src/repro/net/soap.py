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

One encode, one decode.  :func:`encode_fragment_feed` writes every row
once, straight from its ``ElementData``, and returns the checksum with
the message; :func:`unwrap_fragment_feed` (a receiver that knows the
fragment) and :func:`verify_fragment_feed` (one that does not — the
feed sink) are the only decoders, and a message is decoded by whoever
receives it, never by its sender.  Everything a receiver reads is
input from outside the process: whatever is malformed, numbers
included, is a :class:`~repro.errors.SoapFault`.
"""

from __future__ import annotations

import zlib

from repro.errors import SoapFault
from repro.core.fragment import ID_ATTR, PARENT_ATTR, Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.xmlkit.escape import escape_attr, escape_text
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


def _number(element: Element, attr: str, raw: str) -> int:
    """A numeric wire attribute; input from outside the process, so a
    value that is no number is the sender's fault, not a crash."""
    try:
        return int(raw)
    except ValueError:
        raise SoapFault(
            f"<{element.name}> carries a non-numeric {attr}={raw!r}"
        ) from None


def _element_from_wire(element: Element) -> ElementData:
    attrs = dict(element.attrs)
    try:
        eid = _number(element, _EID_ATTR, attrs.pop(_EID_ATTR))
    except KeyError as exc:
        raise SoapFault(
            f"wire element <{element.name}> is missing its {_EID_ATTR}"
        ) from exc
    attrs.pop(ID_ATTR, None)
    attrs.pop(PARENT_ATTR, None)
    data = ElementData(element.name, eid, attrs, element.text)
    for child in element.children:
        data.add_child(_element_from_wire(child))
    return data


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
            and _number(payload, "bytes", declared) != len(text):
        raise SoapFault(
            f"document declares {declared} bytes but carries "
            f"{len(text)}"
        )
    return text


def verify_fragment_feed(payload: Element) -> tuple[str, int, str]:
    """Receiver-side structural verification of a ``FragmentFeed``.

    Unlike :func:`unwrap_fragment_feed` this needs no
    :class:`~repro.core.fragment.Fragment` — a network receiver (the
    :class:`~repro.net.server.FeedSink`) verifies what it *can* see:
    payload kind, declared row count, and the Adler-32 content checksum
    recomputed over the wire rows.  Returns ``(fragment name, row
    count, recomputed digest)``.

    Raises:
        SoapFault: on a wrong payload kind, a missing fragment name, a
            count mismatch, or a checksum mismatch.
    """
    if payload.local_name() != "FragmentFeed":
        raise SoapFault(
            f"expected a FragmentFeed, got <{payload.name}>"
        )
    name = payload.get("fragment")
    if not name:
        raise SoapFault("feed names no fragment")
    digest = feed_digest(payload.children)
    declared_digest = payload.get(CHECKSUM_ATTR)
    if declared_digest is not None and declared_digest != digest:
        raise SoapFault(
            f"feed of fragment {name!r} failed its checksum "
            "(message corrupted in flight)"
        )
    declared_count = payload.get("count")
    if declared_count is not None \
            and _number(payload, "count", declared_count) \
            != len(payload.children):
        raise SoapFault(
            f"feed declares {declared_count} rows but carries "
            f"{len(payload.children)}"
        )
    return name, len(payload.children), digest


def _wire_element(data: ElementData, keys: str = "") -> str:
    """One element occurrence in wire form: its own attributes, its
    ``_eid``, then ``keys`` (a fragment root's ``ID``/``PARENT``).

    The wire carries element text without leading or trailing
    whitespace — every receiver's tree parser strips it, as the
    shredder does for publish&map — so the stripped text is what is
    written, digested, and left on the row: sender and receiver hold
    the same value whether or not the row is decoded again.
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


# ``soap_envelope`` around a feed, cut where the feed goes.
_ENVELOPE_HEAD, _ENVELOPE_TAIL = soap_envelope(
    Element("FragmentFeed")
).split("<FragmentFeed/>")
# ``feed_digest`` serializes each row as a document of its own.
_ROW_PROLOG = serialize(Element("row"), indent=None).removesuffix("<row/>")


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
    rows = [
        _wire_element(
            row.data,
            f' {ID_ATTR}="{row.data.eid}" {PARENT_ATTR}='
            f'"{"" if row.parent is None else row.parent}"',
        )
        for row in instance.rows
    ]
    checksum = _digest(zlib.adler32(
        _ROW_PROLOG.join(["", *rows]).encode("utf-8")
    ))
    numbering = "" if seq is None else f' {SEQ_ATTR}="{seq}"'
    feed = (
        f'{_ENVELOPE_HEAD}<FragmentFeed'
        f' fragment="{escape_attr(instance.fragment.name)}"'
        f' count="{len(rows)}"{numbering} {CHECKSUM_ATTR}="{checksum}"'
    )
    if rows:
        rows.insert(0, f"{feed}>")
        rows.append(f"</FragmentFeed>{_ENVELOPE_TAIL}")
        return "".join(rows), checksum
    return f"{feed}/>{_ENVELOPE_TAIL}", checksum


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
            _number(child, PARENT_ATTR, parent_raw) if parent_raw
            else None
        )
        rows.append(FragmentRow(_element_from_wire(child), parent))
    return FragmentInstance(fragment, rows)
