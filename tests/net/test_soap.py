"""SOAP envelopes and fragment-feed wire format."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SoapFault
from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.net.soap import (
    CHECKSUM_ATTR,
    FeedReceipt,
    encode_batch,
    encode_fragment_feed,
    feed_digest,
    parse_envelope,
    read_fragment_feed,
    read_message,
    soap_envelope,
    soap_fault,
    unwrap_fragment_feed,
    verify_fragment_feed,
    wrap_document,
    wrap_fragment_feed,
)
from repro.workloads.customer import fragment_customers
from repro.xmlkit.tree import Element
from repro.xmlkit.writer import serialize

from tests.net.test_feed_codec import (
    assert_every_change_faults,
    column_batches,
    typed,
)


class TestEnvelope:
    def test_round_trip(self):
        body = Element("Ping", {"n": "1"})
        payload = parse_envelope(soap_envelope(body))
        assert payload.name == "Ping"
        assert payload.get("n") == "1"

    def test_not_an_envelope(self):
        with pytest.raises(SoapFault):
            parse_envelope("<NotSoap/>")

    def test_empty_body_rejected(self):
        text = ('<soap:Envelope xmlns:soap="ns"><soap:Body/>'
                "</soap:Envelope>")
        with pytest.raises(SoapFault):
            parse_envelope(text)

    def test_fault_raises(self):
        text = (
            '<soap:Envelope xmlns:soap="ns"><soap:Body>'
            "<soap:Fault><faultstring>boom</faultstring></soap:Fault>"
            "</soap:Body></soap:Envelope>"
        )
        with pytest.raises(SoapFault, match="boom"):
            parse_envelope(text)


class TestFragmentFeed:
    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]

    def test_round_trip_preserves_rows(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        received = unwrap_fragment_feed(message, order_feed.fragment)
        assert received.row_count() == order_feed.row_count()
        sent = sorted(
            serialize(doc) for doc in order_feed.to_xml_documents()
        )
        got = sorted(
            serialize(doc) for doc in received.to_xml_documents()
        )
        assert got == sent

    def test_eids_survive(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        received = unwrap_fragment_feed(message, order_feed.fragment)
        sent_eids = sorted(row.eid for row in order_feed.rows)
        got_eids = sorted(row.eid for row in received.rows)
        assert got_eids == sent_eids

    def test_wrong_fragment_rejected(self, order_feed,
                                     customers_schema):
        message = wrap_fragment_feed(order_feed)
        other = Fragment(customers_schema, ["Order"])
        with pytest.raises(SoapFault, match="carries fragment"):
            unwrap_fragment_feed(message, other)

    def test_count_mismatch_rejected(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        tampered = message.replace(
            f'count="{order_feed.row_count()}"', 'count="999"'
        )
        with pytest.raises(SoapFault, match="declares"):
            unwrap_fragment_feed(tampered, order_feed.fragment)

    def test_missing_eid_rejected(self, order_fragment):
        text = feed_message('<Order ID="1" PARENT=""/>')
        with pytest.raises(SoapFault, match="_eid"):
            unwrap_fragment_feed(text, order_fragment)


class TestFeedIntegrity:
    """Checksums and sequence numbers on the wire."""

    @pytest.fixture
    def order_feed(self, customers_s, customer_documents):
        return fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]

    def test_message_carries_checksum(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        assert 'checksum="' in message

    def test_tampered_checksum_rejected(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        head, _, tail = message.partition('checksum="')
        tampered = head + 'checksum="' + (
            "1" + tail[1:] if tail[0] == "0" else "0" + tail[1:]
        )
        with pytest.raises(SoapFault, match="checksum"):
            unwrap_fragment_feed(tampered, order_feed.fragment)

    def test_tampered_row_content_rejected(self, order_feed):
        message = wrap_fragment_feed(order_feed)
        first_row = order_feed.rows[0]
        tampered = message.replace(
            f'_eid="{first_row.eid}"', '_eid="evil"', 1
        )
        with pytest.raises(SoapFault, match="checksum"):
            unwrap_fragment_feed(tampered, order_feed.fragment)

    def test_sequence_number_round_trip(self, order_feed):
        message = wrap_fragment_feed(order_feed, seq=42)
        assert 'seq="42"' in message
        received = unwrap_fragment_feed(message, order_feed.fragment)
        assert received.row_count() == order_feed.row_count()

    def test_unsequenced_message_has_no_seq(self, order_feed):
        assert 'seq="' not in wrap_fragment_feed(order_feed)


class TestEnvelopeErrorPaths:
    def test_multi_child_body_rejected(self):
        text = (
            '<soap:Envelope xmlns:soap="ns"><soap:Body>'
            "<First/><Second/></soap:Body></soap:Envelope>"
        )
        with pytest.raises(SoapFault, match="exactly one element"):
            parse_envelope(text)

    def test_unparseable_text_rejected(self):
        with pytest.raises(SoapFault, match="well-formed"):
            parse_envelope("<broken")

    def test_soap_fault_round_trip(self):
        with pytest.raises(SoapFault, match="no such feed"):
            parse_envelope(soap_fault("no such feed"))

    def test_nested_fault_reports_root_cause_first(self):
        """A downstream hop's Fault rides in the detail element; its
        faultstring is the root cause and must lead the message."""
        inner = Element("Fault")
        inner.append(Element("faultstring", text="disk full"))
        detail = Element("detail")
        detail.append(inner)
        outer = Element("soap:Fault")
        outer.append(Element("faultstring", text="upstream failed"))
        outer.append(detail)
        with pytest.raises(SoapFault,
                           match="disk full: upstream failed"):
            parse_envelope(soap_envelope(outer))

    def test_fault_without_faultstring_still_raises(self):
        with pytest.raises(SoapFault, match="fault"):
            parse_envelope(soap_envelope(Element("soap:Fault")))


class TestDocumentWrapper:
    def test_round_trip(self):
        text = "<Site><Item money='3.50'/></Site>"
        payload = parse_envelope(wrap_document(text))
        assert payload.local_name() == "Document"
        assert payload.text == text
        assert payload.get("bytes") == str(len(text))


class TestVerifyFragmentFeed:
    @pytest.fixture
    def order_payload(self, customers_s, customer_documents):
        feed = fragment_customers(customer_documents, customers_s)[
            "Line_Feature"
        ]
        return parse_envelope(wrap_fragment_feed(feed))

    def test_returns_name_count_digest(self, order_payload):
        name, count, digest = verify_fragment_feed(order_payload)
        assert name == "Line_Feature"
        assert count == len(order_payload.children)
        assert digest == order_payload.get("checksum")

    def test_wrong_payload_kind_rejected(self):
        with pytest.raises(SoapFault, match="expected a FragmentFeed"):
            verify_fragment_feed(Element("Document"))

    def test_missing_fragment_name_rejected(self):
        with pytest.raises(SoapFault, match="names no fragment"):
            verify_fragment_feed(Element("FragmentFeed"))

    def test_checksum_mismatch_rejected(self, order_payload):
        order_payload.attrs["checksum"] = "00000000"
        with pytest.raises(SoapFault, match="checksum"):
            verify_fragment_feed(order_payload)

    def test_count_mismatch_rejected(self, order_payload):
        order_payload.children.pop()
        # Recompute the digest so only the count is wrong.
        order_payload.attrs["checksum"] = feed_digest(
            order_payload.children
        )
        with pytest.raises(SoapFault, match="declares"):
            verify_fragment_feed(order_payload)


# -- the wire bytes, pinned -------------------------------------------------------

_HEAD = (
    '<?xml version="1.0"?><soap:Envelope xmlns:soap='
    '"http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>'
)
_TAIL = "</soap:Body></soap:Envelope>"
#: Rows of :func:`golden_feed` as the commit before the single-pass
#: encoder wrote them (captured from it, checksum included).
_GOLDEN_ROWS = (
    '<Order note="a &quot;quoted&quot; &lt;b&gt; &amp; c&#10;&#9;z"'
    ' _eid="7" ID="7" PARENT=""><Service _eid="8">x &lt; y &amp; z &gt; w'
    '<ServiceName k="v\'" _eid="9">café ☃</ServiceName></Service>'
    '<Service _eid="10"/><Line _eid="11">in\rner</Line></Order>'
    '<Order _eid="12" ID="12" PARENT="3">text and child'
    '<Line _eid="13"/></Order>'
    '<Order _eid="14" ID="14" PARENT="0"/>'
)
_GOLDEN_CHECKSUM = "bf3e80b1"


@pytest.fixture
def order_fragment(customers_schema):
    """``Order`` with its repeated ``Line``: a fragment that does not
    flatten, so its feed is a tagged tree."""
    fragment = Fragment(
        customers_schema, ["Order", "Service", "ServiceName", "Line"],
        name="Order",
    )
    assert not fragment.is_flat_storable()
    return fragment


@pytest.fixture
def golden_feed(order_fragment):
    """Nested children, text beside children, escaped text and
    attribute values, non-ASCII text, an inner ``\\r``, a ``None``
    parent, a parent of 0, and a child group left empty."""
    first = ElementData("Order", 7, {"note": 'a "quoted" <b> & c\n\tz'})
    service = first.add_child(
        ElementData("Service", 8, {}, "x < y & z > w")
    )
    service.add_child(
        ElementData("ServiceName", 9, {"k": "v'"}, "café ☃")
    )
    first.add_child(ElementData("Service", 10))
    first.add_child(ElementData("Line", 11, {}, "in\rner"))
    second = ElementData("Order", 12, {}, "text and child")
    second.add_child(ElementData("Line", 13))
    third = ElementData("Order", 14)
    third.children["Line"] = []
    return FragmentInstance(order_fragment, [
        FragmentRow(first, None), FragmentRow(second, 3),
        FragmentRow(third, 0),
    ])


class TestGoldenMessages:
    """``wrap_fragment_feed`` is byte-for-byte what it always was."""

    @pytest.mark.parametrize("seq, numbering", [
        (None, ""), (0, ' seq="0"'), (41, ' seq="41"'),
    ])
    def test_rows_and_checksum(self, golden_feed, seq, numbering):
        assert wrap_fragment_feed(golden_feed, seq) == (
            f'{_HEAD}<FragmentFeed fragment="Order" count="3"{numbering}'
            f' checksum="{_GOLDEN_CHECKSUM}">{_GOLDEN_ROWS}'
            f"</FragmentFeed>{_TAIL}"
        )

    @pytest.mark.parametrize("seq, numbering", [
        (None, ""), (5, ' seq="5"'),
    ])
    def test_empty_feed(self, golden_feed, seq, numbering):
        empty = FragmentInstance(golden_feed.fragment)
        assert wrap_fragment_feed(empty, seq) == (
            f'{_HEAD}<FragmentFeed fragment="Order" count="0"{numbering}'
            f' checksum="00000001"/>{_TAIL}'
        )

    def test_encoder_returns_the_checksum_it_wrote(self, golden_feed):
        message, checksum = encode_fragment_feed(golden_feed, 3)
        assert message == wrap_fragment_feed(golden_feed, 3)
        assert checksum == _GOLDEN_CHECKSUM
        # ... which is the digest a receiver recomputes.
        assert feed_digest(parse_envelope(message).children) == checksum

    def test_decodes_to_the_rows_it_encoded(self, golden_feed):
        received = unwrap_fragment_feed(
            wrap_fragment_feed(golden_feed), golden_feed.fragment
        )
        assert [row.parent for row in received.rows] == [None, 3, 0]
        assert [row.data for row in received.rows[:2]] == [
            row.data for row in golden_feed.rows[:2]
        ]
        # An empty child group does not exist on the wire.
        assert received.rows[2].data == ElementData("Order", 14)

    def test_padded_text_is_normalised_by_the_encoder(self, golden_feed):
        """A receiver's tree parser strips element text, so the encoder
        writes, digests and leaves on the row the stripped text: the
        checksum verifies and sender and receiver hold the same rows
        whether or not the sender decodes its own message."""
        leaf = golden_feed.rows[0].data.children["Line"][0]
        leaf.text = " \r\n padded\rtext \t\r "
        golden_feed.rows[1].data.text = "   "
        message = wrap_fragment_feed(golden_feed)
        assert ">padded\rtext</Line>" in message
        assert leaf.text == "padded\rtext"
        assert golden_feed.rows[1].data.text == ""
        received = unwrap_fragment_feed(message, golden_feed.fragment)
        assert received.rows[0].data == golden_feed.rows[0].data
        assert received.rows[1].data == golden_feed.rows[1].data


class TestMalformedNumbers:
    """Numbers arrive from outside the process: a value that is not one
    is a ``SoapFault`` naming the attribute, never a ``ValueError``."""

    @pytest.fixture
    def message(self, golden_feed):
        return wrap_fragment_feed(golden_feed)

    def _rechecksummed(self, message):
        """``message`` with its checksum recomputed, so that only the
        malformed number is wrong."""
        payload = parse_envelope(message)
        payload.attrs["checksum"] = feed_digest(payload.children)
        return payload

    def test_count(self, message, golden_feed):
        tampered = message.replace('count="3"', 'count="abc"')
        with pytest.raises(SoapFault, match="count='abc'"):
            verify_fragment_feed(parse_envelope(tampered))
        with pytest.raises(SoapFault, match="count='abc'"):
            unwrap_fragment_feed(tampered, golden_feed.fragment)

    def test_parent(self, message, golden_feed):
        payload = self._rechecksummed(
            message.replace('PARENT="3"', 'PARENT="zz"')
        )
        with pytest.raises(SoapFault, match="PARENT='zz'"):
            unwrap_fragment_feed(
                soap_envelope(payload), golden_feed.fragment
            )

    @pytest.mark.parametrize("eid", ['_eid="12"', '_eid="13"'])
    def test_eid(self, message, golden_feed, eid):
        payload = self._rechecksummed(message.replace(eid, '_eid="x1"'))
        with pytest.raises(SoapFault, match="_eid='x1'"):
            unwrap_fragment_feed(
                soap_envelope(payload), golden_feed.fragment
            )


# -- flat feeds as tuples: the encoder from cells, the receivers -------------------

#: The golden tuple feed's text, as ``tuple_batch`` encodes it: an
#: escaped separator, escape, markup and line ends, non-ASCII text
#: left as it is, ``None`` cells, an empty last cell.
_TUPLE_ROWS = (
    "7|\\N|8|9|café \\007c ☃ \\005c \\0026\\003c\\003e \\000a\\000dz\n"
    "12|3|\\N|\\N|\\N\n"
    "14|0|15|16|"
)
_TUPLE_CHECKSUM = "7cc519eb"
_TUPLE_COLUMNS = "id parent service_eid servicename_eid servicename"


@pytest.fixture
def tuple_fragment(customers_schema):
    """``Order`` down to its ``ServiceName``: a fragment that
    flattens, so its feed is a tuple feed."""
    return Fragment(customers_schema, ["Order", "Service", "ServiceName"],
                    name="Order")


@pytest.fixture
def tuple_batch(tuple_fragment):
    return ColumnBatch(tuple_fragment, [
        [7, 12, 14], [None, 3, 0], [8, None, 15], [9, None, 16],
        ["  café | ☃ \\ &<> \n\rz ", None, ""],
    ], 4)


class TestGoldenTupleMessage:
    def test_rows_and_checksum(self, tuple_batch):
        assert encode_batch(tuple_batch) == (
            f'{_HEAD}<FragmentFeed fragment="Order" columns='
            f'"{_TUPLE_COLUMNS}" count="3" seq="4" checksum='
            f'"{_TUPLE_CHECKSUM}">{_TUPLE_ROWS}</FragmentFeed>{_TAIL}',
            _TUPLE_CHECKSUM,
        )
        assert format(
            zlib.adler32(_TUPLE_ROWS.encode("utf-8")), "08x"
        ) == _TUPLE_CHECKSUM

    def test_empty_feed(self, tuple_fragment):
        empty = ColumnBatch(tuple_fragment, [[] for _ in range(5)], None)
        message, checksum = encode_batch(empty)
        assert message == (
            f'{_HEAD}<FragmentFeed fragment="Order" columns='
            f'"{_TUPLE_COLUMNS}" count="0" checksum="00000001"/>{_TAIL}'
        )
        assert read_fragment_feed(message, tuple_fragment).columns \
            == [[] for _ in range(5)]

    def test_rows_of_a_flat_fragment_are_written_as_tuples(
            self, tuple_batch):
        message, _ = encode_batch(tuple_batch)
        rows = tuple_batch.to_row_batch()
        assert encode_batch(rows)[0] == message
        assert wrap_fragment_feed(
            FragmentInstance(rows.fragment, rows.rows), 4
        ) == message
        received = unwrap_fragment_feed(message, rows.fragment)
        assert [row.data for row in received.rows] \
            == [row.data for row in rows.rows]
        assert [row.parent for row in received.rows] == [None, 3, 0]


class TestColumnEncoder:
    """``encode_batch`` writes a column batch straight from its cells:
    the message and checksum are those of the batch's rows, and what
    the writer normalised is what the batch holds."""

    @settings(max_examples=150, deadline=None)
    @given(column_batches())
    def test_same_message_and_checksum_as_the_row_writer(self, batch):
        shared = batch.columns
        before = [list(column) for column in shared]
        rows = ColumnBatch(
            batch.fragment,
            [batch.column(spec.name)[:] for spec in batch.layout.specs],
            batch.seq,
        ).to_row_batch()
        expected = encode_batch(rows)
        assert encode_batch(batch) == expected
        # The row writer left the written values on its rows; the
        # column batch holds the same, and the lists it shared with its
        # parent are untouched.
        crossed = ColumnBatch.from_rows(batch.fragment, rows.rows, None)
        assert typed(batch.column(spec.name)
                     for spec in batch.layout.specs) \
            == typed(crossed.columns)
        assert [list(column) for column in shared] == before
        assert encode_batch(batch) == expected

    def test_padded_text_is_rebound_on_a_copy(self, customers_schema):
        fragment = Fragment(customers_schema, ["Customer", "CustName"])
        layout = layout_of(fragment)
        name_at = layout.positions["custname"]
        columns = [[1, 3, 5] if spec.role == "id" else [None] * 3
                   for spec in layout.specs]
        columns[layout.positions["custname_eid"]] = [2, 4, 6]
        columns[name_at] = ["a", "  b\t", "c"]
        whole = ColumnBatch(fragment, columns, None)
        view = ColumnBatch(fragment, whole.columns, 0, None, 1, 3)
        view.feed_size()
        message, _ = encode_batch(view)
        assert ">3|\\N|4|b\n5|\\N|6|c</" in message
        assert view.column("custname") == ["b", "c"]
        assert view.feed_size() == ColumnBatch(
            fragment, [list(cells) for cells in view.columns], 0,
        ).feed_size()
        # The parent batch and its lists are as they were.
        assert whole.columns is columns
        assert columns[name_at] == ["a", "  b\t", "c"]


class TestStreamingVerifier:
    """``read_fragment_feed`` against the tree decode, and its
    Adler-32 over the received rows."""

    @settings(max_examples=150, deadline=None)
    @given(column_batches())
    def test_decode_equals_the_tree_decode(self, batch):
        message, checksum = encode_batch(batch)
        fragment = batch.fragment
        receipt = read_fragment_feed(message, fragment)
        expected = ColumnBatch.from_rows(
            fragment, unwrap_fragment_feed(message, fragment).rows, None,
        )
        assert typed(receipt.columns) == typed(expected.columns)
        seq = None if batch.seq is None else str(batch.seq)
        assert receipt == FeedReceipt(
            fragment.name, batch.row_count(), checksum, seq,
            receipt.columns,
        )
        # The sink's form: nothing decoded, the same verdict.
        sunk = FeedReceipt(fragment.name, batch.row_count(), checksum, seq)
        assert read_fragment_feed(message) == sunk
        assert read_message(message) == sunk

    @settings(max_examples=60, deadline=None)
    @given(column_batches(), st.integers(1, 255))
    def test_every_single_byte_change_in_a_row_is_a_fault(self, batch,
                                                          flip):
        message, _ = encode_batch(batch)
        if batch.row_count():
            assert_every_change_faults(message, batch.fragment, [flip])

    @pytest.fixture
    def order_message(self, tuple_batch):
        return encode_batch(tuple_batch)[0]

    def test_receipt_of_the_golden_feed(self, order_message,
                                        tuple_fragment):
        assert read_fragment_feed(order_message) == FeedReceipt(
            "Order", 3, _TUPLE_CHECKSUM, "4",
        )
        columns = read_fragment_feed(order_message, tuple_fragment).columns
        assert columns == [
            [7, 12, 14], [None, 3, 0], [8, None, 15], [9, None, 16],
            ["café | ☃ \\ &<> \n\rz", None, ""],
        ]

    def test_whitespace_and_comments_between_rows_are_no_row_text(
            self, order_message, tuple_fragment):
        spaced = order_message.replace(
            "\n12|", "\n<!-- next -->12|"
        ).replace("<soap:Body>", "<soap:Body>\n  ")
        assert read_fragment_feed(spaced).checksum == _TUPLE_CHECKSUM
        assert read_fragment_feed(spaced, tuple_fragment).columns \
            == read_fragment_feed(order_message, tuple_fragment).columns

    def test_the_received_text_is_what_is_digested(self, order_message):
        """The rows are character data: a character written as a
        reference is the same row, a space more is not."""
        referenced = order_message.replace("\n12|3|", "\n12&#124;3|")
        assert read_fragment_feed(referenced).checksum == _TUPLE_CHECKSUM
        with pytest.raises(SoapFault, match="checksum"):
            read_fragment_feed(order_message.replace("\n12|", "\n12 |"))

    @pytest.mark.parametrize("edit, match", [
        (('count="3"', 'count="2"'), "declares 2 rows but carries 3"),
        (('count="3"', 'count="abc"'), "count='abc'"),
        (('checksum="', 'checksum="0'), "checksum"),
        (('fragment="Order"', 'fragment=""'), "names no fragment"),
    ])
    def test_declaration_mismatches(self, order_message, edit, match):
        with pytest.raises(SoapFault, match=match):
            read_fragment_feed(order_message.replace(*edit))

    def test_other_fragment_rejected(self, order_message,
                                     customers_schema):
        with pytest.raises(SoapFault, match="carries fragment 'Order'"):
            read_fragment_feed(
                order_message, Fragment(customers_schema, ["Customer"])
            )

    def test_other_payloads(self):
        with pytest.raises(SoapFault, match="expected a FragmentFeed"):
            read_fragment_feed(wrap_document("<d/>"))
        with pytest.raises(SoapFault, match="no such feed"):
            read_fragment_feed(soap_fault("no such feed"))
        assert read_message(wrap_document("<d/>")).name == "Document"

    @pytest.mark.parametrize("text, match", [
        ("<broken", "well-formed"),
        ("<NotSoap/>", "not a SOAP envelope"),
        ('<soap:Envelope xmlns:soap="ns"><soap:Body/></soap:Envelope>',
         "exactly one element"),
        ('<soap:Envelope xmlns:soap="ns"><soap:Body>'
         '<FragmentFeed fragment="F"/><Second/></soap:Body>'
         "</soap:Envelope>", "exactly one element"),
    ])
    def test_malformed_envelopes(self, text, match):
        with pytest.raises(SoapFault, match=match):
            read_fragment_feed(text)


class TestUndeclaredTotals:
    """A feed that does not declare its checksum or its row count
    cannot be verified, so no receiver accepts it — corruption
    included."""

    @pytest.fixture
    def item(self, auction_schema):
        fragment = Fragment(auction_schema, ["item"])
        return fragment, encode_batch(ColumnBatch(fragment, [
            [3, 5], [2, 2], ["item3", "item4"], [None, "yes"],
        ], None))[0]

    @pytest.mark.parametrize("drop, match", [
        ([CHECKSUM_ATTR], "carries no checksum"),
        ([CHECKSUM_ATTR, "count"], "carries no checksum"),
        (["count"], "declares no count"),
    ])
    def test_tuple_feed(self, item, drop, match):
        fragment, message = item
        payload = parse_envelope(message)
        for attr in drop:
            message = message.replace(f' {attr}="{payload.get(attr)}"', "")
        corrupted = message.replace("item4", "itemX")
        # With the checksum declared, the corruption is caught by it.
        corruption = match if CHECKSUM_ATTR in drop else "checksum"
        for text, expected in ((message, match), (corrupted, corruption)):
            for receive in (
                read_message,
                lambda text: read_fragment_feed(text, fragment),
                lambda text: unwrap_fragment_feed(text, fragment),
                lambda text: verify_fragment_feed(parse_envelope(text)),
            ):
                with pytest.raises(SoapFault, match=expected):
                    receive(text)

    def test_tree_feed(self, golden_feed):
        message = wrap_fragment_feed(golden_feed)
        unchecked = message.replace(f' checksum="{_GOLDEN_CHECKSUM}"', "")
        for receive in (
            read_message,
            lambda text: unwrap_fragment_feed(text, golden_feed.fragment),
        ):
            with pytest.raises(SoapFault, match="carries no checksum"):
                receive(unchecked)


class TestTupleDecodeRejects:
    """Rows that verify but do not decode as the named fragment's are
    a ``SoapFault`` naming what is wrong."""

    def _message(self, rows: str, columns: str = _TUPLE_COLUMNS) -> str:
        digest = zlib.adler32(rows.encode("utf-8"))
        return (
            f'{_HEAD}<FragmentFeed fragment="Order" columns="{columns}"'
            f' count="{rows.count(chr(10)) + 1}"'
            f' checksum="{digest:08x}">{rows}</FragmentFeed>{_TAIL}'
        )

    @pytest.mark.parametrize("rows, columns, match", [
        ("7|1|8|9|x", "id parent servicename", "names columns"),
        ("7|1|8|9", _TUPLE_COLUMNS, "not 5 cells"),
        ("7|1|8|9|x|y", _TUPLE_COLUMNS, "not 5 cells"),
        ("7|1|x8|9|x", _TUPLE_COLUMNS, "service_eid='x8'"),
        ("\\N|1|8|9|x", _TUPLE_COLUMNS, "no id"),
        ("7|1|8|9|a\\zz", _TUPLE_COLUMNS, "bad escape"),
        ("7|1|8|9|\\Nx", _TUPLE_COLUMNS, "bad escape"),
        ("7|1|8|9|\\0041", _TUPLE_COLUMNS, "bad escape"),
    ])
    def test_rows(self, tuple_fragment, rows, columns, match):
        message = self._message(rows, columns)
        assert read_message(message).count == 1  # it verifies
        for decode in (read_fragment_feed, unwrap_fragment_feed):
            with pytest.raises(SoapFault, match=match):
                decode(message, tuple_fragment)

    def test_elements_in_a_tuple_feed(self):
        message = self._message("7|1|8|9|x").replace(
            "x</", "x<Order/></"
        )
        with pytest.raises(SoapFault, match="carries elements"):
            read_message(message)

    def test_the_form_must_fit_the_fragment(self, tuple_fragment,
                                            order_fragment, golden_feed):
        tuples = self._message("7|1|8|9|x")
        with pytest.raises(SoapFault, match="does not flatten"):
            unwrap_fragment_feed(tuples, order_fragment)
        tree = wrap_fragment_feed(golden_feed)
        for decode in (read_fragment_feed, unwrap_fragment_feed):
            with pytest.raises(SoapFault, match="names columns None"):
                decode(tree, tuple_fragment)


def feed_message(*rows: str, fragment: str = "Order") -> str:
    """A tree feed message carrying ``rows`` with the right count and
    checksum, so that only the rows' shape can be wrong."""
    digest = zlib.adler32("".join(
        f'<?xml version="1.0"?>{row}' for row in rows
    ).encode("utf-8"))
    return (
        f'{_HEAD}<FragmentFeed fragment="{fragment}" count="{len(rows)}"'
        f' checksum="{digest & 0xFFFFFFFF:08x}">{"".join(rows)}'
        f"</FragmentFeed>{_TAIL}"
    )


#: One row whose ``<b>`` nests 5 000 deep: no schema has that shape,
#: and a recursive decoder or serializer dies on it.
DEEP_ROW = (
    '<Order _eid="1" ID="1" PARENT="">' + '<b _eid="2">' * 5000
    + "</b>" * 5000 + "</Order>"
)


class TestHostileShapes:
    """Elements a fragment cannot have are a ``SoapFault`` on every
    receiving path — never a ``RecursionError``."""

    def test_deep_nesting_streaming(self, customers_schema):
        """The sink's path, with and without the fragment."""
        message = feed_message(DEEP_ROW)
        with pytest.raises(SoapFault, match="too deep"):
            read_fragment_feed(message)
        with pytest.raises(SoapFault, match="too deep"):
            read_fragment_feed(
                message, Fragment(customers_schema, ["Order"])
            )

    def test_deep_nesting_tree_path(self, customers_schema):
        message = feed_message(DEEP_ROW)
        with pytest.raises(SoapFault, match="too deep"):
            unwrap_fragment_feed(
                message, Fragment(customers_schema, ["Order"])
            )
        with pytest.raises(SoapFault, match="too deep"):
            verify_fragment_feed(parse_envelope(message))

    @pytest.mark.parametrize("row, match", [
        ('<Order _eid="1" ID="1" PARENT=""><Order _eid="2"/></Order>',
         "does not have"),
        ('<Customer _eid="1" ID="1" PARENT=""/>', "does not have"),
        ('<Order ID="1" PARENT=""/>', "missing its _eid"),
        ('<Order _eid="x1" ID="1" PARENT=""/>', "_eid='x1'"),
        ('<Order _eid="1" ID="1" PARENT="zz"/>', "PARENT='zz'"),
    ])
    def test_decode_rejects(self, order_fragment, row, match):
        with pytest.raises(SoapFault, match=match):
            unwrap_fragment_feed(feed_message(row), order_fragment)

    def test_repeated_element_in_a_flat_row(self, customers_schema):
        """A flat row holds one cell per column, so no element can
        repeat in it: a tagged feed that repeats one is no feed of the
        fragment."""
        fragment = Fragment(customers_schema, ["Customer", "CustName"])
        row = (
            '<Customer _eid="1" ID="1" PARENT=""><CustName _eid="2">a'
            '</CustName><CustName _eid="3">b</CustName></Customer>'
        )
        with pytest.raises(SoapFault, match="names columns None"):
            read_fragment_feed(
                feed_message(row, fragment=fragment.name), fragment
            )
