"""Property tests for the tuple feed codec.

A flat fragment's feed crosses the wire as one line of cells per row.
Whatever its cells hold, encoding and then decoding is the identity
(up to the documented normalisation: text stripped, values as ``str``)
on every receiving path — the streaming receiver and the tree/HTTP
path — and every single-byte change in the rows is a ``SoapFault``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SoapFault
from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.net.soap import (
    ESCAPE,
    NULL_CELL,
    SEPARATOR,
    FeedReceipt,
    encode_batch,
    parse_envelope,
    read_fragment_feed,
    read_message,
    unwrap_fragment_feed,
    verify_fragment_feed,
)
from repro.schema.generator import balanced_schema

#: Text and attribute values: the separator, the escape, the text of
#: the ``None`` marker, line ends, markup, quotes, non-ASCII, padding
#: (a tree parser strips whitespace at the ends of an element's text)
#: and whitespace-only values, the empty string.
_values = st.text(
    alphabet=f"ab{SEPARATOR}{ESCAPE}N\n\r&<>\"' é☃\t\u3000", max_size=6,
) | st.sampled_from([
    NULL_CELL, f" {NULL_CELL}", SEPARATOR, ESCAPE, f"{ESCAPE}0041",
    "", " ", " a", "a\t", "\xa0", "&amp;", "]]>",
])
_text_cells = _values | st.integers(0, 99) | st.none()
_attr_cells = st.none() | _values | st.integers(0, 9)


@st.composite
def column_batches(draw):
    """A random flat-storable fragment of a balanced schema with
    declared attributes, and a batch of random rows of it — absent
    optional elements and attributes, padded, whitespace-only and
    non-``str`` text, any ``seq`` — that is sometimes a narrowed view
    of a longer batch."""
    levels, fanout = draw(st.sampled_from([(1, 3), (2, 2), (2, 3)]))
    seed = draw(st.integers(0, 9999))
    schema = balanced_schema(levels, fanout, repeat_prob=0.4, seed=seed)
    rng = random.Random(seed)
    for node in schema.iter_nodes():
        node.attributes = rng.sample(["a", "b", "c"], rng.randint(0, 2))
    names = schema.element_names()
    roots = {names[0]} | {
        node.name for node in schema.iter_nodes()
        if node.cardinality.repeated
    } | set(draw(st.lists(st.sampled_from(names), max_size=3)))
    fragment = draw(st.sampled_from(sorted(
        Fragmentation.from_roots(schema, sorted(roots)),
        key=lambda fragment: fragment.name,
    )))
    layout = layout_of(fragment)
    lead = draw(st.integers(0, 2))
    count = draw(st.integers(0, 3))
    eids = iter(range(1, 10_000))
    rows = []
    for _ in range(lead + count):
        cells: list = [None] * len(layout.specs)
        present = {fragment.root_name}
        for at, spec in enumerate(layout.specs):
            if spec.role == "id":
                cells[at] = next(eids)
            elif spec.role == "parent":
                cells[at] = draw(st.none() | st.integers(0, 99))
            elif spec.role == "eid":
                if schema.parent_name(spec.element) in present \
                        and draw(st.booleans()):
                    present.add(spec.element)
                    cells[at] = next(eids)
            elif spec.element in present:
                cells[at] = draw(
                    _text_cells if spec.role == "text" else _attr_cells
                )
        rows.append(cells)
    columns = [list(column) for column in zip(*rows)] if rows else [
        [] for _ in layout.specs
    ]
    seq = draw(st.none() | st.integers(0, 500))
    if lead:  # a view of rows [lead, lead + count) of wider columns
        return ColumnBatch(fragment, columns, seq, None, lead, lead + count)
    return ColumnBatch(fragment, columns, seq)


def typed(columns):
    """Cells with their types, so that ``"5"`` is not ``5``."""
    return [[(type(cell).__name__, cell) for cell in column]
            for column in columns]


def normalised(batch: ColumnBatch) -> list[list]:
    """What the wire delivers of ``batch``, derived from its cells
    alone: keys as they are, other values as ``str``, text stripped,
    and ``""`` for the text of a present element whose cell is
    ``None``."""
    layout = batch.layout
    columns = [batch.column(spec.name)[:] for spec in layout.specs]
    for position, spec in enumerate(layout.specs):
        cells = columns[position]
        if spec.role == "attr":
            columns[position] = [
                None if cell is None else str(cell) for cell in cells
            ]
        elif spec.role == "text":
            keys = columns[layout.element_cells[spec.element][0]]
            columns[position] = [
                str(cell).strip() if cell is not None
                else None if key is None else ""
                for cell, key in zip(cells, keys)
            ]
    return columns


def rows_text(message: str) -> tuple[int, int]:
    """Where the rows of a feed message start and end."""
    start = message.index(">", message.index("<FragmentFeed")) + 1
    return start, message.rindex("</FragmentFeed>")


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(column_batches())
    def test_identity_through_every_receiver(self, batch):
        expected = typed(normalised(batch))
        message, checksum = encode_batch(batch)
        fragment = batch.fragment
        count = batch.row_count()
        seq = None if batch.seq is None else str(batch.seq)
        # The batch holds what crossed the wire ...
        assert typed(batch.column(spec.name)
                     for spec in batch.layout.specs) == expected
        # ... the streaming receiver decodes exactly that ...
        receipt = read_fragment_feed(message, fragment)
        assert typed(receipt.columns) == expected
        assert receipt == FeedReceipt(
            fragment.name, count, checksum, seq, receipt.columns,
        )
        # ... and so does the tree/HTTP path, whose parser strips the
        # feed's text.
        received = unwrap_fragment_feed(message, fragment)
        assert typed(
            ColumnBatch.from_rows(fragment, received.rows, None).columns
        ) == expected
        payload = parse_envelope(message)
        start, end = rows_text(message) if count else (0, 0)
        assert payload.text == message[start:end]
        assert verify_fragment_feed(payload) == (
            fragment.name, count, checksum,
        )
        # The sink verifies without decoding.
        assert read_message(message) == FeedReceipt(
            fragment.name, count, checksum, seq,
        )
        # Encoding again writes the same message.
        assert encode_batch(batch) == (message, checksum)

    def test_whitespace_at_the_ends_of_the_rows_survives(self,
                                                         auction_schema):
        """The tree parser strips the feed's text: whitespace the last
        cell ends with is written as escapes, whitespace inside the
        text as it is."""
        fragment = Fragment(auction_schema, ["item"])
        layout = layout_of(fragment)
        assert layout.specs[-1].name == "item_featured"
        batch = ColumnBatch(fragment, [
            [3, 5], [2, 2], ["item3", "item4"], ["\u3000no", "yes \t"],
        ], None)
        message, _ = encode_batch(batch)
        assert message.count(f"{ESCAPE}0020{ESCAPE}0009</") == 1
        for received in (
            read_fragment_feed(message, fragment).columns,
            ColumnBatch.from_rows(
                fragment, unwrap_fragment_feed(message, fragment).rows,
                None,
            ).columns,
        ):
            assert received[-1] == ["\u3000no", "yes \t"]


def assert_every_change_faults(message: str, fragment, flips) -> None:
    """Change each byte of the rows by each of ``flips`` (XOR) and hand
    the result to every receiver: each must raise ``SoapFault``."""
    encoded = message.encode("utf-8")
    start, end = (len(message[:at].encode("utf-8"))
                  for at in rows_text(message))
    receivers = (
        read_message,
        lambda text: read_fragment_feed(text, fragment),
        lambda text: unwrap_fragment_feed(text, fragment),
    )
    for position in range(start, end):
        for flip in flips:
            changed = bytearray(encoded)
            changed[position] ^= flip
            try:
                text = changed.decode("utf-8")
            except UnicodeDecodeError:
                continue  # the sink faults on the frame already
            for receive in receivers:
                with pytest.raises(SoapFault):
                    receive(text)


class TestEverySingleByteChangeIsAFault:
    def test_every_flip_of_a_small_feed(self, auction_schema):
        """Exhaustive: every byte of the rows, every XOR."""
        fragment = Fragment(auction_schema, ["item"])
        batch = ColumnBatch(fragment, [
            [3, 5], [2, None], ["i|3", ""], [None, "\\N é"],
        ], 1)
        message, _ = encode_batch(batch)
        assert_every_change_faults(message, fragment, range(1, 256))
