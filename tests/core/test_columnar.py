"""The columnar dataplane core: layouts, batches, sizes, converters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch, ColumnLayout, layout_of
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import row_feed_size
from repro.schema.dtd import parse_dtd
from repro.services.endpoint import RelationalEndpoint
from repro.xmlkit.writer import serialize


def _view(batch, start, stop):
    """Rows ``[start, stop)`` of ``batch``, sharing its columns."""
    return ColumnBatch(batch.fragment, batch.columns, batch.seq,
                       batch.layout, batch.start + start,
                       batch.start + stop)


def _docs(fragment, rows):
    """Rows as exchanged XML documents (ID/PARENT exposed)."""
    return [
        serialize(row.data.to_xml(
            fragment.schema, expose=(row.parent,)
        ))
        for row in rows
    ]


@pytest.fixture(scope="module")
def mf_endpoint(auction_mf, auction_document):
    endpoint = RelationalEndpoint("columnar-src", auction_mf)
    endpoint.load_document(auction_document)
    return endpoint


@pytest.fixture(scope="module")
def item_rows(mf_endpoint, auction_mf):
    fragment = next(
        fragment for fragment in auction_mf
        if fragment.root_name == "item"
    )
    instance = mf_endpoint.scan(fragment)
    assert len(instance.rows) > 10
    return fragment, instance.rows


class TestColumnLayout:
    def test_id_and_parent_lead(self, auction_mf):
        for fragment in auction_mf:
            layout = layout_of(fragment)
            assert layout.specs[0].name == "id"
            assert layout.specs[0].role == "id"
            assert layout.specs[1].name == "parent"
            assert layout.specs[1].role == "parent"

    def test_positions_match_specs(self, auction_mf):
        layout = layout_of(next(iter(auction_mf)))
        for index, spec in enumerate(layout.specs):
            assert layout.positions[spec.name] == index

    def test_eid_column_of_root_is_id(self, auction_mf):
        for fragment in auction_mf:
            layout = layout_of(fragment)
            assert layout.eid_column(fragment.root_name) == "id"

    def test_layouts_are_cached(self, auction_mf):
        fragment = next(iter(auction_mf))
        assert layout_of(fragment) is layout_of(fragment)

    def test_non_flat_fragment_rejected(self, auction_schema):
        whole = Fragmentation.whole_document(auction_schema)
        with pytest.raises(OperationError, match="flat"):
            ColumnLayout(whole.root_fragment())

    def test_matches_relational_table_layout(self, mf_endpoint,
                                             auction_mf):
        """The dataplane layout IS the table layout: same specs in the
        same order (what makes columnar scan/write straight slices)."""
        for fragment in auction_mf:
            table_layout = mf_endpoint.mapper.layout_for(fragment)
            assert [
                (s.name, s.role, s.element, s.attribute)
                for s in layout_of(fragment).specs
            ] == [
                (s.name, s.role, s.element, s.attribute)
                for s in table_layout.specs
            ]


class TestRoundTrip:
    def test_rows_survive_the_columnar_round_trip(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        rebuilt = batch.rows
        assert [row.parent for row in rebuilt] == \
            [row.parent for row in rows]
        assert _docs(fragment, rebuilt) == _docs(fragment, rows)

    def test_from_rows_keeps_seq(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 7)
        assert batch.seq == 7
        assert batch.row_count() == len(rows)

    def test_null_id_rejected(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows[:2], 0)
        batch.columns[0][0] = None
        with pytest.raises(OperationError, match="NULL id"):
            _ = batch.rows

    def test_width_mismatch_rejected(self, item_rows):
        fragment, _ = item_rows
        with pytest.raises(OperationError, match="columns"):
            ColumnBatch(fragment, [[1], [None]], 0)


class TestSlicing:
    def test_slice_is_zero_copy(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        view = _view(batch, 3, 9)
        assert view.columns is batch.columns
        assert view.row_count() == 6
        assert view.column("id") == batch.column("id")[3:9]

    def test_full_range_column_is_shared(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        assert batch.column("id") is batch.columns[0]

    def test_slice_rows_match(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        view = _view(batch, 2, 5)
        assert _docs(fragment, view.rows) == _docs(fragment, rows[2:5])


#: A flat fragment with a text leaf under the root, an optional
#: non-leaf element holding an optional leaf, and attributes on a
#: leaf and on inner elements.
_SIZED_SCHEMA = parse_dtd(
    "<!ELEMENT r (a, b?)> <!ATTLIST r k CDATA #IMPLIED>"
    "<!ELEMENT a (#PCDATA)> <!ATTLIST a x CDATA #IMPLIED>"
    "<!ELEMENT b (c?, d)> <!ATTLIST b y CDATA #IMPLIED>"
    "<!ELEMENT c (#PCDATA)> <!ELEMENT d (#PCDATA)>"
)
_SIZED = Fragment(_SIZED_SCHEMA, ["r", "a", "b", "c", "d"], "sized")

_TEXT_CELLS = st.one_of(st.none(), st.just(""), st.text(max_size=6))
# A truthy non-``str`` attribute cell measures through the ``str()``
# fallback.
_ATTR_CELLS = st.one_of(_TEXT_CELLS, st.integers(min_value=1))


@st.composite
def flat_batches(draw):
    """A column batch of ``_SIZED`` under the cell invariant: an
    absent element (and every element under it) has ``None`` in every
    cell; a present one holds text, ``""``, ``None`` or any attribute
    value."""
    layout = layout_of(_SIZED)
    schema = _SIZED_SCHEMA
    columns = [[] for _ in layout.specs]
    for number in range(draw(st.integers(0, 12))):
        present = {}
        for node in schema.iter_nodes():
            parent = schema.parent_name(node.name)
            present[node.name] = parent is None or (
                present[parent] and draw(st.booleans())
            )
        for position, spec in enumerate(layout.specs):
            if spec.role == "parent":
                cell = draw(st.one_of(st.none(), st.integers(0, 99)))
            elif not present[spec.element]:
                cell = None
            elif spec.role in ("id", "eid"):
                cell = 10 * number + position
            else:
                cell = draw(_TEXT_CELLS if spec.role == "text"
                            else _ATTR_CELLS)
            columns[position].append(cell)
    return ColumnBatch(_SIZED, columns, None, layout)


class TestSizes:
    """Column-wise measurement must agree with the per-row formula
    exactly — that is what keeps channels dataplane-blind."""

    @settings(max_examples=150, deadline=None)
    @given(flat_batches(), st.data())
    def test_random_batches_and_slices(self, batch, data):
        count = batch.row_count()
        start = data.draw(st.integers(0, count))
        stop = data.draw(st.integers(start, count))
        for view in (batch, _view(batch, start, stop)):
            assert view.feed_size() == \
                sum(row_feed_size(row) for row in view.rows)

    def test_feed_size_matches_row_formula(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        assert batch.feed_size() == \
            sum(row_feed_size(row) for row in rows)

    def test_slice_sizes_are_slice_local(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        view = _view(batch, 0, 4)
        assert view.feed_size() == \
            sum(row_feed_size(row) for row in rows[:4])


class TestColumnarScan:
    def test_scan_columns_match_scan_rows(self, mf_endpoint,
                                          auction_mf):
        """The native columnar scan and the tree-building row scan
        must normalize to identical cells for every fragment."""
        for fragment in auction_mf:
            via_rows = ColumnBatch.from_rows(
                fragment, mf_endpoint.scan(fragment).rows, 0
            )
            columnar = list(mf_endpoint.mapper.scan_fragment_columns(
                mf_endpoint.db, fragment, batch_rows=10 ** 9
            ))
            assert len(columnar) == 1
            assert columnar[0].columns == via_rows.columns
