"""The columnar dataplane core: layouts, batches, sizes, converters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch, ColumnLayout, layout_of
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import (
    ElementData,
    FragmentRow,
    row_estimated_size,
    row_feed_size,
)
from repro.core.mapping import derive_mapping
from repro.core.ops.split import Split
from repro.core.program.builder import build_transfer_program
from repro.core.stream import ResidencyMeter, RowBatch
from repro.schema.dtd import parse_dtd
from repro.schema.generator import random_schema
from repro.services.endpoint import RelationalEndpoint
from repro.workloads.docgen import generate_document
from repro.xmlkit.writer import serialize

from tests.integration.test_random_roundtrips import flat_fragmentation


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

    def test_from_row_batch_keeps_seq(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_row_batch(RowBatch(fragment, rows, 7))
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
        view = batch.slice(3, 9)
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
        view = batch.slice(2, 5)
        assert _docs(fragment, view.rows) == _docs(fragment, rows[2:5])

    def test_out_of_range_slice_rejected(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        with pytest.raises(OperationError, match="out of range"):
            batch.slice(0, len(rows) + 1)


class TestSizes:
    """Column-wise accounting must agree with the per-row formulas
    exactly — that is what keeps meters and channels dataplane-blind."""

    def test_estimated_size_matches_row_formula(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        assert batch.estimated_size() == \
            sum(row_estimated_size(row) for row in rows)

    def test_feed_size_matches_row_formula(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        assert batch.feed_size() == \
            sum(row_feed_size(row) for row in rows)

    def test_column_sizes_sum_to_estimated(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        assert (sum(batch.column_sizes().values())
                + 24 * batch.row_count()) == batch.estimated_size()

    def test_slice_sizes_are_slice_local(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        view = batch.slice(0, 4)
        assert view.estimated_size() == \
            sum(row_estimated_size(row) for row in rows[:4])


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

    def test_row_tuples_are_layout_ordered(self, item_rows):
        fragment, rows = item_rows
        batch = ColumnBatch.from_rows(fragment, rows[:3], 0)
        tuples = batch.row_tuples()
        layout = layout_of(fragment)
        assert len(tuples) == 3
        assert all(len(entry) == len(layout.specs) for entry in tuples)
        assert [entry[0] for entry in tuples] == batch.column("id")


def _measured_afresh(batch):
    """The same cells in a batch that inherited nothing."""
    return ColumnBatch(
        batch.fragment,
        [batch.column(spec.name) for spec in batch.layout.specs],
        batch.seq, batch.layout,
    )


def _assert_exact(batch):
    """Whatever ``batch`` inherited agrees with a fresh walk of its
    cells and with the per-row formulas — on it and on its slices."""
    count = batch.row_count()
    for view in (batch, batch.slice(0, count),
                 batch.slice(count // 3, count - count // 4)):
        afresh = _measured_afresh(view)
        assert view.column_sizes() == afresh.column_sizes()
        rows = view.rows
        assert view.estimated_size() == afresh.estimated_size() == \
            sum(row_estimated_size(row) for row in rows)
        assert view.feed_size() == afresh.feed_size() == \
            sum(row_feed_size(row) for row in rows)


def _run_on_columns(program, source, batch_rows):
    """Every Combine/Split output of ``program`` run on column
    batches with a meter (so inputs are measured and outputs inherit);
    returns the produced batches and how many of them inherited."""
    meter = ResidencyMeter()
    values, produced, inherited = {}, [], 0
    for node in program.topological_order():
        inputs = [
            values.pop((edge.producer.op_id, edge.output_index))
            for edge in program.in_edges(node)
        ]
        if node.kind == "scan":
            outputs = [list(source.scan_stream_columnar(
                node.fragment, batch_rows
            ))]
        elif node.kind == "combine":
            outputs = [list(node.apply_column_batches(
                *inputs, meter=meter
            ))]
        elif node.kind == "split":
            outputs = [list(stream) for stream
                       in node.apply_column_batches(*inputs, meter=meter)]
        else:
            continue
        if node.kind != "scan":
            for batches in outputs:
                for batch in batches:
                    inherited += any(
                        batch.known_stats(position) is not None
                        for position in range(len(batch.columns))
                    )
                    produced.append(batch)
        for index, batches in enumerate(outputs):
            values[(node.op_id, index)] = batches
    return produced, inherited


class TestInheritedSizes:
    """Per-column sizes handed on through Combine, Split and slice are
    the sizes a fresh walk would measure."""

    @pytest.mark.parametrize("direction", ["mf-lf", "lf-mf"])
    @pytest.mark.parametrize("batch_rows", [5, 10 ** 9])
    def test_xmark_attributes_and_absent_elements(
            self, auction_mf, auction_lf, auction_document,
            direction, batch_rows):
        source_frag, target_frag = (
            (auction_mf, auction_lf) if direction == "mf-lf"
            else (auction_lf, auction_mf)
        )
        source = RelationalEndpoint("sizes", source_frag)
        source.load_document(auction_document)
        produced, inherited = _run_on_columns(
            build_transfer_program(
                derive_mapping(source_frag, target_frag)
            ),
            source, batch_rows,
        )
        assert produced and inherited == len(produced)
        for batch in produced:
            _assert_exact(batch)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 9999), st.integers(0, 9999),
           st.integers(2, 12), st.sampled_from([1, 3, 10 ** 9]))
    def test_random_pipelines(self, schema_seed, rng_seed, size,
                              batch_rows):
        schema = random_schema(size, seed=schema_seed, repeat_prob=0.4)
        rng = random.Random(rng_seed)
        source_frag = flat_fragmentation(schema, rng, "A")
        target_frag = flat_fragmentation(schema, rng, "B")
        source = RelationalEndpoint("A", source_frag)
        source.load_document(generate_document(schema, seed=rng_seed))
        produced, _ = _run_on_columns(
            build_transfer_program(
                derive_mapping(source_frag, target_frag)
            ),
            source, batch_rows,
        )
        for batch in produced:
            _assert_exact(batch)

    def test_piece_that_drops_rows(self):
        """An optional element: the piece rooted at it keeps only the
        rows where it occurs, its PARENT column takes the key cells of
        an anchor that occurs in every row — and still every inherited
        number is the one a fresh walk measures."""
        schema = parse_dtd(
            "<!ELEMENT r (a)> <!ELEMENT a (b?)> "
            "<!ELEMENT b (c)> <!ELEMENT c (#PCDATA)>"
        )
        whole = Fragment(schema, ["r", "a", "b", "c"], "whole")
        rows = []
        for eid in range(1, 40, 4):
            a = ElementData("a", eid + 1)
            if eid % 3:
                b = a.add_child(ElementData("b", eid + 2))
                b.add_child(ElementData("c", eid + 3, {}, "x" * eid))
            root = ElementData("r", eid)
            root.add_child(a)
            rows.append(FragmentRow(root, None))
        batch = ColumnBatch.from_rows(whole, rows, None)
        batch.estimated_size()  # measured, so the pieces inherit
        split = Split(whole, [
            Fragment(schema, ["r", "a"], "top"),
            Fragment(schema, ["b", "c"], "bottom"),
        ])
        top, bottom = (
            next(stream) for stream
            in split.apply_column_batches([batch])
        )
        assert 0 < bottom.row_count() < top.row_count() == len(rows)
        assert bottom.known_stats(bottom.layout.positions["c"]) \
            is not None
        for piece in (top, bottom):
            _assert_exact(piece)
