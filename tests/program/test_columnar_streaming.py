"""The columnar dataplane end to end: byte-identity against the row
plane, the join kernel against the row combine, orphan and
duplicate-key diagnosis on the kernel and through a run, and the
size-memoization guard."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.mapping import derive_mapping
from repro.core.ops.combine import Combine
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.stream import ResidencyMeter
from repro.net.transport import SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize

from tests.program.rowplane import combine_rows, run_combine, run_on_rows


def _docs(fragment, rows):
    """Rows as exchanged XML documents (ID/PARENT exposed)."""
    return [
        serialize(row.data.to_xml(
            fragment.schema, expose=(row.parent,)
        ))
        for row in rows
    ]


@pytest.fixture(scope="module")
def mf_source(auction_mf, auction_document):
    endpoint = RelationalEndpoint("col-src", auction_mf)
    endpoint.load_document(auction_document)
    return endpoint


@pytest.fixture(scope="module")
def mf_to_lf(auction_mf, auction_lf):
    program = build_transfer_program(
        derive_mapping(auction_mf, auction_lf)
    )
    return program, source_heavy_placement(program)


@pytest.fixture(scope="module")
def lf_to_mf(auction_mf, auction_lf, auction_document):
    source = RelationalEndpoint("col-src-lf", auction_lf)
    source.load_document(auction_document)
    program = build_transfer_program(
        derive_mapping(auction_lf, auction_mf)
    )
    return source, program, source_heavy_placement(program)


def _table_dump(endpoint):
    return {
        layout.table_name: sorted(
            endpoint.db.table(layout.table_name).scan(), key=repr
        )
        for layout in endpoint.mapper.layouts.values()
    }


def _row_reference(mf_source, mf_to_lf, auction_lf):
    program, _ = mf_to_lf
    target = RelationalEndpoint("row-ref", auction_lf)
    run_on_rows(program, mf_source, target)
    return _table_dump(target)


class TestByteIdentity:
    """The columnar dataplane must write the tables the row plane
    writes, for every batch size."""

    @pytest.mark.parametrize("batch_rows", [1, 7, 64, 10 ** 9])
    def test_combine_heavy_exchange(self, mf_source, mf_to_lf,
                                    auction_lf, batch_rows):
        program, placement = mf_to_lf
        expected = _row_reference(mf_source, mf_to_lf, auction_lf)
        target = RelationalEndpoint(
            f"col-tgt-{batch_rows}", auction_lf
        )
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(),
            batch_rows=batch_rows,
        ).run(program, placement)
        assert _table_dump(target) == expected
        assert report.rows_written > 0

    def test_split_heavy_exchange(self, lf_to_mf, auction_mf):
        source, program, placement = lf_to_mf
        row_target = RelationalEndpoint("row-mf", auction_mf)
        run_on_rows(program, source, row_target)
        columnar_target = RelationalEndpoint("col-mf", auction_mf)
        ProgramExecutor(
            source, columnar_target, SimulatedChannel(),
            batch_rows=16,
        ).run(program, placement)
        assert _table_dump(columnar_target) == _table_dump(row_target)


class TestStrategySelection:
    """Document-order feeds line up batch for batch, so every combine
    runs aligned and builds no dict; every timing names the
    representation its operation actually ran on."""

    def test_sorted_feeds_select_aligned(self, mf_source, mf_to_lf,
                                         auction_lf):
        program, placement = mf_to_lf
        metrics = MetricsRegistry()
        target = RelationalEndpoint("col-aligned-sel", auction_lf)
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(),
            batch_rows=64, metrics=metrics,
        ).run(program, placement)
        combines = sum(
            1 for node in program.nodes if node.kind == "combine"
        )
        assert combines == 21  # the Figure 9 MF->LF shape
        assert metrics.counter("join.strategy.aligned").value == combines
        assert metrics.counter("join.build_rows").value > 0
        assert metrics.counter("join.probe_rows").value > 0
        # The time split: one observation per join and phase, no dict
        # behind an aligned join.
        for phase in ("build", "probe"):
            seconds = metrics.histogram(f"join.{phase}_seconds")
            assert seconds.count == combines and seconds.total > 0
        assert metrics.counter("join.hash_table_rows").value == 0
        strategies = {
            timing.strategy for timing in report.op_timings
            if timing.kind == "combine"
        }
        assert strategies == {"aligned"}

    def test_non_combine_ops_report_columnar(self, mf_source, mf_to_lf,
                                             auction_lf):
        program, placement = mf_to_lf
        target = RelationalEndpoint("col-strat", auction_lf)
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(), batch_rows=64,
        ).run(program, placement)
        for timing in report.op_timings:
            if timing.kind in ("scan", "write"):
                assert timing.strategy == "columnar"

    def test_part_streams_report_columnar(self, customers_s,
                                          customers_t,
                                          customer_documents):
        """A fragment that does not flatten runs as its flat parts, so
        its operations report ``columnar`` too (a join its strategy):
        no operation reports a row dataplane any more."""
        source = InMemoryEndpoint("sales")
        for instance in fragment_customers(
            customer_documents, customers_s
        ).values():
            source.put(instance)
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        report = ProgramExecutor(
            source, InMemoryEndpoint("provisioning"), batch_rows=2,
        ).run(program, source_heavy_placement(program))
        fragments = {
            node.op_id: node.inputs + node.outputs
            for node in program.nodes
        }
        assert {t.strategy for t in report.op_timings} == {
            "columnar", "aligned",
        }
        assert any(
            not fragment.is_flat_storable()
            for timing in report.op_timings
            if timing.strategy == "columnar"
            for fragment in fragments[timing.op_id]
        )


def _service_combine(schema):
    order = Fragment(schema, ["Order"], "Order")
    service = Fragment(
        schema, ["Service", "ServiceName"], "Service"
    )
    return Combine(order, service), order, service


def _order_row(eid, parent):
    return FragmentRow(ElementData("Order", eid), parent)


def _service_row(eid, parent, name="local"):
    data = ElementData("Service", eid)
    data.add_child(ElementData("ServiceName", eid + 1, {}, name))
    return FragmentRow(data, parent)


class TestJoinUnit:
    """apply_column_batches against the materialized combine."""

    @pytest.fixture
    def parts(self, customers_schema):
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(eid, 1) for eid in (10, 20, 30, 40)]
        children = [
            _service_row(100 + 10 * index, eid, f"svc-{eid}")
            for index, eid in enumerate((10, 20, 30, 40))
        ]
        return combine, order, service, parents, children

    @staticmethod
    def _run(combine, order, service, parents, children,
             batch_rows=2, observe=None):
        def batches(fragment, rows):
            return (
                ColumnBatch.from_rows(
                    fragment, rows[start:start + batch_rows], seq
                )
                for seq, start in enumerate(
                    range(0, len(rows), batch_rows)
                )
            )

        def observed(join):
            observe((join.strategy, join.build_rows, join.probe_rows))

        out = list(combine.apply_column_batches(
            batches(order, parents), batches(service, children),
            observe=observed if observe else None,
        ))
        return _docs(
            combine.result,
            [row for batch in out for row in batch.rows],
        )

    @staticmethod
    def _materialized(combine, order, service, parents, children):
        result = combine_rows(
            combine,
            FragmentInstance(order, parents).copy(),
            FragmentInstance(service, children).copy(),
        )
        return _docs(combine.result, result.rows)

    def test_sorted_children_align(self, parts):
        combine, order, service, parents, children = parts
        observed = []
        got = self._run(combine, order, service, parents, children,
                        observe=observed.append)
        assert got == self._materialized(
            combine, order, service, parents, children
        )
        assert observed == [("aligned", 4, 4)]

    def test_shuffled_children_use_hash(self, parts):
        combine, order, service, parents, children = parts
        shuffled = list(children)
        random.Random(5).shuffle(shuffled)
        assert [r.parent for r in shuffled] != \
            [r.parent for r in children]
        observed = []
        got = self._run(combine, order, service, parents, shuffled,
                        observe=observed.append)
        assert got == self._materialized(
            combine, order, service, parents, children
        )
        assert observed == [("hash", 4, 4)]


def _order_with_service(eid, service_eid):
    """An Order row whose Service (no name) is ``service_eid``, or
    absent when that is ``None``."""
    data = ElementData("Order", eid)
    if service_eid is not None:
        data.add_child(ElementData("Service", service_eid))
    return FragmentRow(data, 1)


def _service_name_row(eid, parent):
    return FragmentRow(
        ElementData("ServiceName", eid, {}, f"name-{eid}"), parent
    )


def _lines_up(anchors, child_keys):
    """Whether every parent batch lines up with the next run of the
    child's PARENT keys, whatever the batch sizes: the anchors, none
    absent, are the child keys' prefix."""
    return None not in anchors and anchors == child_keys[:len(anchors)]


class TestMergeWalk:
    """The probe walks the child's PARENT keys with one cursor, a run
    per parent batch, and looks up through the dict where a batch
    does not line up; it must answer exactly as the hash join whatever
    order the probe keys come in — ascending, going backwards
    mid-batch, or NULL (an absent anchor)."""

    @pytest.fixture
    def combine(self, customers_schema):
        order = Fragment(customers_schema, ["Order", "Service"], "Order")
        name = Fragment(customers_schema, ["ServiceName"], "ServiceName")
        return Combine(order, name), order, name

    @staticmethod
    def _outcome(combine, parents, children, batch_rows=3):
        """The combined documents or the error text, and the strategy
        the join reports."""
        combine, order, name = combine
        strategies = []
        try:
            out = TestJoinUnit._run(
                combine, order, name, parents, children,
                batch_rows=batch_rows, observe=strategies.append,
            )
        except OperationError as exc:
            out = str(exc)
        return out, [strategy for strategy, _, _ in strategies]

    def _same_as_hash(self, combine, parents, children):
        """The kernel's answer on ``children``, checked against its
        answer on them reversed (another key order, so another path
        through the walk and the dict), and each run's strategy
        against the alignment rule."""
        _, order, name = combine
        anchors = ColumnBatch.from_rows(order, parents, 0).column(
            "service_eid"
        )
        for batch_rows in (1, 3, 100):
            runs = [
                (self._outcome(combine, parents, ordered, batch_rows),
                 ColumnBatch.from_rows(name, ordered, 0).column("parent"))
                for ordered in (children, children[::-1])
            ]
            (walked, _), _ = runs[0]
            (hashed, _), _ = runs[1]
            assert walked == hashed
            for (_, strategy), keys in runs:
                assert strategy in ([], [
                    "aligned" if _lines_up(anchors, keys) else "hash"
                ])
        return walked

    def test_sorted_probes(self, combine):
        parents = [_order_with_service(10 * n, 10 * n + 1)
                   for n in range(1, 7)]
        children = [_service_name_row(10 * n + 2, 10 * n + 1)
                    for n in range(1, 7) if n != 4]
        joined = self._same_as_hash(combine, parents, children)
        assert len(joined) == 6

    def test_probe_going_backwards_mid_batch(self, combine):
        anchors = [41, 11, 51, 21, 61, 31, 71]
        parents = [_order_with_service(10 * n, anchor)
                   for n, anchor in enumerate(anchors, 1)]
        children = [_service_name_row(anchor + 1, anchor)
                    for anchor in sorted(anchors)]
        joined = self._same_as_hash(combine, parents, children)
        assert all("ServiceName" in document for document in joined)

    def test_null_anchors(self, combine):
        anchors = [None, 11, None, 21, 31, None]
        parents = [_order_with_service(10 * n, anchor)
                   for n, anchor in enumerate(anchors, 1)]
        children = [_service_name_row(anchor + 1, anchor)
                    for anchor in (11, 21, 31)]
        joined = self._same_as_hash(combine, parents, children)
        assert sum("ServiceName" in document for document in joined) == 3

    def test_errors_match_the_hash_join(self, combine):
        parents = [_order_with_service(10, 11), _order_with_service(20, None),
                   _order_with_service(30, 31)]
        orphans = [_service_name_row(12, 11), _service_name_row(99, 77),
                   _service_name_row(32, 31), _service_name_row(98, None)]
        message = self._same_as_hash(combine, parents, orphans)
        assert "orphaned PARENT" in message
        duplicated = [_service_name_row(12, 11), _service_name_row(13, 11)]
        message = self._same_as_hash(combine, parents, duplicated)
        assert "PARENT key 11 appears on 2 child rows" in message

    def test_residency_matches_the_row_kernel(self, combine):
        # Inlined child rows are released as the row kernel's grouped
        # merge released them — (5 resident, peak 10) on this input —
        # counted off the matches instead of per tree.
        combine, order, name = combine
        anchors = [None, 11, 21, None, 31]
        parents = [_order_with_service(10 * n, anchor)
                   for n, anchor in enumerate(anchors, 1)]
        children = [_service_name_row(anchor + 1, anchor)
                    for anchor in (11, 21, 31)]
        meter = ResidencyMeter()
        meter.acquire(len(parents) + len(children))
        list(combine.apply_column_batches(
            (ColumnBatch.from_rows(order, parents[at:at + 2], at)
             for at in range(0, len(parents), 2)),
            [ColumnBatch.from_rows(name, children, 0)],
            meter=meter,
        ))
        assert (meter.rows, meter.peak_rows) == (len(parents), 10)


#: Batch sizes of the property test; ``None`` is one unbounded batch.
_BATCH_ROWS = [1, 3, 7, None]


def _batches(fragment, rows, batch_rows):
    if batch_rows is None:
        return [ColumnBatch.from_rows(fragment, rows, None)]
    return [
        ColumnBatch.from_rows(fragment, rows[at:at + batch_rows], seq)
        for seq, at in enumerate(range(0, len(rows), batch_rows))
    ]


@st.composite
def _join_inputs(draw):
    """Parent anchors and child PARENT keys, and a batch size per
    side.  The anchors ascend.  Half the inputs line up: the children
    carry the anchors' keys in their order, then perhaps orphans.  In
    the other half the anchors have absent (NULL) ones among them and
    perhaps one window shuffled; the children follow them sorted,
    shuffled, or sorted with gaps, with orphans (NULL PARENTs, keys no
    anchor has, negative ones among them) anywhere and perhaps a
    repeated key."""
    keys = sorted(draw(st.lists(st.integers(-20, 40), unique=True,
                                max_size=10)))
    orphans = st.lists(st.one_of(st.none(), st.integers(-20, 40).filter(
        lambda key: key not in keys)), max_size=2)
    if draw(st.booleans()):
        return (keys, keys + draw(orphans),
                draw(st.sampled_from(_BATCH_ROWS)),
                draw(st.sampled_from(_BATCH_ROWS)))
    anchors = list(keys)
    for _ in range(draw(st.integers(0, 3))):
        anchors.insert(draw(st.integers(0, len(anchors))), None)
    if anchors and draw(st.booleans()):
        start = draw(st.integers(0, len(anchors) - 1))
        stop = draw(st.integers(start + 1, len(anchors)))
        anchors[start:stop] = draw(st.permutations(anchors[start:stop]))
    order = draw(st.sampled_from(["sorted", "shuffled", "gaps"]))
    if order == "shuffled":
        child_keys = draw(st.permutations(keys))
    elif order == "gaps":
        child_keys = [key for key in keys if draw(st.booleans())]
    else:
        child_keys = list(keys)
    for key in draw(orphans):
        child_keys.insert(draw(st.integers(0, len(child_keys))), key)
    if child_keys and draw(st.integers(0, 3)) == 0:
        child_keys.insert(draw(st.integers(0, len(child_keys))),
                          draw(st.sampled_from(child_keys)))
    return (anchors, child_keys, draw(st.sampled_from(_BATCH_ROWS)),
            draw(st.sampled_from(_BATCH_ROWS)))


class TestKernelAgainstRows:
    """The kernel against the row combine on generated inputs: the
    same output, the same duplicate and orphan errors, the residency
    the matches imply, ``aligned`` exactly when every batch lined up,
    and its input batches left as they came."""

    @settings(max_examples=300, deadline=None)
    @given(_join_inputs())
    def test_same_as_the_row_combine(self, customers_schema, inputs):
        anchors, child_keys, parent_rows, child_rows = inputs
        order = Fragment(customers_schema, ["Order", "Service"], "Order")
        name = Fragment(customers_schema, ["ServiceName"], "ServiceName")
        combine = Combine(order, name)
        parents = [_order_with_service(1000 + 10 * n, anchor)
                   for n, anchor in enumerate(anchors)]
        children = [_service_name_row(2000 + n, key)
                    for n, key in enumerate(child_keys)]
        parent_batches = _batches(order, parents, parent_rows)
        child_batches = _batches(name, children, child_rows)
        given_columns = [[list(cells) for cells in batch.columns]
                         for batch in parent_batches + child_batches]

        meter = ResidencyMeter()
        meter.acquire(len(parents) + len(children))
        joins, out, error = [], [], None
        try:
            for batch in combine.apply_column_batches(
                    iter(parent_batches), iter(child_batches),
                    meter=meter, observe=joins.append):
                out.append(batch)
        except OperationError as exc:
            error = str(exc)
        assert [batch.columns for batch in
                parent_batches + child_batches] == given_columns
        assert all(len(cells) == len(batch)
                   for batch in out for cells in batch.columns)

        real = [key for key in child_keys if key is not None]
        if len(set(real)) < len(real):
            # Raised after the build, before any output.
            found = re.fullmatch(
                r"combine\('Order', 'ServiceName'\): PARENT key (-?\d+) "
                r"appears on (\d+) child rows, but 'ServiceName' is not "
                r"repeated under 'Service'", error or "",
            )
            assert found, error
            assert real.count(int(found[1])) == int(found[2]) > 1
            assert out == [] and joins == []
            assert meter.rows == meter.peak_rows == len(parents) + len(
                children)
            return

        try:
            expected = TestJoinUnit._materialized(
                combine, order, name, parents, children
            )
        except OperationError as exc:
            assert error == str(exc)  # raised at end of stream
            assert sum(map(len, out)) == len(parents)
        else:
            assert error is None
            assert _docs(combine.result,
                         [row for batch in out for row in batch.rows]) \
                == expected

        (join,) = joins
        aligned = _lines_up(anchors, child_keys)
        assert join.strategy == ("aligned" if aligned else "hash")
        assert join.hash_table_rows == (0 if aligned
                                        else len(set(child_keys)))
        resident = peak = len(parents) + len(children)
        for batch in parent_batches:
            rows = len(batch)
            matched = sum(anchor in real
                          for anchor in batch.column("service_eid"))
            resident += rows
            peak = max(peak, resident)
            resident -= rows + matched
        assert (meter.rows, meter.peak_rows) == (resident, peak)


class TestOrphanAccounting:
    """Orphaned PARENT keys must be listed, identically across the
    materialized, row-streaming and columnar paths; a duplicated key
    is diagnosed as what it is, whichever way the children arrive."""

    @pytest.fixture
    def orphans(self, customers_schema):
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(10, 1), _order_row(20, 1)]
        children = [
            _service_row(100, 10),
            _service_row(110, 777),   # no Order 777 exists
            _service_row(120, 999),   # nor 999
        ]
        return combine, order, service, parents, children

    def test_columnar_lists_orphan_keys(self, orphans):
        combine, order, service, parents, children = orphans
        with pytest.raises(OperationError) as failure:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        message = str(failure.value)
        assert "777" in message and "999" in message
        assert "missing parents" in message

    def test_matches_materialized_message(self, orphans):
        combine, order, service, parents, children = orphans
        with pytest.raises(OperationError) as materialized:
            combine_rows(
                combine,
                FragmentInstance(order, parents).copy(),
                FragmentInstance(service, children).copy(),
            )
        with pytest.raises(OperationError) as columnar:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        assert str(columnar.value) == str(materialized.value)

    def test_row_streaming_matches_too(self, orphans):
        """A batched run reports the kernel's message."""
        combine, order, service, parents, children = orphans
        with pytest.raises(OperationError) as columnar:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        with pytest.raises(OperationError) as streaming:
            run_combine(
                combine, FragmentInstance(order, parents),
                FragmentInstance(service, children), batch_rows=2,
            )
        assert str(streaming.value) == str(columnar.value)

    def test_null_parent_distinct_from_negative_eid(
            self, customers_schema):
        # Regression: the columnar build side normalized PARENT=None to
        # a -1 sentinel, so a NULL-parent orphan was indistinguishable
        # from (and collided with) an orphan referencing a real eid -1.
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(10, 1)]
        children = [
            _service_row(100, 10),
            _service_row(110, None),
            _service_row(120, -1),
        ]
        with pytest.raises(OperationError) as columnar:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        message = str(columnar.value)
        assert "None" in message and "-1" in message
        with pytest.raises(OperationError) as materialized:
            combine_rows(
                combine,
                FragmentInstance(order, parents).copy(),
                FragmentInstance(service, children).copy(),
            )
        assert message == str(materialized.value)

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["sorted", "reversed"])
    def test_duplicate_parent_key_is_not_an_orphan(
            self, customers_schema, reverse):
        # Regression: two Service rows under Order 10 left one build
        # row unmatched (a dict keeps the last index, a walk finds the
        # first) and were reported as "1 orphaned PARENT key(s)
        # reference missing parents: [10]" although Order 10 exists.
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(10, 1), _order_row(20, 1)]
        children = [
            _service_row(100, 10),
            _service_row(110, 10),
            _service_row(120, 20),
        ]
        if reverse:
            children.reverse()
        with pytest.raises(OperationError) as failure:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        message = str(failure.value)
        assert "PARENT key 10 appears on 2 child rows" in message
        assert "'Service' is not repeated under 'Order'" in message
        assert "orphan" not in message

    def test_duplicate_found_among_shuffled_children(
            self, customers_schema):
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(eid, 1) for eid in (10, 20, 30)]
        children = [
            _service_row(100, 30),
            _service_row(110, 10),
            _service_row(120, 20),
            _service_row(130, 10),
        ]
        with pytest.raises(OperationError,
                           match="PARENT key 10 appears on 2"):
            TestJoinUnit._run(
                combine, order, service, parents, children
            )

    def test_two_parentless_children_stay_orphans(
            self, customers_schema):
        # NULL never matches an anchor, so two NULL-parent rows are
        # two orphans, not one duplicated key.
        combine, order, service = _service_combine(customers_schema)
        children = [_service_row(100, None), _service_row(110, None)]
        with pytest.raises(OperationError, match="orphaned PARENT"):
            TestJoinUnit._run(
                combine, order, service, [_order_row(10, 1)], children
            )

    def test_many_orphans_truncate(self, customers_schema):
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(10, 1)]
        children = [_service_row(100, 10)] + [
            _service_row(200 + 10 * index, 1000 + index)
            for index in range(15)
        ]
        with pytest.raises(OperationError) as failure:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        message = str(failure.value)
        assert "15 orphaned PARENT key(s)" in message
        assert "... (5 more)" in message


class TestSizeMemoization:
    """A batch memoizes its wire size: asking twice for the size of
    one batch must not re-walk the rows."""

    def test_feed_size_computed_once(self, customers_schema,
                                     monkeypatch):
        rows = [_order_row(eid, 1) for eid in (10, 20)]
        fragment = Fragment(customers_schema, ["Order"], "Order")
        batch = ColumnBatch.from_rows(fragment, rows, 0)
        calls = {"n": 0}
        real = ColumnBatch._cells

        def counting(self, position):
            calls["n"] += 1
            return real(self, position)

        monkeypatch.setattr(ColumnBatch, "_cells", counting)
        assert batch.feed_size() == batch.feed_size()
        # One pass over the columns a size is read off (not PARENT).
        assert calls["n"] == len(batch.layout.specs) - 1

    def test_columnar_batches_memoize_too(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"], "Order")
        batch = ColumnBatch.from_rows(
            fragment, [_order_row(10, 1)], 0
        )
        assert batch.feed_size() is batch.feed_size()
