"""The columnar dataplane end to end: byte-identity against the row
plane, join strategies, orphan and duplicate-key diagnosis, and the
size-memoization guard."""

import random

import pytest

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.mapping import derive_mapping
from repro.core.ops.combine import Combine
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.net.transport import SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize

from tests.program.rowplane import combine_rows, run_on_rows


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
    writes, for every batch size and both pinned join strategies."""

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

    @pytest.mark.parametrize("join_strategy", ["hash", "merge"])
    @pytest.mark.parametrize("batch_rows", [1, 7, 64, 10 ** 9])
    def test_forced_strategies(self, mf_source, mf_to_lf, auction_lf,
                               join_strategy, batch_rows,
                               monkeypatch):
        program, placement = mf_to_lf
        expected = _row_reference(mf_source, mf_to_lf, auction_lf)
        target = RelationalEndpoint(
            f"col-{join_strategy}-{batch_rows}", auction_lf
        )
        # The executor never pins a strategy (selection from observed
        # feed order is the behaviour); pin it under the executor.
        join = Combine.apply_column_batches
        monkeypatch.setattr(
            Combine, "apply_column_batches",
            lambda self, *streams, **hooks: join(
                self, *streams, force=join_strategy, **hooks
            ),
        )
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(),
            batch_rows=batch_rows,
        ).run(program, placement)
        assert {
            timing.strategy for timing in report.op_timings
            if timing.kind == "combine"
        } == {join_strategy}
        assert _table_dump(target) == expected

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
    """Document-order feeds must auto-select the merge join, shuffled
    feeds the hash join; every timing names the representation its
    operation actually ran on."""

    def test_sorted_feeds_select_merge(self, mf_source, mf_to_lf,
                                       auction_lf):
        program, placement = mf_to_lf
        metrics = MetricsRegistry()
        target = RelationalEndpoint("col-merge-sel", auction_lf)
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(),
            batch_rows=64, metrics=metrics,
        ).run(program, placement)
        combines = sum(
            1 for node in program.nodes if node.kind == "combine"
        )
        assert combines == 21  # the Figure 9 MF->LF shape
        assert metrics.counter("join.strategy.merge").value == combines
        assert metrics.counter("join.build_rows").value > 0
        assert metrics.counter("join.probe_rows").value > 0
        # The time split: one observation per join and phase, no hash
        # table behind a merge join.
        for phase in ("build", "probe"):
            seconds = metrics.histogram(f"join.{phase}_seconds")
            assert seconds.count == combines and seconds.total > 0
        assert metrics.counter("join.hash_table_rows").value == 0
        strategies = {
            timing.strategy for timing in report.op_timings
            if timing.kind == "combine"
        }
        assert strategies == {"merge"}

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

    def test_row_dataplane_reports_row(self, customers_s, customers_t,
                                       customer_documents):
        """A non-flat stream reports ``row``, a flat one never does:
        the label is read off the operation's fragments."""
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
        assert {t.strategy for t in report.op_timings} >= {
            "row", "columnar", "merge",
        }
        for timing in report.op_timings:
            flat = all(fragment.is_flat_storable()
                       for fragment in fragments[timing.op_id])
            assert (timing.strategy == "row") == (not flat), \
                timing.label


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
             batch_rows=2, observe=None, force=None):
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
            observe=observed if observe else None, force=force,
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

    def test_sorted_children_use_merge(self, parts):
        combine, order, service, parents, children = parts
        observed = []
        got = self._run(combine, order, service, parents, children,
                        observe=observed.append)
        assert got == self._materialized(
            combine, order, service, parents, children
        )
        assert observed == [("merge", 4, 4)]

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

    def test_forced_merge_over_shuffled_children(self, parts):
        combine, order, service, parents, children = parts
        shuffled = list(children)
        random.Random(5).shuffle(shuffled)
        observed = []
        got = self._run(combine, order, service, parents, shuffled,
                        observe=observed.append, force="merge")
        assert got == self._materialized(
            combine, order, service, parents, children
        )
        assert observed == [("merge", 4, 4)]

    def test_unknown_strategy_rejected(self, parts):
        combine, order, service, parents, children = parts
        with pytest.raises(OperationError, match="join strategy"):
            self._run(combine, order, service, parents, children,
                      force="nested-loop")


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


class TestMergeWalk:
    """The merge join walks sorted build keys with one cursor; it must
    answer exactly as the hash join whatever order the probe keys come
    in — ascending, going backwards mid-batch, or NULL (an absent
    anchor)."""

    @pytest.fixture
    def combine(self, customers_schema):
        order = Fragment(customers_schema, ["Order", "Service"], "Order")
        name = Fragment(customers_schema, ["ServiceName"], "ServiceName")
        return Combine(order, name), order, name

    @staticmethod
    def _outcome(combine, parents, children, force, batch_rows=3):
        """The combined documents or the error text, and the strategy
        the join reports."""
        combine, order, name = combine
        strategies = []
        try:
            out = TestJoinUnit._run(
                combine, order, name, parents, children,
                batch_rows=batch_rows, observe=strategies.append,
                force=force,
            )
        except OperationError as exc:
            out = str(exc)
        return out, [strategy for strategy, _, _ in strategies]

    def _same_as_hash(self, combine, parents, children):
        for batch_rows in (1, 3, 100):
            merged, strategy = self._outcome(
                combine, parents, children, "merge", batch_rows
            )
            hashed, _ = self._outcome(
                combine, parents, children, "hash", batch_rows
            )
            assert merged == hashed
            assert strategy in ([], ["merge"])
        return merged

    def test_sorted_probes(self, combine):
        parents = [_order_with_service(10 * n, 10 * n + 1)
                   for n in range(1, 7)]
        children = [_service_name_row(10 * n + 2, 10 * n + 1)
                    for n in range(1, 7) if n != 4]
        merged = self._same_as_hash(combine, parents, children)
        assert len(merged) == 6

    def test_probe_going_backwards_mid_batch(self, combine):
        anchors = [41, 11, 51, 21, 61, 31, 71]
        parents = [_order_with_service(10 * n, anchor)
                   for n, anchor in enumerate(anchors, 1)]
        children = [_service_name_row(anchor + 1, anchor)
                    for anchor in sorted(anchors)]
        merged = self._same_as_hash(combine, parents, children)
        assert all("ServiceName" in document for document in merged)

    def test_null_anchors(self, combine):
        anchors = [None, 11, None, 21, 31, None]
        parents = [_order_with_service(10 * n, anchor)
                   for n, anchor in enumerate(anchors, 1)]
        children = [_service_name_row(anchor + 1, anchor)
                    for anchor in (11, 21, 31)]
        merged = self._same_as_hash(combine, parents, children)
        assert sum("ServiceName" in document for document in merged) == 3

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
        # Inlined child rows are released as the row kernel releases
        # them, counted off the matches instead of per tree.
        from repro.core.stream import FragmentStream, ResidencyMeter

        combine, order, name = combine
        anchors = [None, 11, 21, None, 31]
        parents = [_order_with_service(10 * n, anchor)
                   for n, anchor in enumerate(anchors, 1)]
        children = [_service_name_row(anchor + 1, anchor)
                    for anchor in (11, 21, 31)]
        meters = []
        for columnar in (False, True):
            meter = ResidencyMeter()
            meter.acquire(len(parents) + len(children))
            if columnar:
                list(combine.apply_column_batches(
                    (ColumnBatch.from_rows(order, parents[at:at + 2], at)
                     for at in range(0, len(parents), 2)),
                    [ColumnBatch.from_rows(name, children, 0)],
                    meter=meter,
                ))
            else:
                list(combine.apply_batches(
                    FragmentStream.from_instance(
                        FragmentInstance(order, parents).copy(), 2
                    ),
                    FragmentStream.from_instance(
                        FragmentInstance(name, children).copy(), 2
                    ),
                    meter=meter,
                ))
            meters.append((meter.rows, meter.peak_rows))
        assert meters[0] == meters[1]
        assert meters[1][0] == len(parents)


class TestOrphanAccounting:
    """Orphaned PARENT keys must be listed, identically across the
    materialized, row-streaming and columnar paths; a duplicated key
    is diagnosed as what it is, under both join strategies."""

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
        combine, order, service, parents, children = orphans
        from repro.core.stream import FragmentStream

        with pytest.raises(OperationError) as columnar:
            TestJoinUnit._run(
                combine, order, service, parents, children
            )
        with pytest.raises(OperationError) as streaming:
            list(combine.apply_batches(
                FragmentStream.from_instance(
                    FragmentInstance(order, parents).copy(), 2
                ),
                FragmentStream.from_instance(
                    FragmentInstance(service, children).copy(), 2
                ),
            ))
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

    @pytest.mark.parametrize("force", ["merge", "hash", None])
    def test_duplicate_parent_key_is_not_an_orphan(
            self, customers_schema, force):
        # Regression: two Service rows under Order 10 left one build
        # row unmatched (hash keeps the last index, merge finds the
        # first) and were reported as "1 orphaned PARENT key(s)
        # reference missing parents: [10]" although Order 10 exists.
        combine, order, service = _service_combine(customers_schema)
        parents = [_order_row(10, 1), _order_row(20, 1)]
        children = [
            _service_row(100, 10),
            _service_row(110, 10),
            _service_row(120, 20),
        ]
        with pytest.raises(OperationError) as failure:
            TestJoinUnit._run(
                combine, order, service, parents, children,
                force=force,
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
        for force in ("merge", None):  # sorted permutation / hash
            with pytest.raises(OperationError,
                               match="PARENT key 10 appears on 2"):
                TestJoinUnit._run(
                    combine, order, service, parents, children,
                    force=force,
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
        import repro.core.stream as stream_module
        from repro.core.stream import RowBatch

        rows = [_order_row(eid, 1) for eid in (10, 20)]
        fragment = Fragment(customers_schema, ["Order"], "Order")
        calls = {"n": 0}
        real = stream_module.row_feed_size

        def counting(row):
            calls["n"] += 1
            return real(row)

        monkeypatch.setattr(stream_module, "row_feed_size", counting)
        batch = RowBatch(fragment, rows, 0)
        assert batch.feed_size() == batch.feed_size()
        assert calls["n"] == len(rows)

    def test_columnar_batches_memoize_too(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"], "Order")
        batch = ColumnBatch.from_rows(
            fragment, [_order_row(10, 1)], 0
        )
        assert batch.feed_size() is batch.feed_size()
