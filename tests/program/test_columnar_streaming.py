"""The columnar dataplane end to end: byte-identity, join strategies,
orphan accounting and the size-memoization guard."""

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
from repro.services.endpoint import RelationalEndpoint
from repro.xmlkit.writer import serialize


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
    program, placement = mf_to_lf
    target = RelationalEndpoint("row-ref", auction_lf)
    ProgramExecutor(
        mf_source, target, SimulatedChannel(), batch_rows=64
    ).run(program, placement)
    return _table_dump(target)


class TestByteIdentity:
    """The columnar dataplane must write byte-identical tables for
    every batch size and both pinned join strategies (satellite 3)."""

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
            batch_rows=batch_rows, columnar=True,
        ).run(program, placement)
        assert _table_dump(target) == expected
        assert report.rows_written > 0

    @pytest.mark.parametrize("join_strategy", ["hash", "merge"])
    @pytest.mark.parametrize("batch_rows", [1, 7, 64, 10 ** 9])
    def test_forced_strategies(self, mf_source, mf_to_lf, auction_lf,
                               join_strategy, batch_rows):
        program, placement = mf_to_lf
        expected = _row_reference(mf_source, mf_to_lf, auction_lf)
        target = RelationalEndpoint(
            f"col-{join_strategy}-{batch_rows}", auction_lf
        )
        ProgramExecutor(
            mf_source, target, SimulatedChannel(),
            batch_rows=batch_rows, columnar=True,
            join_strategy=join_strategy,
        ).run(program, placement)
        assert _table_dump(target) == expected

    def test_split_heavy_exchange(self, lf_to_mf, auction_mf):
        source, program, placement = lf_to_mf
        row_target = RelationalEndpoint("row-mf", auction_mf)
        ProgramExecutor(
            source, row_target, SimulatedChannel(), batch_rows=16
        ).run(program, placement)
        columnar_target = RelationalEndpoint("col-mf", auction_mf)
        ProgramExecutor(
            source, columnar_target, SimulatedChannel(),
            batch_rows=16, columnar=True,
        ).run(program, placement)
        assert _table_dump(columnar_target) == _table_dump(row_target)

    def test_parallel_columnar_matches(self, mf_source, mf_to_lf,
                                       auction_lf):
        program, placement = mf_to_lf
        expected = _row_reference(mf_source, mf_to_lf, auction_lf)
        target = RelationalEndpoint("col-par", auction_lf)
        ProgramExecutor(
            mf_source, target, SimulatedChannel(), workers=4,
            batch_rows=32, columnar=True,
        ).run(program, placement)
        assert _table_dump(target) == expected


class TestStrategySelection:
    """Document-order feeds must auto-select the merge join, shuffled
    feeds the hash join (satellite 3)."""

    def test_sorted_feeds_select_merge(self, mf_source, mf_to_lf,
                                       auction_lf):
        program, placement = mf_to_lf
        metrics = MetricsRegistry()
        target = RelationalEndpoint("col-merge-sel", auction_lf)
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(),
            batch_rows=64, columnar=True, metrics=metrics,
        ).run(program, placement)
        combines = sum(
            1 for node in program.nodes if node.kind == "combine"
        )
        assert combines == 21  # the Figure 9 MF->LF shape
        assert metrics.counter("join.strategy.merge").value == combines
        assert metrics.counter("join.build_rows").value > 0
        assert metrics.counter("join.probe_rows").value > 0
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
            mf_source, target, SimulatedChannel(),
            batch_rows=64, columnar=True,
        ).run(program, placement)
        for timing in report.op_timings:
            if timing.kind in ("scan", "write"):
                assert timing.strategy == "columnar"

    def test_row_dataplane_reports_row(self, mf_source, mf_to_lf,
                                       auction_lf):
        program, placement = mf_to_lf
        target = RelationalEndpoint("row-strat", auction_lf)
        report = ProgramExecutor(
            mf_source, target, SimulatedChannel(), batch_rows=64
        ).run(program, placement)
        assert {t.strategy for t in report.op_timings} == {"row"}


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

        out = list(combine.apply_column_batches(
            batches(order, parents), batches(service, children),
            observe=observe, force=force,
        ))
        return _docs(
            combine.result,
            [row for batch in out for row in batch.rows],
        )

    @staticmethod
    def _materialized(combine, order, service, parents, children):
        result = combine.apply(
            FragmentInstance(order, parents).copy(),
            FragmentInstance(service, children).copy(),
        )
        return _docs(combine.result, result.rows)

    def test_sorted_children_use_merge(self, parts):
        combine, order, service, parents, children = parts
        observed = []
        got = self._run(combine, order, service, parents, children,
                        observe=lambda *args: observed.append(args))
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
                        observe=lambda *args: observed.append(args))
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
                        observe=lambda *args: observed.append(args),
                        force="merge")
        assert got == self._materialized(
            combine, order, service, parents, children
        )
        assert observed == [("merge", 4, 4)]

    def test_unknown_strategy_rejected(self, parts):
        combine, order, service, parents, children = parts
        with pytest.raises(OperationError, match="join strategy"):
            self._run(combine, order, service, parents, children,
                      force="nested-loop")


class TestOrphanAccounting:
    """Orphaned PARENT keys must be listed, identically across the
    materialized, row-streaming and columnar paths (satellite 1)."""

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
            combine.apply(
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
            combine.apply(
                FragmentInstance(order, parents).copy(),
                FragmentInstance(service, children).copy(),
            )
        assert message == str(materialized.value)

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
    """RowBatch memoizes its size sums: repeated metering of one batch
    must not re-walk the rows (satellite 2)."""

    def test_estimated_size_computed_once(self, customers_schema,
                                          monkeypatch):
        import repro.core.stream as stream_module
        from repro.core.stream import RowBatch

        rows = [_order_row(eid, 1) for eid in (10, 20, 30)]
        fragment = Fragment(customers_schema, ["Order"], "Order")
        calls = {"n": 0}
        real = stream_module.row_estimated_size

        def counting(row):
            calls["n"] += 1
            return real(row)

        monkeypatch.setattr(
            stream_module, "row_estimated_size", counting
        )
        batch = RowBatch(fragment, rows, 0)
        first = batch.estimated_size()
        second = batch.estimated_size()
        assert first == second
        assert calls["n"] == len(rows)  # one walk, not two

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
        assert batch.estimated_size() is batch.estimated_size()
        assert batch.feed_size() is batch.feed_size()
