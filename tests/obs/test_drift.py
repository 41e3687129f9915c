"""Cost-drift reporting and trace↔report reconciliation.

The acceptance scenario: a traced Figure 9 MF→MF run must yield (a) a
Chrome-loadable trace whose per-op span totals reconcile with the
execution report's accounted seconds, and (b) a drift report with a
predicted-vs-actual entry for every executed operation and every
cross-edge — on all three dataplanes.
"""

import json
from dataclasses import replace

import pytest

from repro.adapt.stats import StatisticsStore
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ExecutionReport, ProgramExecutor
from repro.net.transport import SimulatedChannel
from repro.obs import (
    DriftReport,
    EdgeDrift,
    OpDrift,
    Tracer,
    chrome_trace_events,
    cost_drift_report,
)
from repro.services.endpoint import RelationalEndpoint


def mf_to_mf(auction_mf, auction_document, executor_factory):
    """One traced MF→MF run; returns (program, placement, report,
    tracer)."""
    source = RelationalEndpoint("drift-src", auction_mf)
    source.load_document(auction_document)
    target = RelationalEndpoint("drift-tgt", auction_mf)
    program = build_transfer_program(
        derive_mapping(auction_mf, auction_mf)
    )
    placement = source_heavy_placement(program)
    tracer = Tracer()
    executor = executor_factory(source, target, tracer)
    report = executor.run(program, placement)
    return program, placement, report, tracer


@pytest.fixture(scope="module")
def traced_run(auction_mf, auction_document):
    return mf_to_mf(
        auction_mf, auction_document,
        lambda source, target, tracer: ProgramExecutor(
            source, target, SimulatedChannel(), tracer=tracer
        ),
    )


class TestTraceReconciliation:
    def test_every_op_has_exactly_one_span(self, traced_run):
        program, _, _, tracer = traced_run
        op_ids = [
            span.attrs["op_id"] for span in [s for s in tracer.spans if s.category == "op"]
        ]
        assert sorted(op_ids) == sorted(
            node.op_id for node in program.nodes
        )

    def test_op_span_totals_match_report_seconds(self, traced_run):
        _, _, report, tracer = traced_run
        # record() stores the executor's own measured seconds, so the
        # totals agree exactly, not just approximately.
        assert tracer.total_seconds("op") == sum(
            timing.seconds for timing in report.op_timings
        )

    def test_ship_spans_cover_every_cross_edge(self, traced_run):
        program, placement, report, tracer = traced_run
        shipped = {
            (span.attrs["edge_op"], span.attrs["edge_port"])
            for span in [s for s in tracer.spans if s.category == "ship"]
        }
        expected = {
            (edge.producer.op_id, edge.output_index)
            for edge in program.cross_edges(placement)
        }
        assert shipped == expected
        assert tracer.total_seconds("ship") == pytest.approx(
            report.comm_seconds
        )

    def test_chrome_trace_loads(self, traced_run):
        _, _, _, tracer = traced_run
        document = json.loads(json.dumps(chrome_trace_events(tracer)))
        complete = [
            event for event in document["traceEvents"]
            if event["ph"] == "X"
        ]
        assert complete
        assert all(event["dur"] >= 0 for event in complete)

    def test_op_spans_start_at_their_first_tick(self, traced_run):
        """Each op span is anchored where the node first did any work,
        not stacked at the run start: the MF->MF writes drive one
        after another, so every scan starts after the previous
        write did."""
        program, _, _, tracer = traced_run
        start = {
            span.attrs["op_id"]: span.start
            for span in [s for s in tracer.spans if s.category == "op"]
        }
        scans = sorted(start[node.op_id] for node in program.scans())
        writes = sorted(start[node.op_id] for node in program.writes())
        assert len(set(scans)) == len(scans)
        assert all(
            earlier < later
            for earlier, later in zip(writes, scans[1:])
        )
        # A write's own work begins after its input was produced.
        for node in program.writes():
            [edge] = program.in_edges(node)
            assert start[edge.producer.op_id] < start[node.op_id]


class TestDriftReport:
    @pytest.fixture(scope="class")
    def drift(self, traced_run, auction_schema, auction_document):
        program, placement, report, _ = traced_run
        probe = CostModel(StatisticsCatalog.from_document(
            auction_schema, auction_document
        ))
        return cost_drift_report(program, placement, report, probe)

    def test_entry_for_every_op_and_edge(self, drift, traced_run):
        program, placement, _, _ = traced_run
        assert len(drift.ops) == len(program.nodes)
        assert len(drift.edges) == len(
            program.cross_edges(placement)
        )

    def test_ratios_are_defined(self, drift):
        assert all(entry.ratio is not None for entry in drift.ops)
        assert all(edge.ratio is not None for edge in drift.edges)
        assert all(edge.bytes_sent > 0 for edge in drift.edges)

    def test_kind_ratios_cover_executed_kinds_plus_comm(self, drift):
        ratios = drift.kind_ratios()
        assert {"scan", "write", "comm"} <= set(ratios)
        assert all(ratio > 0 for ratio in ratios.values())

    def test_to_dict_and_render(self, drift):
        data = json.loads(json.dumps(drift.to_dict()))
        assert len(data["ops"]) == len(drift.ops)
        text = drift.render()
        assert "per-kind drift" in text
        assert "comm" in text

    def test_mismatched_report_raises(self, traced_run,
                                      auction_schema,
                                      auction_document):
        program, placement, _, _ = traced_run
        probe = CostModel(StatisticsCatalog.from_document(
            auction_schema, auction_document
        ))
        from repro.core.program.executor import ExecutionReport

        with pytest.raises(ValueError, match="no timing"):
            cost_drift_report(
                program, placement, ExecutionReport(), probe
            )


class TestUniformDrift:
    def test_a_multiple_of_the_prices_reads_that_multiple_everywhere(
            self, auction_schema, auction_mf, auction_lf,
            auction_document):
        """Measured costs that are one multiple of the optimizer's own
        prices read that multiple on every key — joins, columnar scans
        and writes, and ``comm`` alike — and the store's scaled probe
        then prices every op and every shipment at that multiple."""
        source = RelationalEndpoint("uniform-src", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)
        report = ProgramExecutor(
            source, RelationalEndpoint("uniform-tgt", auction_lf),
            SimulatedChannel(),
        ).run(program, placement)
        probe = CostModel(StatisticsCatalog.synthetic(auction_schema))
        factor = 2.5
        nodes = {node.op_id: node for node in program.nodes}
        priced = ExecutionReport(
            op_timings=[
                replace(timing, seconds=factor * probe.comp_cost(
                    nodes[timing.op_id], timing.location))
                for timing in report.op_timings
            ],
            shipment_seconds={
                (edge.producer.op_id, edge.output_index):
                    factor * probe.comm_cost(edge.fragment)
                for edge in program.cross_edges(placement)
            },
        )
        drift = cost_drift_report(program, placement, priced, probe)
        ratios = drift.kind_ratios()
        assert set(ratios) == {"combine", "scan", "write", "comm"}
        assert ratios == pytest.approx(dict.fromkeys(ratios, factor))

        store = StatisticsStore()
        store.observe_drift("s->t", drift)
        scaled = store.scaled_probe("s->t", probe)
        for node in program.nodes:
            for location in Location:
                assert scaled.comp_cost(node, location) == \
                    pytest.approx(factor * probe.comp_cost(node, location))
        for edge in program.edges:
            assert scaled.comm_cost(edge.fragment) == \
                pytest.approx(factor * probe.comm_cost(edge.fragment))


class TestDegenerateRatios:
    def test_zero_prediction_yields_none(self):
        entry = OpDrift(1, "x", "scan", None, 0.0, 0.5, 10)
        assert entry.ratio is None
        edge = EdgeDrift((1, 0), "f", float("inf"), 0.5, 10, 1)
        assert edge.ratio is None
        report = DriftReport(ops=[entry], edges=[edge])
        assert report.kind_ratios() == {}


class TestOtherDataplanes:
    """Span coverage must hold for batched runs."""

    def test_streaming_trace_records_batches(self, auction_mf,
                                             auction_document):
        program, placement, report, tracer = mf_to_mf(
            auction_mf, auction_document,
            lambda source, target, tracer: ProgramExecutor(
                source, target, SimulatedChannel(), batch_rows=16,
                tracer=tracer,
            ),
        )
        batch_spans = [s for s in tracer.spans if s.category == "batch"]
        assert batch_spans
        assert sum(
            report.shipment_batches.values()
        ) == len(batch_spans)
        # Each edge's ship/batch spans carry its shipment seconds.
        per_edge: dict[tuple[int, int], float] = {}
        for span in tracer.spans:
            if span.category in ("ship", "batch"):
                edge = (span.attrs["edge_op"], span.attrs["edge_port"])
                per_edge[edge] = per_edge.get(edge, 0.0) + span.seconds
        assert per_edge == pytest.approx(report.shipment_seconds)

    def test_no_tracer_records_nothing(self, auction_mf,
                                       auction_document):
        source = RelationalEndpoint("plain-src", auction_mf)
        source.load_document(auction_document)
        target = RelationalEndpoint("plain-tgt", auction_mf)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_mf)
        )
        executor = ProgramExecutor(source, target, SimulatedChannel())
        executor.run(program, source_heavy_placement(program))
        assert executor.tracer.spans == []
        assert executor.tracer.enabled is False
