"""Calibration fed from a recorded trace (instead of a fresh probe).

Satellite of the observability issue: a Figure 9 MF→MF run recorded
with tracing on must calibrate to the same per-kind scales as the
classic report-fed :func:`repro.core.cost.calibrate.calibrate` — the
trace carries the very seconds the report accounts, so the fits agree
within float tolerance.
"""

import pytest

from repro.core.cost.calibrate import calibrate, calibrate_timings
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import (
    OperationTiming,
    ProgramExecutor,
)
from repro.net.transport import SimulatedChannel
from repro.obs import Tracer, report_from_trace
from repro.services.endpoint import RelationalEndpoint


@pytest.fixture(scope="module")
def traced(auction_mf, auction_document, auction_schema):
    source = RelationalEndpoint("trace-cal-src", auction_mf)
    source.load_document(auction_document)
    target = RelationalEndpoint("trace-cal-tgt", auction_mf)
    program = build_transfer_program(
        derive_mapping(auction_mf, auction_mf)
    )
    placement = source_heavy_placement(program)
    tracer = Tracer()
    report = ProgramExecutor(
        source, target, SimulatedChannel(), tracer=tracer
    ).run(program, placement)
    statistics = StatisticsCatalog.from_document(
        auction_schema, auction_document
    )
    return program, report, tracer, statistics


def _fit_from_trace(program, trace, statistics):
    """Calibrate from the report a recorded trace rebuilds."""
    return calibrate_timings(
        program, report_from_trace(program, trace).op_timings, statistics
    )


class TestCalibrationFromTrace:
    def test_matches_report_fed_calibration(self, traced):
        program, report, tracer, statistics = traced
        from_report = calibrate(program, report, statistics)
        from_trace = _fit_from_trace(
            program, tracer, statistics
        )
        assert set(from_trace.seconds_per_unit) == set(
            from_report.seconds_per_unit
        )
        for kind, scale in from_report.seconds_per_unit.items():
            assert from_trace.seconds_per_unit[kind] == pytest.approx(
                scale, rel=1e-9
            )
        assert from_trace.samples == from_report.samples

    def test_predicts_positive_seconds(self, traced):
        program, _, tracer, statistics = traced
        calibration = _fit_from_trace(
            program, tracer, statistics
        )
        for node in program.topological_order():
            assert calibration.predict(node) > 0

    def test_incomplete_trace_rejected(self, traced):
        program, _, tracer, statistics = traced
        partial = [
            span for span in tracer.spans
            if span.attrs.get("op_id") != program.nodes[0].op_id
        ]
        with pytest.raises(ValueError, match="no op span"):
            _fit_from_trace(program, partial, statistics)


class TestCalibrateTimings:
    def test_matches_by_op_id_out_of_order(self, traced):
        program, report, _, statistics = traced
        shuffled = list(reversed(report.op_timings))
        direct = calibrate_timings(program, shuffled, statistics)
        baseline = calibrate(program, report, statistics)
        assert direct.seconds_per_unit == pytest.approx(
            baseline.seconds_per_unit
        )

    def test_unknown_op_id_rejected(self, traced):
        program, _, _, statistics = traced
        bogus = [OperationTiming("ghost", "scan", None, 0.1, 1, 9999)]
        with pytest.raises(ValueError, match="matches no operation"):
            calibrate_timings(program, bogus, statistics)

    def test_anonymous_timings_pair_positionally(self, traced):
        program, report, _, statistics = traced
        anonymous = [
            OperationTiming(t.label, t.kind, t.location, t.seconds,
                            t.rows, -1, t.strategy)
            for t in report.op_timings
        ]
        fitted = calibrate_timings(program, anonymous, statistics)
        baseline = calibrate(program, report, statistics)
        assert fitted.seconds_per_unit == pytest.approx(
            baseline.seconds_per_unit
        )
