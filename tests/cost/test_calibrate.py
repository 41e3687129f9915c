"""Cost-model calibration against measured runs."""

import math

import pytest

from repro.core.cost.calibrate import Calibration, calibrate
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.ops import Scan
from repro.services.endpoint import RelationalEndpoint


@pytest.fixture(scope="module")
def calibrated(auction_mf, auction_lf, auction_document,
               auction_schema):
    source = RelationalEndpoint("cal-src", auction_mf)
    source.load_document(auction_document)
    target = RelationalEndpoint("cal-tgt", auction_lf)
    program = build_transfer_program(
        derive_mapping(auction_mf, auction_lf)
    )
    placement = source_heavy_placement(program)
    report = ProgramExecutor(source, target).run(program, placement)
    statistics = StatisticsCatalog.from_document(
        auction_schema, auction_document
    )
    return (
        calibrate(program, report, statistics),
        program, placement, report, statistics,
    )


class TestCalibrate:
    def test_fits_every_executed_kind(self, calibrated):
        calibration = calibrated[0]
        # The MF->LF program has no splits, and every XMark fragment
        # is flat-storable: sorted feeds, so aligned joins.
        assert set(calibration.seconds_per_unit) == {
            "scan.columnar", "combine.aligned", "write.columnar",
        }
        assert all(
            scale > 0
            for scale in calibration.seconds_per_unit.values()
        )

    def test_predictions_are_seconds_scale(self, calibrated):
        calibration, program, _, report, _ = calibrated
        predicted_total = sum(
            calibration.predict(node)
            for node in program.topological_order()
        )
        measured_total = sum(
            timing.seconds for timing in report.op_timings
        )
        # The linear fit reproduces the total within a factor of ~2
        # (per-op variance is high at small sizes, totals are stable).
        assert predicted_total == pytest.approx(
            measured_total, rel=1.0
        )
        assert predicted_total > 0

    def test_unseen_kind_falls_back_to_mean(self, calibrated,
                                            auction_schema,
                                            auction_lf):
        calibration = calibrated[0]
        fragment = auction_lf.fragment_of("item")
        pieces = fragment.split_into([
            ["item", "location", "quantity", "iname"],
            ["payment"], ["idescription"], ["shipping"], ["mailbox"],
        ])
        from repro.core.ops import Split
        seconds = calibration.predict(Split(fragment, pieces))
        assert seconds > 0 and math.isfinite(seconds)

    def test_report_program_mismatch_rejected(self, calibrated,
                                              auction_mf,
                                              auction_lf):
        calibration, _, _, report, statistics = calibrated
        other = build_transfer_program(
            derive_mapping(auction_lf, auction_mf)
        )
        with pytest.raises(ValueError, match="counts"):
            calibrate(other, report, statistics)

    def test_empty_calibration_predicts_zero(self, calibrated,
                                             auction_mf):
        _, _, _, _, statistics = calibrated
        empty = Calibration(statistics)
        assert empty.predict(
            Scan(auction_mf.fragment_of("item"))
        ) == 0.0
