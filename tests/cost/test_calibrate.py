"""Cost-model calibration against measured runs."""

import math

import pytest

from repro.core.cost.calibrate import Calibration, calibrate
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import MachineProfile
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.ops import Combine, Scan
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
        # is flat-storable: sorted feeds, so merge joins.
        assert set(calibration.seconds_per_unit) == {
            "scan.columnar", "combine.merge", "write.columnar",
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
        from repro.core.fragment import Fragment
        fragment = auction_lf.fragment_of("item")
        pieces = fragment.split_into([
            ["item", "location", "quantity", "iname"],
            ["payment"], ["idescription"], ["shipping"], ["mailbox"],
        ])
        from repro.core.ops import Split
        seconds = calibration.predict(Split(fragment, pieces))
        assert seconds > 0 and math.isfinite(seconds)

    def test_scaled_model_prices_in_seconds(self, calibrated,
                                            auction_mf):
        calibration = calibrated[0]
        model = calibration.scaled_model()
        from repro.core.ops.base import Location
        scan = Scan(auction_mf.fragment_of("item"))
        assert model.comp_cost(scan, Location.SOURCE) == \
            pytest.approx(calibration.predict(scan))

    def test_scaled_model_keeps_capabilities(self, calibrated,
                                             auction_schema):
        calibration = calibrated[0]
        model = calibration.scaled_model(
            target=MachineProfile("dumb", can_combine=False)
        )
        from repro.core.fragment import Fragment
        from repro.core.ops.base import Location
        site = Fragment.single(auction_schema, "site")
        regions = Fragment.single(auction_schema, "regions")
        assert math.isinf(
            model.comp_cost(Combine(site, regions), Location.TARGET)
        )

    def test_speed_scaling(self, calibrated, auction_mf):
        calibration = calibrated[0]
        from repro.core.ops.base import Location
        fast = calibration.scaled_model(
            target=MachineProfile("fast", speed=4.0)
        )
        scan = Scan(auction_mf.fragment_of("item"))
        assert fast.comp_cost(scan, Location.TARGET) == pytest.approx(
            fast.comp_cost(scan, Location.SOURCE) / 4.0
        )

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
