"""Suffix re-placement: the scaled probe and the pinned search."""

import pytest

from repro.adapt.replan import ScaledProbe
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.mapping import derive_mapping
from repro.core.optimizer.exhaustive import cost_based_optim
from repro.core.ops.base import Location
from repro.core.ops.scan import Scan
from repro.core.ops.write import Write
from repro.core.program.builder import build_transfer_program
from repro.errors import PlacementError


@pytest.fixture
def program(auction_mf, auction_lf):
    return build_transfer_program(derive_mapping(auction_mf, auction_lf))


@pytest.fixture
def model(auction_schema):
    return CostModel(StatisticsCatalog.synthetic(auction_schema))


class TestScaledProbe:
    def test_exact_kind_scale(self, program, model):
        scan = next(n for n in program.nodes if n.kind == "scan")
        probe = ScaledProbe(model, {"scan": 2.0})
        base = model.comp_cost(scan, Location.SOURCE)
        assert probe.comp_cost(scan, Location.SOURCE) \
            == pytest.approx(2.0 * base)

    def test_strategy_variant_matches_bare_kind(self, program, model):
        combine = next(n for n in program.nodes if n.kind == "combine")
        probe = ScaledProbe(model, {"combine.hash": 3.0})
        assert probe.scale_for(combine) == pytest.approx(3.0)

    def test_unobserved_kind_gets_geometric_mean(self, program, model):
        write = next(n for n in program.nodes if n.kind == "write")
        probe = ScaledProbe(model, {"scan": 2.0, "combine": 8.0})
        # geomean(2, 8) = 4; communication shares the neutral scale.
        assert probe.neutral == pytest.approx(4.0)
        assert probe.scale_for(write) == pytest.approx(4.0)
        assert probe.comm_scale == pytest.approx(4.0)

    def test_explicit_comm_scale(self, program, model):
        probe = ScaledProbe(model, {"scan": 2.0}, 8.0)
        edge = program.edges[0]
        assert probe.comm_cost(edge.fragment) == pytest.approx(
            8.0 * model.comm_cost(edge.fragment)
        )
        # The comm evidence joins the neutral pool: geomean(2, 8) = 4.
        assert probe.neutral == pytest.approx(4.0)

    def test_degenerate_scales_filtered(self, model):
        probe = ScaledProbe(
            model, {"scan": 0.0, "combine": -1.0,
                    "split": float("inf")},
        )
        assert probe.kind_scales == {}
        assert probe.neutral == 1.0


class TestReplanPlacement:
    def test_unpinned_matches_exhaustive_optimizer(self, program, model):
        baseline, base_cost = cost_based_optim(program, model)
        replanned, cost = cost_based_optim(program, model, pinned={})
        assert cost == pytest.approx(base_cost)
        assert {op: loc for op, loc in replanned.items()} == baseline

    def test_pin_respected_and_priced(self, program, model):
        baseline, base_cost = cost_based_optim(program, model)
        movable = next(
            node for node in program.nodes
            if not isinstance(node, (Scan, Write))
        )
        flipped = (
            Location.TARGET
            if baseline[movable.op_id] is Location.SOURCE
            else Location.SOURCE
        )
        if flipped is Location.SOURCE:
            pytest.skip("baseline already pins the movable op at source")
        replanned, cost = cost_based_optim(
            program, model, pinned={movable.op_id: flipped}
        )
        assert replanned[movable.op_id] is flipped
        # The pin is suboptimal by construction, and the returned
        # cost includes the pinned prefix.
        assert cost >= base_cost

    def test_full_pin_reproduces_cost(self, program, model):
        baseline, base_cost = cost_based_optim(program, model)
        replanned, cost = cost_based_optim(
            program, model, pinned=dict(baseline)
        )
        assert replanned == baseline
        assert cost == pytest.approx(base_cost)

    def test_scan_pinned_off_source_is_illegal(self, program, model):
        scan = next(n for n in program.nodes if isinstance(n, Scan))
        with pytest.raises(PlacementError, match="pinned"):
            cost_based_optim(
                program, model,
                pinned={scan.op_id: Location.TARGET},
            )

    def test_write_pinned_off_target_is_illegal(self, program, model):
        write = next(n for n in program.nodes if isinstance(n, Write))
        with pytest.raises(PlacementError, match="pinned"):
            cost_based_optim(
                program, model,
                pinned={write.op_id: Location.SOURCE},
            )
