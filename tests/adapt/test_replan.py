"""The scaled probe: a cost probe corrected by per-kind drift ratios."""

import pytest

from repro.adapt.stats import ScaledProbe, StatisticsStore
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.program.builder import build_transfer_program


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
        """Degenerate ratios never reach a scaled probe: the store
        drops them on entry, and a pair with no evidence left prices
        with the base probe."""
        store = StatisticsStore()
        store.observe_ratios("s->t", {
            "scan": 0.0, "combine": -1.0, "split": float("inf"),
            "comm": float("nan"),
        })
        assert store.scaled_probe("s->t", model) is model
