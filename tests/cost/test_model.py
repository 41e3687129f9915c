"""The cost model: comp_cost, comm_cost, formula 1."""

import math

import pytest

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import (
    CostModel,
    CostWeights,
    MachineProfile,
    operation_work,
)
from repro.core.fragment import Fragment
from repro.core.mapping import derive_mapping
from repro.core.ops import Combine, Location, Scan, Split, Write
from repro.core.optimizer.greedy import greedy_placement
from repro.core.program.builder import build_transfer_program


@pytest.fixture
def stats(customers_schema):
    return StatisticsCatalog.synthetic(customers_schema, fanout=3.0)


@pytest.fixture
def model(stats):
    return CostModel(stats)


class TestOperationWork:
    def test_scan_prices_elements(self, customers_schema, stats):
        small = Scan(Fragment(customers_schema, ["Order"]))
        big = Scan(Fragment.full_subtree(customers_schema, "Order"))
        assert operation_work(big, stats) > operation_work(small, stats)

    def test_combine_prices_parent_plus_child_rows(
            self, customers_schema, stats):
        order = Fragment(customers_schema, ["Order"])
        service = Fragment(customers_schema, ["Service", "ServiceName"])
        combine = Combine(order, service)
        work = operation_work(combine, stats)
        assert work > 0

    def test_split_and_write(self, customers_schema, stats):
        fragment = Fragment(
            customers_schema, ["Line", "TelNo", "Feature", "FeatureID"]
        )
        pieces = fragment.split_into(
            [["Line", "TelNo"], ["Feature", "FeatureID"]]
        )
        assert operation_work(Split(fragment, pieces), stats) > 0
        assert operation_work(Write(fragment), stats) > 0

    def test_unknown_op_rejected(self, stats):
        with pytest.raises(TypeError):
            operation_work(object(), stats)


class TestCompCost:
    def test_speed_divides_cost(self, customers_schema, stats):
        fast = CostModel(
            stats, target=MachineProfile("t", speed=10.0)
        )
        scan = Scan(Fragment(customers_schema, ["Order"]))
        assert fast.comp_cost(scan, Location.TARGET) == pytest.approx(
            fast.comp_cost(scan, Location.SOURCE) / 10.0
        )

    def test_dumb_client_infinite_combine(self, customers_schema,
                                          stats):
        model = CostModel(
            stats, target=MachineProfile("t", can_combine=False)
        )
        order = Fragment(customers_schema, ["Order"])
        service = Fragment(customers_schema, ["Service", "ServiceName"])
        combine = Combine(order, service)
        assert math.isinf(model.comp_cost(combine, Location.TARGET))
        assert math.isfinite(model.comp_cost(combine, Location.SOURCE))

    def test_no_split_capability(self, customers_schema, stats):
        model = CostModel(
            stats, source=MachineProfile("s", can_split=False)
        )
        fragment = Fragment(customers_schema, ["Line", "TelNo"])
        split = Split(
            fragment, fragment.split_into([["Line"], ["TelNo"]])
        )
        assert math.isinf(model.comp_cost(split, Location.SOURCE))

    def test_index_factor_scales_writes(self, customers_schema, stats):
        heavy = CostModel(
            stats, target=MachineProfile("t", index_factor=3.0)
        )
        plain = CostModel(stats)
        write = Write(Fragment(customers_schema, ["Order"]))
        assert heavy.comp_cost(write, Location.TARGET) == pytest.approx(
            3.0 * plain.comp_cost(write, Location.TARGET)
        )

    @pytest.mark.parametrize(
        "speed", [0.0, -1.0, math.inf, math.nan],
        ids=["zero", "negative", "inf", "nan"],
    )
    def test_speed_must_be_positive_and_finite(self, speed):
        with pytest.raises(ValueError, match="speed"):
            MachineProfile("m", speed=speed)


class TestProgramCost:
    def test_formula1_weights(self, customers_schema, customers_s,
                              customers_t, stats):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        model = CostModel(stats)
        placement = greedy_placement(program, model)
        base = model.breakdown(program, placement)
        doubled_comm = CostModel(
            stats, weights=CostWeights(communication=2.0)
        )
        breakdown = doubled_comm.breakdown(program, placement)
        assert breakdown.communication == pytest.approx(
            2.0 * base.communication
        )
        assert breakdown.computation == pytest.approx(base.computation)
        assert breakdown.total == pytest.approx(
            breakdown.computation + breakdown.communication
        )

    def test_bandwidth_scales_comm(self, customers_schema, stats):
        slow = CostModel(stats, bandwidth=1.0)
        fast = CostModel(stats, bandwidth=10.0)
        fragment = Fragment(customers_schema, ["Order"])
        assert slow.comm_cost(fragment) == pytest.approx(
            10.0 * fast.comm_cost(fragment)
        )

    def test_bad_bandwidth_rejected(self, stats):
        with pytest.raises(ValueError):
            CostModel(stats, bandwidth=0.0)

    def test_by_location_sums_to_computation(
            self, customers_s, customers_t, stats):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        model = CostModel(stats)
        placement = greedy_placement(program, model)
        breakdown = model.breakdown(program, placement)
        assert sum(breakdown.by_location.values()) == pytest.approx(
            breakdown.computation
        )
