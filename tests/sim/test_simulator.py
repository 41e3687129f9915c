"""The exchange simulator (Section 5.4)."""

import random

import pytest

from repro.core.cost.model import MachineProfile
from repro.obs.trace import Tracer
from repro.schema.generator import balanced_schema
from repro.sim.random_fragmentation import random_fragmentation
from repro.sim.simulator import ExchangeSimulator


@pytest.fixture(scope="module")
def simulator():
    # A smaller tree than the paper's 85-node one keeps tests quick;
    # the benches run the full sizes.
    return ExchangeSimulator(balanced_schema(2, 4, seed=5))


@pytest.fixture(scope="module")
def fragmentations(simulator):
    rng = random.Random(3)
    source = random_fragmentation(
        simulator.schema, n_fragments=6, rng=rng, name="S"
    )
    target = random_fragmentation(
        simulator.schema, n_fragments=6, rng=rng, name="T"
    )
    return source, target


class TestExchangeCosts:
    def test_de_beats_publishing_equal_machines(self, simulator,
                                                fragmentations):
        source_fragmentation, target_fragmentation = fragmentations
        costs = simulator.exchange_costs(
            source_fragmentation, target_fragmentation,
            MachineProfile("s"), MachineProfile("t"),
        )
        # Figure 10: a healthy reduction at equal speeds.
        assert costs.reduction_percent > 20.0
        assert costs.relative_cost < 0.8

    def test_fast_target_increases_reduction(self, simulator,
                                             fragmentations):
        source_fragmentation, target_fragmentation = fragmentations
        equal = simulator.exchange_costs(
            source_fragmentation, target_fragmentation,
            MachineProfile("s"), MachineProfile("t"),
        )
        fast = simulator.exchange_costs(
            source_fragmentation, target_fragmentation,
            MachineProfile("s"), MachineProfile("t", speed=10.0),
        )
        # Figure 11: the reduction grows with a 10x faster target.
        assert fast.reduction_percent > equal.reduction_percent

    def test_publish_cost_all_at_source(self, simulator,
                                        fragmentations):
        source_fragmentation, _ = fragmentations
        breakdown = simulator.publish_cost(
            source_fragmentation, MachineProfile("s"),
            MachineProfile("t"),
        )
        from repro.core.ops.base import Location
        assert breakdown.by_location[Location.TARGET] == 0.0
        assert breakdown.communication > 0


class TestGreedyQuality:
    def test_trial_invariants(self, simulator):
        rng = random.Random(11)
        trial = simulator.greedy_quality_trial(
            n_fragments=5,
            source=MachineProfile("s", speed=5.0),
            target=MachineProfile("t"),
            rng=rng,
        )
        assert trial.greedy_over_optimal >= 1.0 - 1e-9
        assert trial.worst_over_optimal >= trial.greedy_over_optimal \
            - 1e-9
        assert trial.greedy_seconds < trial.optimal_seconds + 1.0

    def test_search_spans_report_the_work(self):
        tracer = Tracer()
        ExchangeSimulator(
            balanced_schema(2, 4, seed=5), tracer=tracer
        ).greedy_quality_trial(
            n_fragments=5, source=MachineProfile("s"),
            target=MachineProfile("t"), rng=random.Random(11),
        )
        spans = {span.name: span for span in [s for s in tracer.spans if s.category == "sim"]}
        for name in ("optimal search", "worst search"):
            assert spans[name].attrs["programs_considered"] == 1
            assert spans[name].attrs["subproblems"] > 0

    def test_window_grows_with_speed_gap(self, simulator):
        def average_window(source_speed, target_speed):
            rng = random.Random(21)
            ratios = []
            for _ in range(3):
                trial = simulator.greedy_quality_trial(
                    n_fragments=5,
                    source=MachineProfile("s", speed=source_speed),
                    target=MachineProfile("t", speed=target_speed),
                    rng=rng,
                )
                ratios.append(trial.worst_over_optimal)
            return sum(ratios) / len(ratios)

        # Table 5: the optimization window is wider at 5/1 than 1/1.
        assert average_window(5.0, 1.0) > average_window(1.0, 1.0)


class TestDeltaExchangeCosts:
    """Incremental sync pricing: the full exchange, scaled by the
    fraction of rows that travel."""

    def test_sweep_is_monotone_and_bounded(self, simulator,
                                           fragmentations):
        source_fragmentation, target_fragmentation = fragmentations
        rates = [0.0, 0.01, 0.1, 0.5, 1.0]
        estimates = simulator.delta_exchange_costs(
            source_fragmentation, target_fragmentation,
            MachineProfile("s"), MachineProfile("t"),
            rates,
        )
        assert [e.change_rate for e in estimates] == rates
        deltas = [e.delta_cost for e in estimates]
        assert deltas == sorted(deltas)
        # Nothing changed: nothing is paid (no per-row detection).
        assert estimates[0].delta_cost == 0.0
        assert estimates[2].delta_cost \
            == pytest.approx(0.1 * estimates[2].full_cost)
        # Everything changed: the delta run degenerates to a full one.
        assert estimates[-1].delta_cost \
            == pytest.approx(estimates[-1].full_cost)
        for estimate in estimates:
            assert 0.0 <= estimate.relative_cost <= 1.0 + 1e-9

    def test_bad_inputs_rejected(self, simulator, fragmentations):
        source_fragmentation, target_fragmentation = fragmentations
        machines = (MachineProfile("s"), MachineProfile("t"))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            simulator.delta_exchange_costs(
                source_fragmentation, target_fragmentation,
                *machines, [1.5],
            )
