"""Figure 10 — Simulated DE vs publishing, similar systems.

The paper's configuration: a balanced DTD with 3 levels and fan-out 4,
source and target each holding a different complete set of 11 randomly
selected fragments, equally fast machines.  Optimized data exchange
cuts about 65% of the estimated publishing-only cost.
"""

import random

import pytest

from repro.core.cost.model import MachineProfile
from repro.schema.generator import balanced_schema
from repro.sim.random_fragmentation import random_fragmentation
from repro.sim.simulator import ExchangeSimulator

from support import N_TRIALS

_REDUCTIONS: list[float] = []


def test_figure10_equal_machines(benchmark, results):
    schema = balanced_schema(3, 4, seed=5)
    simulator = ExchangeSimulator(schema)
    rng = random.Random(11)

    def run_trials():
        measurements = []
        for _ in range(N_TRIALS):
            source = random_fragmentation(
                schema, n_fragments=11, rng=rng, name="S"
            )
            target = random_fragmentation(
                schema, n_fragments=11, rng=rng, name="T"
            )
            measurements.append(
                simulator.exchange_costs(
                    source, target,
                    MachineProfile("source"), MachineProfile("target"),
                )
            )
        return measurements

    measurements = benchmark.pedantic(run_trials, rounds=1,
                                      iterations=1)
    exchange_comp = sum(m.exchange.computation for m in measurements) \
        / len(measurements)
    exchange_comm = sum(m.exchange.communication for m in measurements) \
        / len(measurements)
    publish_comp = sum(m.publish.computation for m in measurements) \
        / len(measurements)
    publish_comm = sum(m.publish.communication for m in measurements) \
        / len(measurements)
    reduction = sum(m.reduction_percent for m in measurements) \
        / len(measurements)
    _REDUCTIONS.append(reduction)

    title = ("Figure 10: estimated cost, optimized DE vs publishing, "
             "similar source and target (paper: ~65% reduction)")
    results.record("figure10", "Data Exchange", "computation",
                   exchange_comp, title=title)
    results.record("figure10", "Data Exchange", "communication",
                   exchange_comm)
    results.record("figure10", "Publish", "computation", publish_comp)
    results.record("figure10", "Publish", "communication",
                   publish_comm)
    results.note(
        "figure10",
        f"average reduction over {len(measurements)} trials: "
        f"{reduction:.1f}%",
    )


def test_figure10_shape():
    if not _REDUCTIONS:
        pytest.skip("run the measuring bench first")
    # The paper reports ~65%; accept a generous band around it.
    assert 30.0 <= _REDUCTIONS[0] <= 85.0
