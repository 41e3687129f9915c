"""Figure 11 — Simulated DE vs publishing with a 10x faster target.

Same setup as Figure 10 but the target system is ten times faster than
the source: the distributed-processing algorithm moves the combines to
the fast client and the saving grows to about 85%.
"""

import random

import pytest

from repro.core.cost.model import MachineProfile
from repro.core.mapping import derive_mapping
from repro.core.optimizer.search import optimal_exchange
from repro.schema.generator import balanced_schema
from repro.sim.random_fragmentation import random_fragmentation
from repro.sim.simulator import ExchangeSimulator

from support import N_TRIALS

_STATE: dict[str, float] = {}


def test_figure11_fast_target(benchmark, results):
    schema = balanced_schema(3, 4, seed=5)
    simulator = ExchangeSimulator(schema)
    rng = random.Random(11)
    source_machine = MachineProfile("source")
    fast_target = MachineProfile("target", speed=10.0)

    def run_trials():
        measurements = []
        fragment_pairs = []
        for _ in range(N_TRIALS):
            source = random_fragmentation(
                schema, n_fragments=11, rng=rng, name="S"
            )
            target = random_fragmentation(
                schema, n_fragments=11, rng=rng, name="T"
            )
            fragment_pairs.append((source, target))
            measurements.append(
                simulator.exchange_costs(
                    source, target, source_machine, fast_target,
                )
            )
        return measurements, fragment_pairs

    measurements, fragment_pairs = benchmark.pedantic(
        run_trials, rounds=1, iterations=1
    )
    reduction = sum(m.reduction_percent for m in measurements) \
        / len(measurements)
    _STATE["reduction"] = reduction

    title = ("Figure 11: estimated cost, optimized DE vs publishing, "
             "10x faster target (paper: ~85% reduction)")
    results.record(
        "figure11", "Data Exchange", "computation",
        sum(m.exchange.computation for m in measurements)
        / len(measurements),
        title=title,
    )
    results.record(
        "figure11", "Data Exchange", "communication",
        sum(m.exchange.communication for m in measurements)
        / len(measurements),
    )
    results.record(
        "figure11", "Publish", "computation",
        sum(m.publish.computation for m in measurements)
        / len(measurements),
    )
    results.record(
        "figure11", "Publish", "communication",
        sum(m.publish.communication for m in measurements)
        / len(measurements),
    )
    results.note(
        "figure11",
        f"average reduction over {len(measurements)} trials: "
        f"{reduction:.1f}%",
    )

    # The paper's narrative: the optimizer "takes advantage of the very
    # fast client and places all combines there".  Verify on one pair.
    source, target = fragment_pairs[0]
    model = simulator.model(source_machine, fast_target)
    best = optimal_exchange(
        derive_mapping(source, target), model,
    )
    from repro.core.ops.base import Location
    combine_locations = {
        best.placement[node.op_id]
        for node in best.program.nodes
        if node.kind == "combine"
    }
    _STATE["all_at_target"] = float(
        combine_locations <= {Location.TARGET}
    )


def test_figure11_shape():
    if "reduction" not in _STATE:
        pytest.skip("run the measuring bench first")
    assert _STATE["reduction"] >= 70.0
    assert _STATE["all_at_target"] == 1.0
