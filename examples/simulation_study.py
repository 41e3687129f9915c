"""The simulation study of Section 5.4, end to end.

Reproduces the three simulated results:

* Figure 10 — DE vs publishing on equally fast systems,
* Figure 11 — the same with a 10x faster target,
* Table 5  — greedy/worst cost ratios over the optimal program across
  source/target speed ratios 5/1 ... 1/5.

Run with::

    python examples/simulation_study.py
"""

import random

from repro.core.cost.model import MachineProfile
from repro.reporting.tables import format_table
from repro.schema.generator import balanced_schema
from repro.sim.random_fragmentation import random_fragmentation
from repro.sim.simulator import ExchangeSimulator

N_TRIALS = 5


def figures_10_and_11() -> None:
    schema = balanced_schema(3, 4, seed=5)
    simulator = ExchangeSimulator(schema)
    rng = random.Random(11)
    pairs = [
        (
            random_fragmentation(schema, n_fragments=11, rng=rng,
                                 name="S"),
            random_fragmentation(schema, n_fragments=11, rng=rng,
                                 name="T"),
        )
        for _ in range(N_TRIALS)
    ]
    for title, target in (
        ("Figure 10 (equal machines)", MachineProfile("t")),
        ("Figure 11 (10x faster target)",
         MachineProfile("t", speed=10.0)),
    ):
        measurements = [
            simulator.exchange_costs(
                source, sink, MachineProfile("s"), target,
            )
            for source, sink in pairs
        ]
        reduction = sum(
            m.reduction_percent for m in measurements
        ) / len(measurements)
        print(f"{title}: DE reduces estimated publish cost by "
              f"{reduction:.1f}% "
              f"(DE {measurements[0].exchange.total:,.0f} vs publish "
              f"{measurements[0].publish.total:,.0f} on trial 1)")


def table_5() -> None:
    schema = balanced_schema(2, 5, seed=3)  # 31 nodes, as in the paper
    simulator = ExchangeSimulator(schema)
    rows = []
    for ratio, source_speed, target_speed in (
        ("5/1", 5.0, 1.0), ("2/1", 2.0, 1.0), ("1/1", 1.0, 1.0),
        ("1/2", 1.0, 2.0), ("1/5", 1.0, 5.0),
    ):
        rng = random.Random(42)
        trials = [
            simulator.greedy_quality_trial(
                n_fragments=11,
                source=MachineProfile("s", speed=source_speed),
                target=MachineProfile("t", speed=target_speed),
                rng=rng,
            )
            for _ in range(N_TRIALS)
        ]
        rows.append([
            ratio,
            sum(t.worst_over_optimal for t in trials) / len(trials),
            sum(t.greedy_over_optimal for t in trials) / len(trials),
            sum(t.optimal_seconds for t in trials) / len(trials),
            sum(t.greedy_seconds for t in trials) / len(trials),
        ])
    print()
    print(format_table(
        ["speed (src/tgt)", "Worst/Optimal", "Greedy/Optimal",
         "optimal secs", "greedy secs"],
        rows,
        title="Table 5: cost ratios over the optimal program",
    ))


def main() -> None:
    figures_10_and_11()
    table_5()


if __name__ == "__main__":
    main()
