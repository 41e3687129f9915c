"""Table 5 — Greedy and worst-case cost ratios over the optimal.

The paper's setup: DTDs of height 2 with fan-out 5 (31 nodes), ten
random source/target fragmentations per configuration, relative
source/target speeds 5/1, 2/1, 1/1, 1/2 and 1/5, fast interconnect.

Shapes to reproduce:

* the optimization window (worst/optimal) is widest at the extreme
  speed ratios and nearly closed at 1/1 (paper: 1.94 / 1.08 / 1.87);
* greedy is practically optimal everywhere (paper: 1.002–1.013);
* greedy runs in milliseconds (paper: ms vs 80.9 s for the exhaustive
  search).  The optimal column here is the exact plan search of
  :mod:`repro.core.optimizer.search`, no order cap: the ratios are
  against a true optimum and a true worst case, and the search itself
  is only a few times slower than greedy at this size
  (``test_optimizer_scaling.py`` times the enumerator beside it).
"""

import random

import pytest

from repro.core.cost.model import MachineProfile
from repro.schema.generator import balanced_schema
from repro.sim.simulator import ExchangeSimulator

from support import N_TRIALS

#: Optimizer runtimes are single-digit milliseconds, so one run of the
#: trials is at the mercy of whatever else the machine is doing; each
#: side's time is the fastest of this many runs.
_TIMING_REPEATS = 3
_RATIOS = (("5/1", 5.0, 1.0), ("2/1", 2.0, 1.0), ("1/1", 1.0, 1.0),
           ("1/2", 1.0, 2.0), ("1/5", 1.0, 5.0))

_WINDOWS: dict[str, float] = {}
_GREEDY: dict[str, float] = {}
_TIMES: dict[str, tuple[float, float]] = {}


@pytest.mark.parametrize(
    "ratio,source_speed,target_speed", _RATIOS,
    ids=[ratio for ratio, _, _ in _RATIOS],
)
def test_table5_row(benchmark, ratio, source_speed, target_speed,
                    results):
    schema = balanced_schema(2, 5, seed=3)  # 31 nodes, as in the paper
    simulator = ExchangeSimulator(schema)
    source = MachineProfile("source", speed=source_speed)
    target = MachineProfile("target", speed=target_speed)

    def run_trials():
        rng = random.Random(42)
        return [
            simulator.greedy_quality_trial(
                n_fragments=11, source=source, target=target,
                rng=rng,
            )
            for _ in range(N_TRIALS)
        ]

    trials = benchmark.pedantic(run_trials, rounds=1, iterations=1)
    runs = [trials] + [
        run_trials() for _ in range(_TIMING_REPEATS - 1)
    ]
    worst_over_optimal = sum(
        trial.worst_over_optimal for trial in trials
    ) / len(trials)
    greedy_over_optimal = sum(
        trial.greedy_over_optimal for trial in trials
    ) / len(trials)
    optimal_seconds = min(
        sum(trial.optimal_seconds for trial in run) / len(run)
        for run in runs
    )
    greedy_seconds = min(
        sum(trial.greedy_seconds for trial in run) / len(run)
        for run in runs
    )

    _WINDOWS[ratio] = worst_over_optimal
    _GREEDY[ratio] = greedy_over_optimal
    _TIMES[ratio] = (optimal_seconds, greedy_seconds)

    title = ("Table 5: ratios of cost of greedy and worst-case "
             "programs over the cost of the optimal one")
    results.record("table5", ratio, "Worst/Optimal",
                   round(worst_over_optimal, 4), title=title)
    results.record("table5", ratio, "Greedy/Optimal",
                   round(greedy_over_optimal, 4))
    results.record("table5", ratio, "optimal secs",
                   round(optimal_seconds, 4))
    results.record("table5", ratio, "greedy secs",
                   round(greedy_seconds, 5))


def test_table5_shape():
    if len(_WINDOWS) < len(_RATIOS):
        pytest.skip("cells incomplete (run the full module)")
    # Window is widest at the speed extremes, narrowest at 1/1.
    assert _WINDOWS["5/1"] > _WINDOWS["1/1"]
    assert _WINDOWS["1/5"] > _WINDOWS["1/1"]
    # Greedy is within a few percent of optimal everywhere.
    for ratio, value in _GREEDY.items():
        assert 1.0 - 1e-9 <= value < 1.15, (ratio, value)
    # Greedy is still the faster one, but the exact search is no
    # longer the paper's 80.9 s: both are milliseconds at 31 nodes.
    for ratio, (optimal_seconds, greedy_seconds) in _TIMES.items():
        assert greedy_seconds < optimal_seconds < 0.5, ratio
