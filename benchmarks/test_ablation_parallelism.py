"""Ablation — the parallel-execution opportunity of Section 5.2.

The paper executes all program pieces sequentially and notes that the
Scan->Write series of identical-fragmentation exchanges "offers an
opportunity for parallelism... that we did not pursue here".  This
ablation pursues it twice over:

* from the sequential run's per-operation timings it computes the
  makespan a 4-way parallel executor *would* achieve
  (``simulate_parallel_makespan``) for each scenario — MF->MF (24
  independent transfers) parallelizes best, MF->LF (3 expressions, one
  huge) barely benefits, the shape the paper predicts;
* it then actually *runs* the Figure 9 MF->MF scenario with
  ``ProgramExecutor(workers=4)`` over a sleeping channel and checks
  the measured wall-clock speedup against the estimate —
  the estimator is a checkable prediction, not a fiction.
"""

import time

import pytest

from repro.core.program.executor import ProgramExecutor
from repro.core.program.parallel import simulate_parallel_makespan
from repro.net.transport import NetworkProfile, SimulatedChannel
from repro.services.exchange import run_optimized_exchange

from support import SCENARIOS

_SPEEDUPS: dict[str, float] = {}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_parallel_speedup(benchmark, scenario, size_labels, sources,
                          programs, fresh_target, channel, results):
    label = size_labels[-1]
    source_kind, target_kind = scenario.split("->")
    source = sources[(source_kind, label)]
    program, placement = programs[scenario]

    def run():
        target = fresh_target(target_kind)
        channel.reset()
        from repro.core.program.executor import ProgramExecutor

        report = ProgramExecutor(source, target, channel).run(
            program, placement
        )
        return simulate_parallel_makespan(
            program, placement, report, workers=4
        )

    estimate = benchmark.pedantic(run, rounds=1, iterations=1)
    _SPEEDUPS[scenario] = estimate.speedup
    results.record(
        "ablation-parallel", scenario, "independent groups",
        estimate.groups,
        title="Ablation: 4-way parallel execution (Section 5.2's "
              "unpursued opportunity)",
    )
    results.record(
        "ablation-parallel", scenario, "speedup x",
        round(estimate.speedup, 2),
    )


def test_parallel_shape():
    if len(_SPEEDUPS) < len(SCENARIOS):
        pytest.skip("run the sweep first")
    # MF->MF has 24 independent pieces; it must parallelize at least as
    # well as MF->LF whose three expressions are dominated by one.
    assert _SPEEDUPS["MF->MF"] >= _SPEEDUPS["MF->LF"] - 0.05
    assert _SPEEDUPS["MF->MF"] > 1.3


def test_measured_parallel_speedup(benchmark, size_labels, sources,
                                   programs, fresh_target, results):
    """Run the Figure 9 MF->MF scenario for real on the parallel
    executor and hold the simulator to its prediction.

    The channel sleeps its simulated transfer time, so the wall clock
    feels communication; the parallel executor must beat the
    sequential one by >= 1.3x while writing byte-identical fragments,
    and land within 2x of the ``simulate_parallel_makespan`` estimate.
    """
    label = size_labels[-1]
    source = sources[("MF", label)]
    program, placement = programs["MF->MF"]
    # A slow enough link that communication matters, as in the paper's
    # Internet setup (Table 3), but scaled to the test document sizes.
    profile = NetworkProfile(
        "bench-internet", bandwidth_bytes_per_second=400_000.0,
        latency_seconds=0.002,
    )

    def run_both():
        sequential_target = fresh_target("MF")
        channel = SimulatedChannel(profile, realtime=True)
        started = time.perf_counter()
        sequential_report = ProgramExecutor(
            source, sequential_target, channel
        ).run(program, placement)
        sequential_wall = time.perf_counter() - started

        parallel_target = fresh_target("MF")
        channel = SimulatedChannel(profile, realtime=True)
        parallel_report = ProgramExecutor(
            source, parallel_target, channel, workers=4
        ).run(program, placement)
        return (sequential_report, sequential_wall,
                parallel_report, sequential_target, parallel_target)

    (sequential_report, sequential_wall, parallel_report,
     sequential_target, parallel_target) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    # Byte-identical target fragments, whatever the schedule did.
    for fragment in sequential_target.fragmentation:
        table = sequential_target.mapper.table_name(fragment)
        assert parallel_target.db.table(table).rows == \
            sequential_target.db.table(table).rows, fragment.name

    measured = sequential_wall / parallel_report.wall_seconds
    estimate = simulate_parallel_makespan(
        program, placement, sequential_report, workers=4
    )
    results.record(
        "ablation-parallel-measured", "MF->MF", "sequential s",
        round(sequential_wall, 3),
        title="Ablation: measured 4-way parallel execution vs the "
              "makespan estimate (Figure 9 MF->MF, sleeping channel)",
    )
    results.record("ablation-parallel-measured", "MF->MF",
                   "parallel s", round(parallel_report.wall_seconds, 3))
    results.record("ablation-parallel-measured", "MF->MF",
                   "measured speedup x", round(measured, 2))
    results.record("ablation-parallel-measured", "MF->MF",
                   "simulated speedup x", round(estimate.speedup, 2))
    results.record(
        "ablation-parallel-measured", "MF->MF", "critical path s",
        round(parallel_report.critical_path_seconds, 3),
    )

    assert measured >= 1.3, (measured, estimate.speedup)
    # The estimator must be a checkable prediction: within 2x of what
    # the real executor delivers.
    ratio = max(measured, estimate.speedup) \
        / min(measured, estimate.speedup)
    assert ratio <= 2.0, (measured, estimate.speedup)
