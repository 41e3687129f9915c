"""Run one workload once: set up, measure for a fixed time, check.

An untraced run yields the end-to-end metrics; a traced run (proxies
on, spans recorded) yields the per-layer ones its workload owns.
Names, units and bounds live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from statistics import median

from bench.compare import ROOT_DIR, load_spec, quartiles
from bench.loop import ClosedLoop
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Workload

OUT_DIR = os.path.join(ROOT_DIR, ".bench_out")

#: Set-up is repeated so that ``setup_s`` is a median, not one draw:
#: three times, and where that takes under a second (``sessions-tcp``
#: sets up in a few hundredths) until a second has gone into it.
SETUP_REPEATS = (3, 15)
SETUP_SECONDS = 1.0

TRACE_OVERHEAD = "bench.trace_overhead_frac"
OP_MEDIAN = "bench.op_median_s"


def _result(loop: ClosedLoop, metrics: dict[str, float],
            owned: set[str], declared: list[dict], detail: dict) -> dict:
    """The run's outcome.  ``result`` is the contract's last-line
    object: it names every declared metric, and one this workload does
    not own reads 0 there — which is why ``metrics`` must be exactly
    the ``owned`` ones: a measurement that stopped working is an error,
    not a zero."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != owned or not owned <= set(units):
        raise RuntimeError(
            f"{detail['workload']}: not measured "
            f"{sorted(owned - set(metrics))}, measured but not owned "
            f"{sorted(set(metrics) - owned)}, not in BENCHMARK.json "
            f"{sorted(owned - set(units))}"
        )
    detail["metrics"] = metrics
    return {
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {
                name: {"value": metrics.get(name, 0.0), "unit": unit}
                for name, unit in units.items()
            },
        },
        "detail": detail,
    }


def run_untraced(kind: type[Workload], seed: int, seconds: float,
                 scale: float, spec: dict) -> dict:
    setups = []
    while True:
        workload = kind(seed, scale)
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        fewest, most = SETUP_REPEATS
        if len(setups) >= most or (
                len(setups) >= fewest and sum(setups) >= SETUP_SECONDS):
            break
        workload.teardown()
        del workload
        gc.collect()
    try:
        loop = ClosedLoop(workload)
        times = loop.run(seconds)
        # Before the oracle builds its publish&map reference, which is
        # the benchmark's memory and not the program's.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0
        loop.finish()
    finally:
        workload.teardown()
    if not times:
        raise RuntimeError(f"{kind.name}: no operation succeeded")
    q1, q2, q3 = quartiles(times)
    metrics = {
        "setup_s": median(setups),
        # Interference in a shared sandbox only ever adds time: of a
        # run's operations, the fastest is the one that repeats.
        "op_min_s": min(times),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "workload": kind.name, "seed": seed, "sizes": workload.sizes(),
        "operations": len(times), "op_name": kind.op_name,
        "op_s": {"q1": q1, "median": q2, "q3": q3},
        "comm_bytes": workload.comm_bytes,
        "setup_s_samples": setups,
    }
    every = {metric["name"] for metric in spec["end_to_end"]}
    return _result(loop, metrics, every, spec["end_to_end"], detail)


def run_traced(kind: type[Workload], seed: int, seconds: float,
               scale: float, spec: dict) -> dict:
    tracer = Tracer()
    workload = kind(seed, scale, tracer)
    workload.setup()
    try:
        loop = ClosedLoop(workload)
        # Traced and untraced operations alternate, so a workload that
        # drifts as it runs charges neither side for the drift.
        loop.run(seconds, alternate=True)
        loop.finish()
        traced = [loop.seconds[index] for index in loop.traced]
        untraced = [
            seconds for index, seconds in loop.seconds.items()
            if index not in loop.traced
        ]
        if not traced or not untraced:
            raise RuntimeError(f"{kind.name}: no operation succeeded")
        layers = workload.layers(sorted(loop.traced), loop.seconds)
        layers[TRACE_OVERHEAD] = median(traced) / median(untraced) - 1.0
        layers[OP_MEDIAN] = median(untraced)
    finally:
        workload.teardown()
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"trace-{kind.name}-{seed}.jsonl"
    )
    tracer.dump(trace_path)
    detail = {
        "workload": kind.name, "seed": seed, "sizes": workload.sizes(),
        "operations": len(traced), "spans": len(tracer.spans),
        "trace_file": os.path.relpath(trace_path, ROOT_DIR),
        "traced_op_s": median(traced),
    }
    return _result(
        loop, layers, {*kind.layer_names, TRACE_OVERHEAD, OP_MEDIAN},
        spec["per_layer"], detail,
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """One run of one workload: ``{"result": ..., "detail": ...}``
    where ``result`` is the contract's last-line object and
    ``detail["metrics"]`` the metrics the workload owns."""
    spec = load_spec()
    run = run_traced if trace else run_untraced
    return run(WORKLOADS[name], seed, seconds, scale, spec)
