"""Ablation — the cost of observing the exchange.

The tracing layer promises a documented no-op fast path: with no
tracer configured every call site dispatches to ``NULL_TRACER`` and
nothing else happens, so tracing-off runs must be indistinguishable
from the pre-observability executor.  With a live tracer every
operation, shipment, and step records one span — bounded, append-only
work that must stay under a few percent of the Figure 9 MF->MF run.

Measured numbers land in ``BENCH_tracing.json`` at the repo root.
"""

import json
import pathlib
import statistics
import time

import pytest

from repro.core.program.executor import ProgramExecutor
from repro.net.transport import SimulatedChannel
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer

#: Interleaved off/on pairs.  Which side runs first alternates, and
#: the median of the per-pair on/off ratios is what is asserted: two
#: sequential best-of blocks let load that drifts between the blocks
#: read as overhead (or hide it), at ~5 ms a run.
_PAIRS = 15

_RESULTS: dict[str, object] = {}


def _run_once(sources, programs, fresh_target, label, tracer,
              metrics):
    source = sources[("MF", label)]
    program, placement = programs["MF->MF"]
    executor = ProgramExecutor(
        source, fresh_target("MF"), SimulatedChannel(),
        tracer=tracer, metrics=metrics,
    )
    started = time.perf_counter()
    report = executor.run(program, placement)
    return time.perf_counter() - started, report


def _paired(sources, programs, fresh_target, label):
    """Median off and on seconds, the median paired on/off ratio and
    the spans of the last traced run."""
    offs, ons, ratios = [], [], []
    spans = 0
    for index in range(_PAIRS):
        walls = {}
        first = index % 2 == 0
        for traced in (first, not first):
            tracer = Tracer() if traced else None
            walls[traced], _ = _run_once(
                sources, programs, fresh_target, label, tracer,
                MetricsRegistry() if traced else None,
            )
            if tracer is not None:
                spans = len(tracer.spans)
        offs.append(walls[False])
        ons.append(walls[True])
        ratios.append(walls[True] / max(walls[False], 1e-9))
    return (statistics.median(offs), statistics.median(ons),
            statistics.median(ratios), spans)


def test_tracing_overhead(benchmark, sources, programs, fresh_target,
                          size_labels, results):
    label = size_labels[-1]

    def measure():
        return _paired(sources, programs, fresh_target, label)

    _RESULTS["document"] = label

    off, on, ratio, spans = benchmark.pedantic(measure, rounds=1,
                                               iterations=1)
    _RESULTS.update({
        "tracing_off_seconds": round(off, 5),
        "tracing_on_seconds": round(on, 5),
        "overhead_ratio": round(ratio, 4),
        "spans_recorded": spans,
    })
    results.record(
        "ablation-tracing", "MF->MF program phase", "off s",
        round(off, 4),
        title="Ablation: tracing overhead on the Figure 9 MF->MF run",
    )
    results.record("ablation-tracing", "MF->MF program phase", "on s",
                   round(on, 4))
    results.record("ablation-tracing", "MF->MF program phase",
                   "median on/off", round(ratio, 3))
    results.record("ablation-tracing", "MF->MF program phase",
                   "spans", spans)


def test_null_tracer_dispatch_is_nanoseconds(results):
    """The no-op fast path: a NULL_TRACER.record call must cost on the
    order of a method dispatch, not a lock acquisition."""
    calls = 100_000
    started = time.perf_counter()
    for _ in range(calls):
        NULL_TRACER.record("x", "op", seconds=0.0)
    per_call = (time.perf_counter() - started) / calls
    _RESULTS["null_record_nanoseconds"] = round(per_call * 1e9, 1)
    results.record(
        "ablation-tracing", "NULL_TRACER.record", "ns/call",
        round(per_call * 1e9, 1),
    )
    # Generous bound: even a slow interpreter dispatches a no-op
    # method in well under 5 µs.
    assert per_call < 5e-6


def test_tracing_shape_and_bench_file(results):
    if "overhead_ratio" not in _RESULTS:
        pytest.skip("run the measuring bench first")
    # Acceptance: tracing-on stays under 5% of the untraced run, and
    # a real trace was actually recorded while measuring it.
    assert _RESULTS["spans_recorded"] > 0
    assert _RESULTS["overhead_ratio"] < 1.05, _RESULTS

    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_tracing.json"
    payload = {
        "experiment": "tracing-ablation",
        "scenario": "MF->MF",
        "pairs": _PAIRS,
        **_RESULTS,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    results.note(
        "ablation-tracing",
        f"measurements written to {out.name}",
    )
