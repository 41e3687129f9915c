"""Ablation — the streaming batch dataplane vs materialized transfer.

Sweeps ``batch_rows`` over {None, 64, 512} on the Figure 9 MF->MF
scenario over a sleeping channel (the wall clock feels communication,
as in the paper's Internet setup).  Materialized transfer holds whole
fragment feeds resident and serializes each edge behind its producer;
the streaming dataplane bounds ``peak_resident_rows`` by the batch
frontier and ships chunk *i* while chunk *i+1* is produced.  Smaller
batches buy a lower peak and more overlap at the price of per-message
latency — the sweep makes that trade-off measurable.

The measured sweep is written to ``BENCH_streaming.json`` at the repo
root (committed: the perf trajectory across PRs).
"""

import json
import pathlib
import time

import pytest

from repro.core.program.executor import ProgramExecutor
from repro.net.transport import NetworkProfile, SimulatedChannel

_BATCH_ROWS = (None, 64, 512)
_RESULTS: dict[str, dict[str, float]] = {}

_PROFILE = NetworkProfile(
    "bench-internet", bandwidth_bytes_per_second=400_000.0,
    latency_seconds=0.002,
)


def _label(batch_rows):
    return "materialized" if batch_rows is None else str(batch_rows)


@pytest.mark.parametrize("batch_rows", _BATCH_ROWS,
                         ids=[_label(b) for b in _BATCH_ROWS])
def test_streaming_sweep(benchmark, batch_rows, size_labels, sources,
                         programs, fresh_target, results):
    label = size_labels[-1]
    source = sources[("MF", label)]
    program, placement = programs["MF->MF"]

    def run():
        target = fresh_target("MF")
        channel = SimulatedChannel(_PROFILE, realtime=True)
        started = time.perf_counter()
        report = ProgramExecutor(
            source, target, channel, batch_rows=batch_rows
        ).run(program, placement)
        wall = time.perf_counter() - started
        return report, wall, target

    report, wall, target = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert target.total_rows() == source.total_rows()

    row = _label(batch_rows)
    _RESULTS[row] = {
        "batch_rows": batch_rows,
        "peak_resident_rows": report.peak_resident_rows,
        "wall_seconds": round(wall, 4),
        "comm_seconds": round(report.comm_seconds, 4),
        "shipment_batches": sum(
            report.shipment_batches.values()
        ) or report.shipments,
        "rows_per_second": round(report.rows_written / wall, 1),
    }
    results.record(
        "ablation-streaming", row, "peak rows",
        report.peak_resident_rows,
        title="Ablation: streaming dataplane batch-size sweep "
              "(Figure 9 MF->MF, sleeping channel)",
    )
    results.record("ablation-streaming", row, "wall s", round(wall, 3))
    results.record("ablation-streaming", row, "rows/s",
                   round(report.rows_written / wall, 1))


def test_streaming_shape_and_trajectory_file(results):
    if len(_RESULTS) < len(_BATCH_ROWS):
        pytest.skip("run the sweep first")
    materialized = _RESULTS["materialized"]
    fine = _RESULTS["64"]
    coarse = _RESULTS["512"]
    # The acceptance bound: batching strictly lowers the resident peak.
    assert fine["peak_resident_rows"] < \
        materialized["peak_resident_rows"]
    assert coarse["peak_resident_rows"] <= \
        materialized["peak_resident_rows"]
    # Finer batches can only lower the frontier further.
    assert fine["peak_resident_rows"] <= coarse["peak_resident_rows"]

    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_streaming.json"
    payload = {
        "experiment": "streaming-ablation",
        "scenario": "MF->MF",
        "document": "25MB ladder entry x REPRO_SCALE",
        "channel": {
            "bandwidth_bytes_per_second":
                _PROFILE.bandwidth_bytes_per_second,
            "latency_seconds": _PROFILE.latency_seconds,
            "realtime": True,
        },
        "sweep": _RESULTS,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    results.note(
        "ablation-streaming",
        f"trajectory written to {out.name}",
    )
