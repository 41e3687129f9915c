"""Smoke tests of the benchmark itself (``pytest bench/tests``; not
part of Tier-1's ``testpaths``)."""

import math

import pytest

from bench import adapter
from bench.compare import compare, verdict
from bench.runner import (
    OP_MEDIAN,
    TRACE_OVERHEAD,
    load_spec,
    run_workload,
)
from bench.workloads import WORKLOADS, BulkRow

SPEC = load_spec()
TINY = {"seed": 3, "seconds": 0.2, "scale": 0.04}


def test_spec_names_the_workloads_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(name):
    result = run_workload(name, trace=False, **TINY)["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        metric["name"] for metric in SPEC["end_to_end"]
    }
    for metric, reading in result["metrics"].items():
        assert math.isfinite(reading["value"]), metric
        assert reading["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_owned_per_layer_metric_is_emitted(name):
    run = run_workload(name, trace=True, **TINY)
    result, owned = run["result"], run["detail"]["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert set(owned) == {
        *WORKLOADS[name].layer_names, TRACE_OVERHEAD, OP_MEDIAN,
    }
    for metric, value in owned.items():
        assert math.isfinite(value), metric
    # The contract's object names every declared metric; what the
    # workload does not own reads 0 there.
    assert set(result["metrics"]) == {
        metric["name"] for metric in SPEC["per_layer"]
    }
    assert all(
        reading["value"] == owned.get(metric, 0.0)
        for metric, reading in result["metrics"].items()
    )


def test_every_per_layer_metric_has_an_owner():
    owners = {name for kind in WORKLOADS.values()
              for name in kind.layer_names}
    assert owners | {TRACE_OVERHEAD, OP_MEDIAN} == {
        metric["name"] for metric in SPEC["per_layer"]
    }


def test_a_layer_that_stops_measuring_is_an_error(monkeypatch):
    measured = BulkRow.layers

    def broken(self, traced, seconds):
        layers = measured(self, traced, seconds)
        del layers["relational.scan_s"]
        return layers

    monkeypatch.setattr(BulkRow, "layers", broken)
    with pytest.raises(RuntimeError, match="relational.scan_s"):
        run_workload("bulk-row", trace=True, **TINY)


def test_oracle_trips_on_a_corrupted_target_row():
    workload = BulkRow(TINY["seed"], TINY["scale"])
    workload.setup()
    try:
        workload.prepare(0, False)
        assert workload.verify(0, workload.operate(0, False))
        assert workload.verify_final()
        adapter.corrupt_one_row(workload.target)
        assert not workload.verify_final()
    finally:
        workload.teardown()


def _record(op_s, comm_bytes=(1000, 1000, 1000), seeds=(3, 4, 5)):
    return {"workloads": {"bulk-row": {
        "failed": 0, "seeds": list(seeds),
        "comm_bytes": list(comm_bytes),
        "end_to_end": {
            "op_min_s": {"median": op_s[1], "values": list(op_s)},
        },
    }}}


def _verdicts(base, change):
    return {row["metric"]: row["verdict"]
            for row in compare(base, change, SPEC)}


def test_compare_flags_a_slowdown_beyond_the_bound():
    bound = next(metric["bound"] for metric in SPEC["end_to_end"]
                 if metric["name"] == "op_min_s")
    base = [0.50, 0.51, 0.52]
    slower = [t * (1 + bound + 0.05) for t in base]
    assert _verdicts(_record(base), _record(slower)) == {
        "op_min_s": "regression", "comm_bytes": "ok",
    }
    assert _verdicts(
        _record(base), _record([t * 1.02 for t in base])
    )["op_min_s"] == "ok"


def test_compare_does_not_resolve_what_the_spread_hides():
    noisy = [0.40, 0.50, 0.60]
    assert verdict(noisy, [t * 1.05 for t in noisy], "lower", 0.1)[0] \
        == "unresolved"
    assert verdict(noisy, [0.30, 0.31, 0.32], "lower", 0.1)[0] == "ok"


def test_compare_gates_comm_bytes_exactly_at_equal_seeds():
    times = [0.50, 0.51, 0.52]
    one_more = _record(times, comm_bytes=(1000, 1000, 1001))
    assert _verdicts(_record(times), one_more)["comm_bytes"] \
        == "regression"
    fewer = _record(times, comm_bytes=(1000, 999, 1000))
    assert _verdicts(_record(times), fewer)["comm_bytes"] == "changed"
    # Other seeds are other documents: nothing to compare.
    assert "comm_bytes" not in _verdicts(
        _record(times),
        _record(times, comm_bytes=(1000, 1000, 1001), seeds=(6, 7, 8)),
    )


def test_compare_fails_on_what_the_change_record_lacks():
    base = _record([0.50, 0.51, 0.52])
    assert set(_verdicts(base, {"workloads": {}}).values()) \
        == {"missing"}
    lacking = _record([0.50, 0.51, 0.52])
    del lacking["workloads"]["bulk-row"]["comm_bytes"]
    del lacking["workloads"]["bulk-row"]["end_to_end"]["op_min_s"]
    assert _verdicts(base, lacking) == {
        "op_min_s": "missing", "comm_bytes": "missing",
    }
