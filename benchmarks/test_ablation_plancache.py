"""Ablation — negotiated-plan cache: cold vs warm repeated exchanges.

Runs the Figure 9 MF->LF exchange ``N_REPEATS`` times through the
discovery agency, once renegotiating from scratch every time (cold) and
once against a :class:`~repro.services.broker.PlanCache` (warm: the
first exchange pays the optimizer, every later negotiation is a cache
hit that hands out the plan the optimizer built).  The per-exchange latency —
negotiation plus the exchange itself — is what a requester in a
multi-session deployment observes.

The measured trajectory is written to ``BENCH_plancache.json`` at the
repo root, alongside the simulator's predicted amortization for the
same pair (:meth:`~repro.sim.simulator.ExchangeSimulator.
repeated_exchange_costs`).
"""

import json
import pathlib
import time

import pytest

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, MachineProfile
from repro.net.transport import SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.services.agency import DiscoveryAgency
from repro.services.broker import PlanCache
from repro.services.exchange import run_optimized_exchange
from repro.sim.simulator import ExchangeSimulator

_N_REPEATS = 4
_SCENARIO = "MF->LF"
_RESULTS: dict[str, dict] = {}


def _repeated_exchanges(schema, source, fragmentations, fresh_target,
                        plan_cache):
    """Per-exchange latencies of ``_N_REPEATS`` identical exchanges."""
    agency = DiscoveryAgency(schema)
    agency.register("src", fragmentations["MF"], source)
    agency.register("tgt", fragmentations["LF"])
    model = CostModel(StatisticsCatalog.synthetic(schema))
    metrics = MetricsRegistry()
    latencies = []
    cached_flags = []
    for _ in range(_N_REPEATS):
        started = time.perf_counter()
        plan = agency.negotiate(
            "src", "tgt", optimizer="optimal", probe=model,
            plan_cache=plan_cache, metrics=metrics,
        )
        target = fresh_target("LF")
        outcome = run_optimized_exchange(
            plan.annotate(), plan.placement, source, target,
            SimulatedChannel(), _SCENARIO,
        )
        assert outcome.rows_written > 0
        latencies.append(time.perf_counter() - started)
        cached_flags.append(plan.cached)
    return latencies, cached_flags, metrics


@pytest.mark.parametrize("mode", ["cold", "warm"])
def test_plancache_repeats(benchmark, mode, schema, sources,
                           fragmentations, size_labels, fresh_target,
                           results):
    source = sources[("MF", size_labels[-1])]
    plan_cache = PlanCache() if mode == "warm" else None

    def run():
        return _repeated_exchanges(
            schema, source, fragmentations, fresh_target, plan_cache
        )

    latencies, cached_flags, metrics = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    optimizer_runs = int(metrics.counter("optimizer.runs").value)
    if mode == "warm":
        # The acceptance check: only the first exchange optimized.
        assert optimizer_runs == 1
        assert cached_flags == [False] + [True] * (_N_REPEATS - 1)
    else:
        assert optimizer_runs == _N_REPEATS
        assert not any(cached_flags)
    _RESULTS[mode] = {
        "per_exchange_seconds": [round(s, 4) for s in latencies],
        "total_seconds": round(sum(latencies), 4),
        "first_exchange_seconds": round(latencies[0], 4),
        "later_exchanges_mean_seconds": round(
            sum(latencies[1:]) / (_N_REPEATS - 1), 4
        ),
        "optimizer_runs": optimizer_runs,
    }
    results.record(
        "ablation-plancache", mode, "total s",
        round(sum(latencies), 3),
        title=f"Ablation: plan cache on {_N_REPEATS} repeated "
              f"{_SCENARIO} exchanges (optimal optimizer)",
    )
    results.record("ablation-plancache", mode, "exchange 1 s",
                   round(latencies[0], 3))
    results.record(
        "ablation-plancache", mode, "later mean s",
        round(sum(latencies[1:]) / (_N_REPEATS - 1), 3),
    )
    results.record("ablation-plancache", mode, "optimizer runs",
                   optimizer_runs)


def test_plancache_shape_and_trajectory_file(schema, fragmentations,
                                             results):
    if len(_RESULTS) < 2:
        pytest.skip("run both modes first")
    cold = _RESULTS["cold"]
    warm = _RESULTS["warm"]
    # The acceptance bounds: a warm cache pays the optimizer once, so
    # the repeated stream is strictly cheaper than cold renegotiation,
    # exchange by exchange past the first.
    assert warm["total_seconds"] < cold["total_seconds"]
    assert warm["later_exchanges_mean_seconds"] < \
        cold["later_exchanges_mean_seconds"]
    assert warm["optimizer_runs"] == 1
    assert cold["optimizer_runs"] == _N_REPEATS

    predicted = ExchangeSimulator(schema).repeated_exchange_costs(
        fragmentations["MF"], fragmentations["LF"],
        MachineProfile("s"), MachineProfile("t"),
        n_exchanges=_N_REPEATS,
    )
    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_plancache.json"
    payload = {
        "experiment": "plancache-ablation",
        "scenario": _SCENARIO,
        "document": "25MB ladder entry x REPRO_SCALE",
        "n_exchanges": _N_REPEATS,
        "optimizer": "optimal",
        "measured": _RESULTS,
        "measured_speedup": round(
            cold["total_seconds"] / warm["total_seconds"], 3
        ),
        "simulated": {
            "per_exchange_cost": round(
                predicted.per_exchange_cost, 4
            ),
            "optimizer_seconds": round(
                predicted.optimizer_seconds, 4
            ),
            "cold_total": round(predicted.cold_total, 4),
            "warm_total": round(predicted.warm_total, 4),
            "speedup": round(predicted.speedup, 3),
        },
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    results.note(
        "ablation-plancache",
        f"trajectory written to {out.name} "
        f"(measured speedup "
        f"{cold['total_seconds'] / warm['total_seconds']:.2f}x)",
    )
