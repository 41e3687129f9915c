"""The learned-statistics store: EWMA smoothing, the key check,
probe correction, JSON persistence, thread safety, learning from real
runs, and the broker feeding it."""

import itertools
import json
import math
import threading

import pytest

from repro.adapt.stats import (
    ScaledProbe,
    ScaleEstimate,
    StatisticsStore,
    pair_key,
)
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.mapping import derive_mapping
from repro.core.ops import Combine
from repro.core.ops.base import Location
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.net.transport import SimulatedChannel
from repro.obs.drift import DriftReport, OpDrift
from repro.obs.metrics import MetricsRegistry
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import RelationalEndpoint

PAIR = pair_key("s", "t")


def observations(store, pair, key):
    """Evidence count behind one key, read off the persisted form."""
    return store.to_dict()["ratios"][pair][key][1]


class TestBasics:
    def test_pair_key(self):
        assert pair_key("alpha", "beta") == "alpha->beta"

    def test_scale_estimate_ewma(self):
        estimate = ScaleEstimate(2.0)
        estimate.update(4.0)
        # 0.7 * 2.0 + 0.3 * 4.0
        assert estimate.value == pytest.approx(2.6)
        assert estimate.observations == 2
        estimate.update(3.0)
        assert estimate.value == pytest.approx(0.7 * 2.6 + 0.3 * 3.0)
        assert estimate.observations == 3

    def test_empty_store(self):
        store = StatisticsStore()
        assert len(store) == 0
        assert store.to_dict() == {"ingests": 0, "ratios": {}}
        assert store.ratios(PAIR) == {}


class TestIngestion:
    def test_observe_ratios_smooths(self):
        store = StatisticsStore()
        store.observe_ratios(PAIR, {"scan": 2.0})
        assert store.ratios(PAIR) == {"scan": 2.0}
        store.observe_ratios(PAIR, {"scan": 4.0})
        assert store.ratios(PAIR)["scan"] == pytest.approx(2.6)
        assert store.ingests == 2

    def test_nonpositive_ratios_skipped(self):
        metrics = MetricsRegistry()
        store = StatisticsStore(metrics=metrics)
        store.observe_ratios(PAIR, {"scan": 0.0, "combine": -2.0})
        assert store.ratios(PAIR) == {}
        assert metrics.counter("adapt.stats.dropped_keys").value == 2

    def test_nan_observation_does_not_stick(self):
        """A NaN never enters the table, so the next finite
        observation is read as is instead of being swallowed by a
        NaN average."""
        metrics = MetricsRegistry()
        store = StatisticsStore(metrics=metrics)
        store.observe_ratios(PAIR, {"scan": math.nan})
        store.observe_ratios(PAIR, {"scan": 2.0})
        assert store.ratios(PAIR) == {"scan": 2.0}
        assert metrics.counter("adapt.stats.dropped_keys").value == 1

    def test_unpriced_keys_dropped(self):
        """Only what the optimizer prices is learned: a strategy- or
        dataplane-qualified key is dropped and counted."""
        metrics = MetricsRegistry()
        store = StatisticsStore(metrics=metrics)
        store.observe_ratios(PAIR, {
            "combine.aligned": 2.0, "scan.columnar": 3.0,
            "index": 4.0, "write": 1.5,
        })
        assert store.ratios(PAIR) == {"write": 1.5}
        assert metrics.counter("adapt.stats.dropped_keys").value == 3
        assert metrics.counter("adapt.stats.ratio_updates").value == 1

    def test_metrics_mirrored(self):
        metrics = MetricsRegistry()
        store = StatisticsStore(metrics=metrics)
        store.observe_ratios(PAIR, {"scan": 1.5, "comm": 2.0})
        assert metrics.counter("adapt.stats.drifts").value == 1
        assert metrics.counter("adapt.stats.ratio_updates").value == 2


class TestLearnedViews:
    def test_scaled_probe_identity_without_evidence(self):
        store = StatisticsStore()
        probe = object()
        assert store.scaled_probe(PAIR, probe) is probe

    def test_scaled_probe_pops_comm(self):
        store = StatisticsStore()
        base = object()
        store.observe_ratios(PAIR, {"combine": 2.0, "comm": 3.0})
        scaled = store.scaled_probe(PAIR, base)
        assert isinstance(scaled, ScaledProbe)
        assert scaled.base is base
        assert scaled.kind_scales == {"combine": 2.0}
        assert scaled.comm_scale == pytest.approx(3.0)

    def test_combine_observed_after_stale_strategy_key(
            self, auction_mf, auction_lf, auction_schema):
        """A store persisted while ratios were keyed by join strategy
        holds ``combine.merge``; Combines observed afterwards, whatever
        strategy they ran, are what prices a Combine."""
        store = StatisticsStore.from_dict({
            "ingests": 3,
            "ratios": {PAIR: {"combine.merge": [4.0, 3]}},
        })
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        combine = next(
            node for node in program.nodes if isinstance(node, Combine)
        )
        report = DriftReport(ops=[OpDrift(
            combine.op_id, combine.label(), "combine", Location.SOURCE,
            predicted=1.0, measured_seconds=1.0, rows=10,
            strategy="aligned",
        )])
        for _ in range(5):
            store.observe_drift(PAIR, report)
        model = CostModel(StatisticsCatalog.synthetic(auction_schema))
        scaled = store.scaled_probe(PAIR, model)
        base = model.comp_cost(combine, Location.SOURCE)
        assert scaled.comp_cost(combine, Location.SOURCE) \
            == pytest.approx(base, rel=0.1)


class TestPersistence:
    def _populated(self):
        store = StatisticsStore()
        store.observe_ratios(PAIR, {"scan": 1.5, "comm": 2.5})
        store.observe_ratios("t->s", {"combine": 0.25})
        return store

    def test_dict_roundtrip(self):
        store = self._populated()
        clone = StatisticsStore.from_dict(store.to_dict())
        assert clone.to_dict() == store.to_dict()
        assert clone.ratios(PAIR) == store.ratios(PAIR)

    def test_save_load_roundtrip(self, tmp_path):
        store = self._populated()
        path = tmp_path / "stats.json"
        store.save(path)
        loaded = StatisticsStore.load(path)
        assert loaded.to_dict() == store.to_dict()

    def test_older_store_with_scales_still_loads(self, tmp_path):
        """A store written while ratios were keyed by strategy, and
        while the seconds-per-unit view existed, loads: its ``alpha``,
        ``warmup`` and ``scales`` fields are ignored, the strategy key
        no run produces any more is dropped and counted, and ``comm``
        survives."""
        path = tmp_path / "stats.json"
        path.write_text(json.dumps({
            "alpha": 0.3, "warmup": 3, "ingests": 4,
            "scales": {PAIR: {"scan.columnar": [2.5e-07, 12]}},
            "ratios": {PAIR: {"scan.columnar": [1.5, 2],
                              "comm": [0.8, 2]}},
        }), encoding="utf-8")
        metrics = MetricsRegistry()
        store = StatisticsStore.load(path, metrics=metrics)
        assert store.ratios(PAIR) == {"comm": 0.8}
        assert observations(store, PAIR, "comm") == 2
        assert store.ingests == 4
        assert metrics.counter("adapt.stats.dropped_keys").value == 1
        assert store.to_dict() == {
            "ingests": 4, "ratios": {PAIR: {"comm": [0.8, 2]}},
        }

    def test_infinite_ratio_is_never_priced(self, tmp_path,
                                            auction_schema,
                                            auction_mf):
        """``json`` reads ``Infinity``: a loaded infinite ratio is
        dropped like any other bad value, so every shipment still has
        a finite price."""
        path = tmp_path / "stats.json"
        path.write_text(
            '{"ingests": 1, "ratios": {"s->t": '
            '{"comm": [Infinity, 1], "scan": [2.0, 1]}}}',
            encoding="utf-8",
        )
        metrics = MetricsRegistry()
        store = StatisticsStore.load(path, metrics=metrics)
        model = CostModel(StatisticsCatalog.synthetic(auction_schema))
        scaled = store.scaled_probe(PAIR, model)
        fragment = auction_mf.fragment_of("item")
        assert math.isfinite(scaled.comm_cost(fragment))
        assert scaled.comm_cost(fragment) == pytest.approx(
            2.0 * model.comm_cost(fragment)
        )
        assert metrics.counter("adapt.stats.dropped_keys").value == 1

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            StatisticsStore.load(path)


class TestThreadSafety:
    def test_concurrent_ingestion(self):
        store = StatisticsStore()
        rounds = 50

        def worker(pair):
            for _ in range(rounds):
                store.observe_ratios(pair, {"scan": 2.0})

        threads = [
            threading.Thread(target=worker, args=(f"s->{i % 2}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.ingests == 8 * rounds
        assert observations(store, "s->0", "scan") == 4 * rounds
        assert store.ratios("s->0")["scan"] == pytest.approx(2.0)


class TestLearningFromRuns:
    """One real MF->LF run priced by a cost model over the document's
    statistics, learned into the store."""

    @pytest.fixture(scope="class")
    def learned(self, auction_mf, auction_lf, auction_document,
                auction_schema):
        source = RelationalEndpoint("learn-src", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)
        report = ProgramExecutor(
            source, RelationalEndpoint("learn-tgt", auction_lf),
            SimulatedChannel(),
        ).run(program, placement)
        model = CostModel(StatisticsCatalog.from_document(
            auction_schema, auction_document
        ))
        store = StatisticsStore()
        store.observe_run(PAIR, program, placement, report, model)
        return store, program, placement, report, model

    def test_keys_are_the_priced_kinds(self, learned):
        store = learned[0]
        # The MF->LF program has no Split; every Combine's aligned or
        # hash strategy is a label, not a key.
        assert set(store.ratios(PAIR)) == {
            "scan", "combine", "write", "comm",
        }
        assert all(ratio > 0 for ratio in store.ratios(PAIR).values())

    def test_learned_probe_predicts_the_run(self, learned):
        store, program, placement, report, model = learned
        scaled = store.scaled_probe(PAIR, model)
        predicted = sum(
            scaled.comp_cost(node, placement[node.op_id])
            for node in program.nodes
        ) + sum(
            scaled.comm_cost(edge.fragment)
            for edge in program.cross_edges(placement)
        )
        measured = sum(
            timing.seconds for timing in report.op_timings
        ) + sum(report.shipment_seconds.values())
        assert measured > 0
        assert 0.5 <= predicted / measured <= 2.0


class TestInProcessRun:
    def test_unmeasured_comm_is_no_evidence(self, auction_mf,
                                            auction_lf,
                                            auction_document,
                                            auction_schema):
        """With no channel every shipment measures 0 s: that is no
        evidence about ``comm``, so the run yields no ``comm`` ratio
        and drops no key."""
        source = RelationalEndpoint("inproc-src", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)
        report = ProgramExecutor(
            source, RelationalEndpoint("inproc-tgt", auction_lf),
        ).run(program, placement)
        assert program.cross_edges(placement)
        assert sum(report.shipment_seconds.values()) == 0.0
        metrics = MetricsRegistry()
        store = StatisticsStore(metrics=metrics)
        store.observe_run(
            PAIR, program, placement, report,
            CostModel(StatisticsCatalog.synthetic(auction_schema)),
        )
        assert "comm" not in store.ratios(PAIR)
        assert set(store.ratios(PAIR)) == {"scan", "combine", "write"}
        assert metrics.counter("adapt.stats.dropped_keys").value == 0


class TestBrokerIntegration:
    def test_two_sessions_feed_comm_evidence(
            self, auction_schema, auction_mf, auction_lf,
            auction_document):
        """Two brokered sessions priced by a cost model feed one pair
        through ``observe_drift`` after each run, ``comm`` included,
        and learning never costs a cold negotiation."""
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        agency = DiscoveryAgency(auction_schema)
        agency.register("src", auction_mf, source)
        agency.register("tgt", auction_lf)
        metrics = MetricsRegistry()
        store = StatisticsStore(metrics=metrics)
        ids = itertools.count()
        with ExchangeBroker(
                agency, plan_cache=PlanCache(metrics=metrics),
                max_workers=2, metrics=metrics, stats_store=store,
                probe=CostModel(
                    StatisticsCatalog.synthetic(auction_schema)
                )) as broker:
            sessions = broker.run([(
                "src", "tgt",
                lambda: RelationalEndpoint(f"T{next(ids)}", auction_lf),
            )] * 2)
        assert all(session.outcome.rows_written > 0
                   for session in sessions)
        pair = pair_key("src", "tgt")
        assert list(store.to_dict()["ratios"]) == [pair]
        assert store.ingests == 2
        assert observations(store, pair, "comm") == 2
        assert metrics.counter("adapt.stats.drifts").value == 2
        assert metrics.counter("optimizer.runs").value == 1
