"""The learned-statistics store: EWMA smoothing,
probe correction, JSON persistence, thread safety, and the broker
feeding it."""

import itertools
import json
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
from repro.obs.metrics import MetricsRegistry
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import RelationalEndpoint

PAIR = pair_key("s", "t")


class TestBasics:
    def test_pair_key(self):
        assert pair_key("alpha", "beta") == "alpha->beta"

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            StatisticsStore(alpha=alpha)

    def test_scale_estimate_ewma(self):
        estimate = ScaleEstimate(2.0)
        estimate.update(4.0, alpha=0.5)
        assert estimate.value == pytest.approx(3.0)
        assert estimate.observations == 2
        estimate.update(3.0, alpha=0.5, weight=4)
        assert estimate.value == pytest.approx(3.0)
        assert estimate.observations == 6

    def test_empty_store(self):
        store = StatisticsStore()
        assert len(store) == 0
        assert store.to_dict()["ratios"] == {}
        assert store.ratios(PAIR) == {}
        assert store.observations(PAIR, "combine") == 0


class TestIngestion:
    def test_observe_ratios_smooths(self):
        store = StatisticsStore(alpha=0.5)
        store.observe_ratios(PAIR, {"scan": 2.0})
        assert store.ratios(PAIR) == {"scan": 2.0}
        store.observe_ratios(PAIR, {"scan": 4.0})
        assert store.ratios(PAIR)["scan"] == pytest.approx(3.0)
        assert store.ingests == 2

    def test_nonpositive_ratios_skipped(self):
        store = StatisticsStore()
        store.observe_ratios(PAIR, {"scan": 0.0, "combine": -2.0})
        assert store.ratios(PAIR) == {}

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


class TestPersistence:
    def _populated(self):
        store = StatisticsStore(alpha=0.4)
        store.observe_ratios(PAIR, {"scan": 1.5, "comm": 2.5})
        store.observe_ratios("t->s", {"combine": 0.25})
        return store

    def test_dict_roundtrip(self):
        store = self._populated()
        clone = StatisticsStore.from_dict(store.to_dict())
        assert clone.to_dict() == store.to_dict()
        assert clone.alpha == 0.4
        assert clone.ratios(PAIR) == store.ratios(PAIR)
        assert clone.observations(PAIR, "scan") \
            == store.observations(PAIR, "scan")

    def test_save_load_roundtrip(self, tmp_path):
        store = self._populated()
        path = tmp_path / "stats.json"
        store.save(path)
        loaded = StatisticsStore.load(path)
        assert loaded.to_dict() == store.to_dict()

    def test_older_store_with_scales_still_loads(self, tmp_path):
        """A store written while the seconds-per-unit view existed
        carries a ``scales`` table: it loads, the table is dropped and
        the ratios survive."""
        path = tmp_path / "stats.json"
        path.write_text(json.dumps({
            "alpha": 0.3, "warmup": 3, "ingests": 4,
            "scales": {PAIR: {"scan.columnar": [2.5e-07, 12]}},
            "ratios": {PAIR: {"scan.columnar": [1.5, 2],
                              "comm": [0.8, 2]}},
        }), encoding="utf-8")
        store = StatisticsStore.load(path)
        assert store.ratios(PAIR) == {"scan.columnar": 1.5, "comm": 0.8}
        assert store.observations(PAIR, "comm") == 2
        assert store.ingests == 4
        assert "scales" not in store.to_dict()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            StatisticsStore.load(path)


class TestThreadSafety:
    def test_concurrent_ingestion(self):
        store = StatisticsStore(alpha=1.0)
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
        assert store.observations("s->0", "scan") == 4 * rounds
        assert store.ratios("s->0")["scan"] == pytest.approx(2.0)


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
        assert store.observations(pair, "comm") == 2
        assert metrics.counter("adapt.stats.drifts").value == 2
        assert metrics.counter("optimizer.runs").value == 1
