"""Differential suite: adaptive execution is byte-identical to static.

Two families of assertions:

* **Forced replans** — with ``replan_threshold <= 0`` every checkpoint
  replans the suffix under whatever (noisy, wall-clock) ratios were
  observed.  Whatever the replan decides, the published target document
  must equal the static run's, across every dataplane.
* **A deliberate placement flip** — the plan is negotiated against a
  probe that overprices Combine 4x; injected feedback reveals the true
  model mid-flight, the run re-places the suffix (``ops_moved > 0``,
  realized cost strictly improves), and the output is still identical.
  The flip scenarios are chosen so an *earlier* segment's combine
  always yields the evidence before the mis-placed one starts,
  whatever topological order the builder emits.
"""

import random

import pytest

from repro.adapt.executor import AdaptiveConfig, AdaptiveRun
from repro.adapt.replan import ScaledProbe
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, MachineProfile
from repro.core.mapping import derive_mapping
from repro.core.optimizer.exhaustive import cost_based_optim
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.program.journal import ExchangeJournal
from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.schema.generator import random_schema
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import run_optimized_exchange
from repro.workloads.docgen import generate_document
from tests.integration.test_random_roundtrips import flat_fragmentation

DATAPLANES = [
    pytest.param(1, None, id="sequential"),
    pytest.param(1, 7, id="streaming"),
    pytest.param(2, None, id="parallel"),
    # Every stream here is columnar (flat fragmentations); the id
    # dates from when that was a knob this cell alone turned on.
    pytest.param(2, 4, id="parallel-columnar"),
]


def _case(schema_seed, rng_seed, size=10, repeat_prob=0.4):
    schema = random_schema(size, seed=schema_seed,
                           repeat_prob=repeat_prob)
    rng = random.Random(rng_seed)
    source_frag = flat_fragmentation(schema, rng, "A")
    target_frag = flat_fragmentation(schema, rng, "B")
    document = generate_document(schema, seed=schema_seed + 2)
    return schema, source_frag, target_frag, document


def _loaded_source(source_frag, document):
    source = RelationalEndpoint("A", source_frag)
    source.load_document(document)
    return source


def _published(target):
    return publish_document(target.db, target.mapper).document


class TestForcedReplans:
    @pytest.mark.parametrize("seed", [41, 7])
    @pytest.mark.parametrize("workers,batch_rows", DATAPLANES)
    def test_byte_identical_to_static(self, seed, workers,
                                      batch_rows):
        schema, sf, tf, document = _case(seed, seed + 1)
        source = _loaded_source(sf, document)
        reference = _published(source)
        model = CostModel(StatisticsCatalog.synthetic(schema))
        program = build_transfer_program(derive_mapping(sf, tf))
        placement, _ = cost_based_optim(program, model)

        static_target = RelationalEndpoint("T-static", tf)
        run_optimized_exchange(
            program, placement, source, static_target,
            SimulatedChannel(), "static",
            parallel_workers=workers, batch_rows=batch_rows,
        )
        static_doc = _published(static_target)
        assert static_doc == reference

        adaptive_target = RelationalEndpoint("T-adaptive", tf)
        config = AdaptiveConfig(probe=model, replan_threshold=-1.0)
        run = AdaptiveRun(
            program, placement, source, adaptive_target,
            SimulatedChannel(), config=config,
            parallel_workers=workers, batch_rows=batch_rows,
        )
        run.run()
        assert run.checkpoints > 0
        assert run.replans > 0
        assert _published(adaptive_target) == static_doc


class TestMiscalibratedFlip:
    """Overpriced Combine (4x): the static plan is wrong, the
    adaptive run flips the mis-placed suffix op once real costs show.

    Scenarios verified robust to topological-order variation (the
    revealing combine structurally precedes the mis-placed one)."""

    @pytest.mark.parametrize(
        "schema_seed,rng_seed,granularity_kwargs",
        [
            # Both checkpoint between write-rooted segments; "per-op"
            # is the default dataplane's id from when it had a per-op
            # mode of its own.
            pytest.param(0, 3, {}, id="per-op"),
            pytest.param(2, 2, {"batch_rows": 7}, id="expression"),
        ],
    )
    def test_suffix_replacement_flips_placement(
            self, schema_seed, rng_seed, granularity_kwargs):
        schema, sf, tf, document = _case(
            schema_seed, rng_seed, size=12, repeat_prob=0.5
        )
        source = _loaded_source(sf, document)
        reference = _published(source)
        # Slow interconnect and a fast target: where a combine runs
        # genuinely matters, so a 4x combine overprice flips the
        # optimizer's decision.
        true_model = CostModel(
            StatisticsCatalog.synthetic(schema),
            source=MachineProfile("s"),
            target=MachineProfile("t", speed=8.0),
            bandwidth=1.0,
        )
        weights = true_model.weights
        believed = ScaledProbe(
            true_model,
            {"scan": 1.0, "combine": 4.0, "split": 1.0, "write": 1.0},
            1.0,
        )
        program = build_transfer_program(derive_mapping(sf, tf))
        static_placement, _ = cost_based_optim(
            program, believed, weights
        )
        static_cost = true_model.breakdown(
            program, static_placement
        ).total
        _, oracle_cost = cost_based_optim(program, true_model, weights)
        assert static_cost > oracle_cost  # the miscalibration bites

        static_target = RelationalEndpoint("T-static", tf)
        ProgramExecutor(source, static_target, SimulatedChannel()).run(
            program, static_placement
        )
        static_doc = _published(static_target)
        assert static_doc == reference

        config = AdaptiveConfig(
            probe=believed, weights=weights, replan_threshold=0.5,
            comp_feedback=lambda node, location, strategy, seconds:
                true_model.comp_cost(node, location),
            comm_feedback=lambda fragment, seconds:
                true_model.comm_cost(fragment),
        )
        adaptive_target = RelationalEndpoint("T-adaptive", tf)
        run = AdaptiveRun(
            program, dict(static_placement), source, adaptive_target,
            SimulatedChannel(), config=config, **granularity_kwargs,
        )
        run.run()

        assert run.replans > 0
        assert run.ops_moved > 0
        adaptive_cost = true_model.breakdown(
            program, run.placement
        ).total
        # The realized plan recovers at least half the oracle gap
        # (these scenarios recover it fully).
        recovered = (static_cost - adaptive_cost) \
            / (static_cost - oracle_cost)
        assert recovered >= 0.5
        # ... and the data is still the same data.
        assert _published(adaptive_target) == static_doc


class TestGuards:
    def test_adaptive_rejects_journal(self, tmp_path):
        schema, sf, tf, document = _case(41, 42)
        source = _loaded_source(sf, document)
        model = CostModel(StatisticsCatalog.synthetic(schema))
        program = build_transfer_program(derive_mapping(sf, tf))
        placement, _ = cost_based_optim(program, model)
        target = RelationalEndpoint("T", tf)
        with pytest.raises(ValueError, match="journal"):
            run_optimized_exchange(
                program, placement, source, target,
                SimulatedChannel(), "guard",
                adaptive=AdaptiveConfig(probe=model),
                journal=ExchangeJournal(tmp_path / "journal.db"),
            )


class TestStatsIngestion:
    def test_run_feeds_the_store(self):
        from repro.adapt.stats import StatisticsStore

        schema, sf, tf, document = _case(41, 42)
        source = _loaded_source(sf, document)
        model = CostModel(StatisticsCatalog.synthetic(schema))
        program = build_transfer_program(derive_mapping(sf, tf))
        placement, _ = cost_based_optim(program, model)
        store = StatisticsStore()
        config = AdaptiveConfig(
            probe=model, replan_threshold=float("inf"),
            stats_store=store, pair="A->B",
        )
        target = RelationalEndpoint("T", tf)
        AdaptiveRun(program, placement, source, target,
                    SimulatedChannel(), config=config).run()
        assert store.pairs() == ["A->B"]
        assert store.ratios("A->B")  # drift ratios ingested
