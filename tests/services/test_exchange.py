"""End-to-end exchange runs: optimized DE and publish&map."""

import pytest

from repro.errors import RetryExhausted
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.mapping import derive_mapping
from repro.core.program import run as run_module
from repro.core.program.builder import build_transfer_program
from repro.core.program.journal import ExchangeJournal, write_key
from repro.core.stream import ResidencyMeter
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import (
    run_optimized_exchange,
    run_publish_and_map,
)


@pytest.fixture
def loaded_source(auction_mf, auction_document):
    source = RelationalEndpoint("S", auction_mf)
    source.load_document(auction_document)
    return source


def de_outcome(source, target_fragmentation, scenario="x", **kwargs):
    target = RelationalEndpoint(
        f"T-{scenario}", target_fragmentation
    )
    program = build_transfer_program(
        derive_mapping(source.fragmentation, target_fragmentation)
    )
    placement = source_heavy_placement(program)
    outcome = run_optimized_exchange(
        program, placement, source, target, SimulatedChannel(),
        scenario, **kwargs,
    )
    return outcome, target


class TestOptimizedExchange:
    def test_step_accounting(self, loaded_source, auction_lf):
        outcome, _ = de_outcome(loaded_source, auction_lf)
        assert outcome.method == "DE"
        assert outcome.steps["source_processing"] > 0
        assert outcome.steps["communication"] > 0
        assert outcome.steps["loading"] > 0
        assert outcome.steps["shredding"] == 0.0  # DE never shreds
        assert outcome.total_seconds == pytest.approx(
            sum(outcome.steps.values())
        )

    def test_target_populated(self, loaded_source, auction_lf):
        outcome, target = de_outcome(loaded_source, auction_lf)
        assert outcome.rows_written == target.total_rows()
        assert outcome.indexes_built > 0

    def test_data_processing_excludes_comm(self, loaded_source,
                                           auction_lf):
        outcome, _ = de_outcome(loaded_source, auction_lf)
        assert outcome.data_processing_seconds == pytest.approx(
            outcome.total_seconds - outcome.steps["communication"]
        )

    def test_breakdown_text(self, loaded_source, auction_lf):
        outcome, _ = de_outcome(loaded_source, auction_lf)
        assert "DE" in outcome.breakdown()
        assert "source_processing" in outcome.breakdown()


class TestStreamingExchange:
    def test_streaming_matches_materialized(self, loaded_source,
                                            auction_lf):
        materialized, mat_target = de_outcome(
            loaded_source, auction_lf, "mat"
        )
        streaming, stream_target = de_outcome(
            loaded_source, auction_lf, "stream", batch_rows=16
        )
        assert materialized.batch_rows is None
        assert streaming.batch_rows == 16
        assert streaming.rows_written == materialized.rows_written
        for fragment in auction_lf:
            expected = mat_target.scan(fragment)
            got = stream_target.scan(fragment)
            assert [(row.eid, row.parent) for row in got.rows] == \
                [(row.eid, row.parent) for row in expected.rows]

    def test_peaks_populated_and_bounded(self, loaded_source,
                                         auction_lf):
        materialized, _ = de_outcome(loaded_source, auction_lf, "m2")
        streaming, _ = de_outcome(
            loaded_source, auction_lf, "s2", batch_rows=8
        )
        assert materialized.peak_resident_rows > 0
        assert 0 < streaming.peak_resident_rows \
            < materialized.peak_resident_rows


@pytest.fixture(scope="module")
def figure9_sources(auction_mf, auction_lf, auction_document):
    """A source loaded under each of Figure 9's fragmentations."""
    sources = {}
    for kind, fragmentation in (("MF", auction_mf), ("LF", auction_lf)):
        sources[kind] = RelationalEndpoint(f"src-{kind}", fragmentation)
        sources[kind].load_document(auction_document)
    return sources


@pytest.fixture
def meters(monkeypatch):
    """Every residency meter a program run creates, in order."""
    created = []

    class Recorded(ResidencyMeter):
        __slots__ = ()

        def __init__(self) -> None:
            super().__init__()
            created.append(self)

    monkeypatch.setattr(run_module, "ResidencyMeter", Recorded)
    return created


class _ProcessDeath:
    """A channel that dies before its ``lives + 1``-th shipment."""

    def __init__(self, inner, lives: int) -> None:
        self._inner = inner
        self._lives = lives

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def ship_batch(self, batch):
        if self._lives == 0:
            raise RuntimeError("simulated process death")
        self._lives -= 1
        return self._inner.ship_batch(batch)


class TestResidencyDrains:
    """Every row a run's meter acquires is released by the run's end,
    on each Figure 9 direction, batched or not."""

    @pytest.mark.parametrize("batch_rows", [None, 64])
    @pytest.mark.parametrize("scenario", ["MF->MF", "LF->MF", "MF->LF",
                                          "LF->LF"])
    def test_meter_drains(self, scenario, batch_rows, figure9_sources,
                          meters):
        source_kind, target_kind = scenario.split("->")
        source = figure9_sources[source_kind]
        target_frag = figure9_sources[target_kind].fragmentation
        program = build_transfer_program(
            derive_mapping(source.fragmentation, target_frag)
        )
        run_optimized_exchange(
            program, source_heavy_placement(program), source,
            RelationalEndpoint("T", target_frag), SimulatedChannel(),
            scenario, batch_rows=batch_rows,
        )
        (meter,) = meters
        assert meter.rows == 0
        assert meter.peak_rows > 0

    def test_resumed_run_drains(self, figure9_sources, auction_lf,
                                meters, tmp_path):
        """A rerun against the journal of a run that died mid-write
        replays the acknowledged batches past the wire and the store
        (``skip_through``) and still releases every row."""
        source = figure9_sources["MF"]
        program = build_transfer_program(
            derive_mapping(source.fragmentation, auction_lf)
        )
        placement = source_heavy_placement(program)
        target = RelationalEndpoint("T", auction_lf)
        path = tmp_path / "exchange.journal"
        with ExchangeJournal(path) as journal:
            with pytest.raises(RuntimeError, match="process death"):
                run_optimized_exchange(
                    program, placement, source, target,
                    _ProcessDeath(SimulatedChannel(), lives=6),
                    "MF->LF", batch_rows=16, journal=journal,
                )
        with ExchangeJournal(path) as journal:
            assert any(
                not journal.write_done(key)
                and journal.acked_through(key) >= 0
                for key in (write_key(op.op_id, op.fragment.name)
                            for op in program.writes())
            )
            outcome = run_optimized_exchange(
                program, placement, source, target, SimulatedChannel(),
                "MF->LF", batch_rows=16, journal=journal,
            )
        assert outcome.resume_count == 1
        resumed = meters[-1]
        assert resumed.rows == 0
        assert resumed.peak_rows > 0


class TestPublishAndMap:
    def test_step_accounting(self, loaded_source, auction_lf):
        target = RelationalEndpoint("PMT", auction_lf)
        outcome = run_publish_and_map(
            loaded_source, target, SimulatedChannel(), "pm"
        )
        assert outcome.method == "PM"
        assert outcome.steps["shredding"] > 0
        assert outcome.steps["target_processing"] == 0.0
        assert outcome.comm_bytes > 0
        assert outcome.rows_written == target.total_rows()


class TestPublishAndMapUnderLoss:
    """PM re-sends its one document whole: every lost copy is charged
    at document size, and the healed run writes the fault-free bytes."""

    @pytest.fixture
    def document(self, loaded_source):
        return publish_document(
            loaded_source.db, loaded_source.mapper
        ).document

    def lossy_pm(self, source, fragmentation, name, plan, policy):
        channel = SimulatedChannel()
        target = RelationalEndpoint(name, fragmentation)
        outcome = run_publish_and_map(
            source, target, channel, name,
            retry_policy=policy, fault_plan=plan,
        )
        return outcome, channel, target

    def test_drop_then_heal(self, loaded_source, auction_lf, document):
        outcome, _, target = self.lossy_pm(
            loaded_source, auction_lf, "pm-drop",
            FaultPlan.parse("drop@0"),
            RetryPolicy(max_attempts=3),
        )
        assert outcome.retries == 1
        assert outcome.faults_injected == 1
        assert outcome.comm_bytes == 2 * len(document)
        reference = RelationalEndpoint("pm-clean", auction_lf)
        run_publish_and_map(loaded_source, reference, SimulatedChannel())
        assert publish_document(target.db, target.mapper).document \
            == publish_document(reference.db, reference.mapper).document

    def test_every_attempt_fails(self, loaded_source, auction_lf):
        with pytest.raises(RetryExhausted) as info:
            self.lossy_pm(
                loaded_source, auction_lf, "pm-lost",
                FaultPlan.parse("drop@0,corrupt@1,drop@2"),
                RetryPolicy(max_attempts=3),
            )
        assert info.value.attempts == 3


class TestEquivalence:
    """DE and PM must produce identical target databases."""

    @pytest.mark.parametrize("target_kind", ["mf", "lf"])
    def test_same_target_content(self, loaded_source, auction_mf,
                                 auction_lf, target_kind):
        fragmentation = (
            auction_mf if target_kind == "mf" else auction_lf
        )
        _, de_target = de_outcome(
            loaded_source, fragmentation, f"de-{target_kind}"
        )
        pm_target = RelationalEndpoint(
            f"pm-{target_kind}", fragmentation
        )
        run_publish_and_map(
            loaded_source, pm_target, SimulatedChannel()
        )
        de_doc = publish_document(
            de_target.db, de_target.mapper
        ).document
        pm_doc = publish_document(
            pm_target.db, pm_target.mapper
        ).document
        assert de_doc == pm_doc

    def test_round_trip_to_source_document(self, loaded_source,
                                           auction_lf):
        _, de_target = de_outcome(loaded_source, auction_lf, "rt")
        republished = publish_document(
            de_target.db, de_target.mapper
        ).document
        original = publish_document(
            loaded_source.db, loaded_source.mapper
        ).document
        assert republished == original

    def test_wire_format_channel_same_content(self, loaded_source,
                                              auction_lf):
        target = RelationalEndpoint("wire", auction_lf)
        program = build_transfer_program(
            derive_mapping(loaded_source.fragmentation, auction_lf)
        )
        placement = source_heavy_placement(program)
        run_optimized_exchange(
            program, placement, loaded_source, target,
            SimulatedChannel(wire_format=True), "wire",
        )
        original = publish_document(
            loaded_source.db, loaded_source.mapper
        ).document
        assert publish_document(
            target.db, target.mapper
        ).document == original


class TestObservabilityWiring:
    def test_traced_de_run_covers_all_phases(self, loaded_source,
                                             auction_lf):
        from repro.obs import MetricsRegistry, Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()
        outcome, _ = de_outcome(
            loaded_source, auction_lf, scenario="traced",
            tracer=tracer, metrics=metrics,
        )
        assert outcome.total_seconds > 0
        assert [s for s in tracer.spans if s.category == "op"] and [s for s in tracer.spans if s.category == "ship"]
        steps = {span.name for span in [s for s in tracer.spans if s.category == "step"]}
        assert {"execute program", "indexing"} <= steps
        assert metrics.counter("ship.messages").value > 0
        assert metrics.histogram("op.scan.seconds").count > 0

    def test_traced_pm_run_records_steps(self, loaded_source,
                                         auction_lf):
        from repro.obs import Tracer

        tracer = Tracer()
        target = RelationalEndpoint("pm-traced", auction_lf)
        run_publish_and_map(
            loaded_source, target, SimulatedChannel(), tracer=tracer
        )
        steps = {span.name for span in [s for s in tracer.spans if s.category == "step"]}
        assert {"publish", "ship document", "shred", "load",
                "indexing"} <= steps

    def test_lossy_run_attributes_retries_per_edge(self,
                                                   loaded_source,
                                                   auction_lf):
        outcome, _ = de_outcome(
            loaded_source, auction_lf, scenario="lossy",
            batch_rows=32,
            fault_plan=FaultPlan(drop=0.25, seed=11),
            retry_policy=RetryPolicy(max_attempts=6),
        )
        assert outcome.faults_injected > 0
        assert outcome.retries > 0
        # Per-edge counts are a partition of the run total.
        report = outcome.report
        assert sum(report.retries_by_edge.values()) == outcome.retries
        assert sum(
            report.redelivered_by_edge.values()
        ) == outcome.redelivered_batches
        assert all(
            isinstance(edge, tuple) for edge in report.retries_by_edge
        )
