"""One ledger per run: a run's metrics are a read of its report.

``ProgramExecutor(metrics=...)`` records nothing while batches flow; it
reads the returned :class:`ExecutionReport` once the run has finished.
Every ``op.*``, ``join.*`` and ``ship.*`` value must therefore equal the
matching sum over that report — on an unbatched run, a batched one,
and a run resumed from its journal — and the wire's own counts agree.
"""

from collections import defaultdict

import pytest

from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ExecutionReport, ProgramExecutor
from repro.core.program.journal import ExchangeJournal
from repro.net.transport import SimulatedChannel
from repro.obs.metrics import MetricsRegistry
from repro.services.endpoint import RelationalEndpoint


def ledger(report: ExecutionReport) -> dict[str, float]:
    """The run's metrics, summed over its report: counters by value,
    histograms by observation count (``.n``) and sum."""
    sums: dict[str, float] = defaultdict(float)
    for timing in report.op_timings:
        sums[f"op.{timing.kind}.count"] += 1
        sums[f"op.{timing.kind}.rows"] += timing.rows
        sums[f"op.{timing.kind}.seconds.n"] += 1
        sums[f"op.{timing.kind}.seconds"] += timing.seconds
        join = timing.join
        if join is None:
            continue
        sums[f"join.strategy.{join.strategy}"] += 1
        sums["join.build_rows"] += join.build_rows
        sums["join.probe_rows"] += join.probe_rows
        sums["join.hash_table_rows"] += join.hash_table_rows
        for phase, seconds in (("build", join.build_seconds),
                               ("probe", join.probe_seconds)):
            sums[f"join.{phase}_seconds.n"] += 1
            sums[f"join.{phase}_seconds"] += seconds
    sums["ship.messages"] = sum(report.shipment_batches.values())
    sums["ship.bytes"] = sum(report.shipment_bytes.values())
    sums["ship.seconds.n"] = report.shipments
    sums["ship.seconds"] = sum(report.shipment_seconds.values())
    return dict(sums)


def recorded(registry: MetricsRegistry) -> dict[str, float]:
    """The registry's run metrics in :func:`ledger`'s shape."""
    values: dict[str, float] = {}
    for name, state in registry.snapshot().items():
        if state["type"] == "histogram":
            values[f"{name}.n"] = state["count"]
            values[name] = state["sum"]
        else:
            values[name] = state["value"]
    return values


def assert_one_ledger(registry: MetricsRegistry,
                      report: ExecutionReport,
                      channel: SimulatedChannel) -> None:
    assert recorded(registry) == pytest.approx(ledger(report))
    # The report's shipments are the wire's messages and bytes.
    assert registry.counter("ship.messages").value == channel.messages
    assert registry.counter("ship.bytes").value == report.comm_bytes \
        == channel.total_bytes


@pytest.fixture(scope="module")
def mf_to_lf(auction_mf, auction_lf, auction_document):
    source = RelationalEndpoint("ledger-src", auction_mf)
    source.load_document(auction_document)
    program = build_transfer_program(
        derive_mapping(auction_mf, auction_lf)
    )
    return source, program, source_heavy_placement(program)


@pytest.mark.parametrize("batch_rows", [None, 16])
def test_metrics_are_the_report(mf_to_lf, auction_lf, batch_rows):
    source, program, placement = mf_to_lf
    registry = MetricsRegistry()
    channel = SimulatedChannel()
    report = ProgramExecutor(
        source, RelationalEndpoint("ledger-tgt", auction_lf), channel,
        batch_rows=batch_rows, metrics=registry,
    ).run(program, placement)
    assert_one_ledger(registry, report, channel)
    combines = len([node for node in program.nodes
                    if node.kind == "combine"])
    assert combines > 0
    assert registry.counter("join.strategy.aligned").value == combines
    if batch_rows is None:
        assert registry.counter("ship.messages").value \
            == report.shipments


class _DiesAfter:
    """A channel whose process dies after ``lives`` messages."""

    def __init__(self, inner: SimulatedChannel, lives: int) -> None:
        self._inner = inner
        self._lives = lives

    def ship_batch(self, batch):
        if self._lives == 0:
            raise RuntimeError("simulated process death")
        self._lives -= 1
        return self._inner.ship_batch(batch)


def test_resumed_run_reads_its_own_report(mf_to_lf, auction_lf):
    """A run resumed from its journal ships only the unacknowledged
    tail; its metrics are that run's report, not the first attempt's
    and not the whole job's.  A run with nothing left to do records
    no join, while its skipped Combines keep their ``aligned``
    label."""
    source, program, placement = mf_to_lf
    uninterrupted = SimulatedChannel()
    ProgramExecutor(
        source, RelationalEndpoint("ledger-whole", auction_lf),
        uninterrupted, batch_rows=16,
    ).run(program, placement)
    target = RelationalEndpoint("ledger-resumed", auction_lf)
    journal = ExchangeJournal()
    crashed = MetricsRegistry()
    with pytest.raises(RuntimeError, match="process death"):
        ProgramExecutor(
            source, target, _DiesAfter(SimulatedChannel(), 5),
            batch_rows=16, journal=journal, metrics=crashed,
        ).run(program, placement)
    assert crashed.names() == []

    for attempt in (1, 2):
        registry = MetricsRegistry()
        channel = SimulatedChannel()
        report = ProgramExecutor(
            source, target, channel, batch_rows=16, journal=journal,
            metrics=registry,
        ).run(program, placement)
        assert report.resume_count == attempt
        assert_one_ledger(registry, report, channel)
        if attempt == 1:  # the tail, and only the tail, ships
            assert 0 < channel.messages < uninterrupted.messages
    assert channel.messages == 0
    assert not [name for name in registry.names()
                if name.startswith("join.")]
    assert {timing.strategy for timing in report.op_timings
            if timing.kind == "combine"} == {"aligned"}
