"""Crash mid-exchange, resume from the journal, finish the job.

A process death after N shipped batches must not cost the work already
acknowledged: a rerun against the same on-disk journal re-ships only
the unacknowledged tail, never rewrites acknowledged rows, and leaves
the target publishing a document byte-identical to an uninterrupted
run — including when the wire is lossy at the same time.

Marked ``faults``: runs in CI's fault-blitz job, not in tier-1.
"""

import random

import pytest

from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.program.journal import ExchangeJournal
from repro.net.faults import FaultPlan, FaultyChannel, RetryPolicy
from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.services.endpoint import RelationalEndpoint

from tests.documents import generate_document, random_schema
from tests.integration.test_random_roundtrips import flat_fragmentation

pytestmark = pytest.mark.faults


class KillSwitch:
    """Channel wrapper that simulates a process death: the Nth+1
    batch transmission raises instead of going out."""

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


@pytest.fixture(scope="module")
def exchange():
    """A seeded exchange large enough to ship a few dozen batches."""
    rng = random.Random(5)
    schema = random_schema(10, seed=5, repeat_prob=0.6)
    source_frag = flat_fragmentation(schema, rng, "A")
    target_frag = flat_fragmentation(schema, rng, "B")
    document = generate_document(schema, seed=5, max_repeat=12)
    source = RelationalEndpoint("A", source_frag)
    source.load_document(document)
    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    return (source, target_frag, program,
            source_heavy_placement(program))


def run_uninterrupted(exchange, batch_rows=2):
    source, target_frag, program, placement = exchange
    target = RelationalEndpoint("B", target_frag)
    channel = SimulatedChannel(wire_format=True)
    ProgramExecutor(
        source, target, channel, batch_rows=batch_rows
    ).run(program, placement)
    reference = publish_document(target.db, target.mapper).document
    return reference, channel.messages


class TestCrashResume:
    def test_resume_reships_only_the_unacked_tail(
            self, exchange, tmp_path):
        source, target_frag, program, placement = exchange
        reference, baseline_messages = run_uninterrupted(exchange)
        assert baseline_messages > 8  # the crash must be mid-run

        journal_path = tmp_path / "exchange.journal"
        target = RelationalEndpoint("B", target_frag)

        # First attempt: the process dies after 6 shipped batches.
        crash_channel = SimulatedChannel(wire_format=True)
        with ExchangeJournal(journal_path) as journal:
            with pytest.raises(RuntimeError,
                               match="process death"):
                ProgramExecutor(
                    source, target,
                    KillSwitch(crash_channel, lives=6),
                    batch_rows=2, journal=journal,
                ).run(program, placement)
        assert crash_channel.messages == 6
        acked = sum(
            1 for line in journal_path.read_text().splitlines()
            if '"batch"' in line
        )
        assert 0 < acked <= 6

        # Restart: a fresh process reopens the same journal and
        # finishes the exchange against the surviving target store.
        resume_channel = SimulatedChannel(wire_format=True)
        with ExchangeJournal(journal_path) as journal:
            report = ProgramExecutor(
                source, target, resume_channel,
                batch_rows=2, journal=journal,
            ).run(program, placement)
        assert report.resume_count == 1
        # Acked batches were neither re-shipped nor re-written.
        assert resume_channel.messages \
            == baseline_messages - acked
        assert publish_document(
            target.db, target.mapper
        ).document == reference

        # A third run finds every write acknowledged: nothing moves.
        idle_channel = SimulatedChannel(wire_format=True)
        with ExchangeJournal(journal_path) as journal:
            idle = ProgramExecutor(
                source, target, idle_channel,
                batch_rows=2, journal=journal,
            ).run(program, placement)
        assert idle.resume_count == 2
        assert idle_channel.messages == 0
        assert idle.rows_written == 0
        assert publish_document(
            target.db, target.mapper
        ).document == reference

    def test_resume_on_a_lossy_wire(self, exchange, tmp_path):
        """Crash and resume compose with fault injection: the healed,
        resumed run still reproduces the fault-free answer."""
        source, target_frag, program, placement = exchange
        reference, _ = run_uninterrupted(exchange)
        plan = FaultPlan(drop=0.10, duplicate=0.08, seed=5)
        retry = RetryPolicy(max_attempts=10)
        journal_path = tmp_path / "lossy.journal"
        target = RelationalEndpoint("B", target_frag)

        with ExchangeJournal(journal_path) as journal:
            with pytest.raises(RuntimeError,
                               match="process death"):
                ProgramExecutor(
                    source, target,
                    FaultyChannel(
                        KillSwitch(
                            SimulatedChannel(wire_format=True),
                            lives=8,
                        ),
                        plan,
                    ),
                    batch_rows=2, retry=retry, journal=journal,
                ).run(program, placement)

        with ExchangeJournal(journal_path) as journal:
            report = ProgramExecutor(
                source, target,
                FaultyChannel(
                    SimulatedChannel(wire_format=True), plan
                ),
                batch_rows=2, retry=retry, journal=journal,
            ).run(program, placement)
        assert report.resume_count == 1
        assert publish_document(
            target.db, target.mapper
        ).document == reference

    def test_unbatched_rerun_skips_acked_writes(
            self, exchange, tmp_path):
        """An unbatched run acknowledges whole writes: a rerun over
        the completed journal ships and writes nothing."""
        source, target_frag, program, placement = exchange
        reference, _ = run_uninterrupted(exchange)
        journal_path = tmp_path / "cross.journal"
        target = RelationalEndpoint("B", target_frag)

        with ExchangeJournal(journal_path) as journal:
            ProgramExecutor(
                source, target, SimulatedChannel(wire_format=True),
                journal=journal,
            ).run(program, placement)

        idle_channel = SimulatedChannel(wire_format=True)
        with ExchangeJournal(journal_path) as journal:
            report = ProgramExecutor(
                source, target, idle_channel, journal=journal,
            ).run(program, placement)
        assert report.resume_count == 1
        assert idle_channel.messages == 0
        assert report.rows_written == 0
        assert publish_document(
            target.db, target.mapper
        ).document == reference
