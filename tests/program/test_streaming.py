"""Batched runs (``batch_rows=N``) against the unbatched default
("materialized" below): byte-identity, bounded memory, accounting."""

import pytest

from repro.errors import OperationError
from repro.core.mapping import derive_mapping
from repro.core.ops.combine import Combine
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.stream import FragmentStream
from repro.net.transport import SimulatedChannel
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize

from tests.program.rowplane import combine_rows


@pytest.fixture
def setup(customers_s, customers_t, customer_documents):
    def make():
        source = InMemoryEndpoint("src")
        for instance in fragment_customers(
            customer_documents, customers_s
        ).values():
            source.put(instance)
        return source, InMemoryEndpoint("tgt")

    def build():
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        return program, source_heavy_placement(program)

    return make, build


def _written_documents(target: InMemoryEndpoint) -> dict[str, list[str]]:
    return {
        name: sorted(
            serialize(doc) for doc in instance.to_xml_documents()
        )
        for name, instance in target.store.items()
    }


class TestByteIdentity:
    """Concatenated batches must write exactly what the materialized
    dataplane writes, for every batch size and both executors."""

    @pytest.mark.parametrize("batch_rows", [1, 64])
    def test_sequential_matches_materialized(self, setup, batch_rows):
        make, build = setup
        program, placement = build()
        source, materialized_target = make()
        ProgramExecutor(source, materialized_target).run(
            program, placement
        )
        expected = _written_documents(materialized_target)

        source, streaming_target = make()
        ProgramExecutor(
            source, streaming_target, batch_rows=batch_rows
        ).run(program, placement)
        assert _written_documents(streaming_target) == expected

    def test_reverse_direction(self, customers_s, customers_t,
                               customer_documents):
        """T -> S exercises the other op mix (splits feeding writes)."""
        program = build_transfer_program(
            derive_mapping(customers_t, customers_s)
        )
        placement = source_heavy_placement(program)

        def make():
            source = InMemoryEndpoint("src")
            for instance in fragment_customers(
                customer_documents, customers_t
            ).values():
                source.put(instance)
            return source, InMemoryEndpoint("tgt")

        source, materialized_target = make()
        ProgramExecutor(source, materialized_target).run(
            program, placement
        )
        source, streaming_target = make()
        ProgramExecutor(source, streaming_target, batch_rows=2).run(
            program, placement
        )
        assert _written_documents(streaming_target) == \
            _written_documents(materialized_target)

    def test_repeated_streaming_runs_stable(self, setup):
        make, build = setup
        program, placement = build()
        results = []
        for _ in range(3):
            source, target = make()
            ProgramExecutor(source, target, batch_rows=8).run(
                program, placement
            )
            results.append(_written_documents(target))
        assert results[0] == results[1] == results[2]


class TestReport:
    @pytest.fixture
    def reports(self, setup):
        make, build = setup
        program, placement = build()
        source, target = make()
        materialized = ProgramExecutor(source, target).run(
            program, placement
        )
        source, target = make()
        streaming = ProgramExecutor(
            source, target, batch_rows=4
        ).run(program, placement)
        return program, placement, materialized, streaming

    def test_shipment_accounting(self, reports):
        program, placement, materialized, streaming = reports
        cross = len(program.cross_edges(placement))
        assert streaming.shipments == cross
        assert streaming.shipments == materialized.shipments
        # Every cross-edge shipped at least one chunk; an unbatched
        # edge is exactly one message.
        assert set(streaming.shipment_batches) == \
            set(streaming.shipment_bytes)
        assert all(
            count >= 1 for count in streaming.shipment_batches.values()
        )
        assert materialized.shipment_batches == \
            dict.fromkeys(materialized.shipment_bytes, 1)
        assert sum(streaming.shipment_bytes.values()) == \
            streaming.comm_bytes

    def test_rows_written_and_timings(self, reports):
        program, _, materialized, streaming = reports
        assert streaming.rows_written == materialized.rows_written
        assert len(streaming.op_timings) == len(program.nodes)
        assert streaming.batch_rows == 4
        assert materialized.batch_rows is None

    def test_peak_residency_is_reported_and_bounded(self, reports):
        _, _, materialized, streaming = reports
        assert materialized.peak_resident_rows > 0
        assert streaming.peak_resident_rows > 0
        assert streaming.peak_resident_rows <= \
            materialized.peak_resident_rows


class TestBoundedMemory:
    def test_streaming_peak_strictly_lower(self, auction_mf,
                                           auction_document):
        """On the Scan->Write-per-fragment program (Figure 9's MF->MF)
        the streaming peak is the batch frontier, not the largest
        fragment feed."""
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_mf)
        )
        placement = source_heavy_placement(program)

        target = RelationalEndpoint("T1", auction_mf)
        materialized = ProgramExecutor(source, target).run(
            program, placement
        )
        target = RelationalEndpoint("T2", auction_mf)
        streaming = ProgramExecutor(source, target, batch_rows=8).run(
            program, placement
        )
        assert 0 < streaming.peak_resident_rows < \
            materialized.peak_resident_rows

    def test_streaming_writes_same_rows(self, auction_mf,
                                        auction_document):
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_mf)
        )
        placement = source_heavy_placement(program)
        target = RelationalEndpoint("T", auction_mf)
        report = ProgramExecutor(source, target, batch_rows=8).run(
            program, placement
        )
        assert target.total_rows() == source.total_rows()
        assert report.rows_written == target.total_rows()


class TestChannelInteraction:
    def test_wire_format_streaming_round_trips(self, setup):
        make, build = setup
        program, placement = build()
        source, materialized_target = make()
        ProgramExecutor(
            source, materialized_target, SimulatedChannel()
        ).run(program, placement)
        source, streaming_target = make()
        ProgramExecutor(
            source, streaming_target,
            SimulatedChannel(wire_format=True), batch_rows=3,
        ).run(program, placement)
        assert _written_documents(streaming_target) == \
            _written_documents(materialized_target)


class TestErrors:
    def test_bad_batch_rows_rejected(self, setup):
        make, _ = setup
        source, target = make()
        with pytest.raises(ValueError, match="batch_rows"):
            ProgramExecutor(source, target, batch_rows=0)
        with pytest.raises(ValueError, match="batch_rows"):
            ProgramExecutor(source, target, batch_rows=-1)

    def test_scan_failure_propagates(self, setup):
        from repro.errors import EndpointError

        make, build = setup
        program, placement = build()
        source, target = make()
        source.store.clear()
        with pytest.raises(EndpointError):
            ProgramExecutor(source, target, batch_rows=4).run(
                program, placement
            )


class TestCombineOrphanParity:
    """The streaming grouped merge reports orphans with the same error
    as the materialized combine."""

    @pytest.fixture
    def instances(self, customers_t, customer_documents):
        feeds = fragment_customers(customer_documents, customers_t)
        return (
            customers_t.fragment("Line_Switch"),
            customers_t.fragment("Feature"),
            feeds["Line_Switch"],
            feeds["Feature"],
        )

    def test_identical_messages(self, instances):
        parent_fragment, child_fragment, parent, child = instances
        op = Combine(parent_fragment, child_fragment)

        empty_parent = parent.copy()
        empty_parent.rows.clear()
        with pytest.raises(OperationError) as materialized_error:
            combine_rows(op, empty_parent, child.copy())

        empty_parent = parent.copy()
        empty_parent.rows.clear()
        with pytest.raises(OperationError) as streaming_error:
            list(op.apply_batches(
                FragmentStream.from_instance(empty_parent, 2),
                FragmentStream.from_instance(child.copy(), 2),
            ))
        assert str(streaming_error.value) == \
            str(materialized_error.value)

    def test_streaming_combine_matches_apply(self, instances):
        parent_fragment, child_fragment, parent, child = instances
        op = Combine(parent_fragment, child_fragment)
        expected = combine_rows(op, parent.copy(), child.copy())
        streamed_batches = list(op.apply_batches(
            FragmentStream.from_instance(parent, 2, copy_rows=True),
            FragmentStream.from_instance(child, 2, copy_rows=True),
        ))
        streamed_rows = [
            row for batch in streamed_batches for row in batch.rows
        ]
        schema = parent_fragment.schema
        assert [
            serialize(row.data.to_xml(schema)) for row in streamed_rows
        ] == [
            serialize(row.data.to_xml(schema)) for row in expected.rows
        ]
