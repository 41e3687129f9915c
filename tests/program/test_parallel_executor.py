"""Multi-worker runs (``ProgramExecutor(workers=N)``): determinism and
reporting."""

import pytest

from repro.errors import EndpointError, ProgramError
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.dag import Edge
from repro.core.program.executor import ProgramExecutor
from repro.net.transport import NetworkProfile, SimulatedChannel
from repro.services.endpoint import InMemoryEndpoint
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize


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


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential_output(self, setup, workers):
        """Written rows are identical to the sequential executor's for
        every worker count."""
        make, build = setup
        program, placement = build()
        source, sequential_target = make()
        ProgramExecutor(source, sequential_target).run(
            program, placement
        )
        expected = _written_documents(sequential_target)

        source, parallel_target = make()
        ProgramExecutor(
            source, parallel_target, workers=workers
        ).run(program, placement)
        assert _written_documents(parallel_target) == expected

    def test_repeated_runs_stable(self, setup):
        make, build = setup
        program, placement = build()
        results = []
        for _ in range(3):
            source, target = make()
            ProgramExecutor(source, target, workers=4).run(
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
        sequential = ProgramExecutor(source, target).run(
            program, placement
        )
        source, target = make()
        parallel = ProgramExecutor(
            source, target, workers=4
        ).run(program, placement)
        return program, placement, sequential, parallel

    def test_compatible_with_sequential(self, reports):
        program, placement, sequential, parallel = reports
        assert len(parallel.op_timings) == len(program.nodes)
        assert parallel.rows_written == sequential.rows_written
        assert parallel.shipments == len(program.cross_edges(placement))
        assert parallel.comm_bytes == sequential.comm_bytes
        assert set(parallel.shipment_bytes) == \
            set(sequential.shipment_bytes)

    def test_comp_attribution_by_location(self, reports):
        _, _, _, parallel = reports
        total = sum(timing.seconds for timing in parallel.op_timings)
        attributed = (
            parallel.comp_seconds[Location.SOURCE]
            + parallel.comp_seconds[Location.TARGET]
        )
        assert attributed == pytest.approx(total)

    def test_wall_and_critical_path(self, reports):
        _, _, sequential, parallel = reports
        assert parallel.wall_seconds > 0.0
        assert sequential.wall_seconds > 0.0
        # The longest chain cannot exceed the run's own summed
        # attribution (it is the same times, minus the parallel slack).
        assert parallel.critical_path_seconds <= \
            parallel.total_seconds + 1e-9
        assert sequential.critical_path_seconds <= \
            sequential.total_seconds + 1e-9
        assert parallel.critical_path_seconds > 0.0

    def test_realtime_channel_overlaps(self, setup):
        """With a sleeping channel, the parallel wall clock beats the
        serialized comm+comp total."""
        make, build = setup
        program, placement = build()
        profile = NetworkProfile(
            "slow", bandwidth_bytes_per_second=200_000.0,
            latency_seconds=0.001,
        )
        source, target = make()
        report = ProgramExecutor(
            source, target,
            SimulatedChannel(profile, realtime=True), workers=4,
        ).run(program, placement)
        serialized = (
            report.comp_seconds[Location.SOURCE]
            + report.comp_seconds[Location.TARGET]
            + report.comm_seconds
        )
        assert report.comm_seconds > 0.0
        assert report.wall_seconds < serialized


class TestErrors:
    def test_bad_workers_rejected(self, setup):
        make, _ = setup
        source, target = make()
        with pytest.raises(ValueError):
            ProgramExecutor(source, target, workers=0)

    def test_operation_failure_propagates(self, setup):
        make, build = setup
        program, placement = build()
        source, target = make()
        source.store.clear()  # every Scan now raises EndpointError
        with pytest.raises(EndpointError):
            ProgramExecutor(source, target, workers=4).run(
                program, placement
            )


class TestMissingValueMessages:
    """The executor distinguishes never-produced from doubly-consumed
    values instead of blaming everything on double consumption."""

    def test_never_produced_message(self, setup, customers_s,
                                    customers_t):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        scan = program.scans()[0]
        write = program.writes()[0]
        # Rig an edge from an output port the Scan never fills; bypass
        # connect(), which would reject the out-of-range port, and
        # validate(), which the rig deliberately breaks.
        phantom = Edge(scan, 7, write, 0)
        program._in_edges[write.op_id][:] = [phantom]
        program.validate = lambda: None
        make, _ = setup
        source, target = make()
        with pytest.raises(ProgramError, match="never produced"):
            ProgramExecutor(source, target).run(
                program, source_heavy_placement(program)
            )

    def test_consumed_twice_message(self, setup, customers_s,
                                    customers_t):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        scan = program.scans()[0]
        first = next(
            edge for edge in program.edges if edge.producer is scan
        )
        other_write = next(
            write for write in program.writes()
            if write is not first.consumer
        )
        # A second consumer of the same output port; registered on both
        # endpoints so the topological order still resolves.
        double = Edge(scan, first.output_index, other_write, 0)
        program._in_edges[other_write.op_id].append(double)
        program._out_edges[scan.op_id].append(double)
        program.validate = lambda: None
        make, _ = setup
        source, target = make()
        with pytest.raises(ProgramError, match="consumed twice"):
            ProgramExecutor(source, target).run(
                program, source_heavy_placement(program)
            )
