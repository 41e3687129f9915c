"""Program execution against endpoints."""

import pytest

from repro.errors import EndpointError, PlacementError, ProgramError
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.mapping import derive_mapping
from repro.core.ops.base import Location
from repro.core.optimizer.placement import (
    initial_placement,
    source_heavy_placement,
)
from repro.core.optimizer.greedy import greedy_placement
from repro.core.cost.model import CostModel
from repro.core.program.builder import build_transfer_program
from repro.core.program.dag import Edge
from repro.core.program.executor import ProgramExecutor
from repro.net.transport import InProcessTransport
from repro.services.endpoint import InMemoryEndpoint, RelationalEndpoint
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize


@pytest.fixture
def exchange_setup(customers_schema, customers_s, customers_t,
                   customer_documents):
    source = InMemoryEndpoint("src")
    for instance in fragment_customers(
        customer_documents, customers_s
    ).values():
        source.put(instance)
    target = InMemoryEndpoint("tgt")
    program = build_transfer_program(
        derive_mapping(customers_s, customers_t)
    )
    model = CostModel(StatisticsCatalog.synthetic(customers_schema))
    placement = greedy_placement(program, model)
    return source, target, program, placement


@pytest.fixture
def setup(customers_s, customers_t, customer_documents):
    """``(make, build)``: fresh S-fragmented source and empty target,
    and the S->T program under its source-heavy placement."""
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


class TestExecution:
    def test_all_targets_written(self, exchange_setup, customers_t):
        source, target, program, placement = exchange_setup
        ProgramExecutor(source, target).run(program, placement)
        assert set(target.store) == {
            fragment.name for fragment in customers_t
        }

    def test_report_metrics(self, exchange_setup):
        source, target, program, placement = exchange_setup
        report = ProgramExecutor(source, target).run(program, placement)
        assert report.rows_written > 0
        assert len(report.op_timings) == len(program.nodes)
        assert report.total_seconds >= 0
        assert report.seconds_for_kind("scan") >= 0

    def test_content_equals_direct_split(
            self, exchange_setup, customers_t, customer_documents):
        source, target, program, placement = exchange_setup
        ProgramExecutor(source, target).run(program, placement)
        expected = fragment_customers(customer_documents, customers_t)
        for name, instance in expected.items():
            got = target.store[name]
            got_docs = sorted(
                serialize(doc) for doc in got.to_xml_documents()
            )
            want_docs = sorted(
                serialize(doc) for doc in instance.to_xml_documents()
            )
            assert got_docs == want_docs, name

    def test_placement_must_be_total(self, exchange_setup):
        source, target, program, _ = exchange_setup
        with pytest.raises(PlacementError):
            ProgramExecutor(source, target).run(
                program, initial_placement(program)
            )

    def test_placement_from_nodes_default(self, exchange_setup):
        source, target, program, placement = exchange_setup
        program.apply_placement(placement)
        report = ProgramExecutor(source, target).run(program)
        assert report.rows_written > 0

    def test_comm_accounting_with_default_channel(self, exchange_setup):
        source, target, program, placement = exchange_setup
        report = ProgramExecutor(source, target).run(program, placement)
        assert report.shipments == len(program.cross_edges(placement))
        assert report.comm_bytes > 0
        assert report.comm_seconds == 0.0  # zero-cost default channel

    def test_default_channel_charges_what_in_process_charges(
            self, auction_mf, auction_lf, auction_document):
        """Figure 9's MF->LF: the default channel charges each batch's
        feed size, as a byte-counting in-process transport does."""
        source = RelationalEndpoint("S", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)
        default, in_process = (
            ProgramExecutor(
                source, RelationalEndpoint(f"T{number}", auction_lf),
                *channel,
            ).run(program, placement)
            for number, channel in enumerate(((), (InProcessTransport(),)))
        )
        assert default.comm_bytes == in_process.comm_bytes > 0

    def test_comp_attribution_by_location(self, exchange_setup):
        source, target, program, placement = exchange_setup
        report = ProgramExecutor(source, target).run(program, placement)
        total = sum(timing.seconds for timing in report.op_timings)
        attributed = (
            report.comp_seconds[Location.SOURCE]
            + report.comp_seconds[Location.TARGET]
        )
        assert attributed == pytest.approx(total)


class TestDeterminism:
    def test_repeated_runs_stable(self, setup):
        make, build = setup
        program, placement = build()
        results = []
        for _ in range(3):
            source, target = make()
            ProgramExecutor(source, target).run(program, placement)
            results.append(_written_documents(target))
        assert results[0] == results[1] == results[2]


class TestErrors:
    def test_operation_failure_propagates(self, setup):
        make, build = setup
        program, placement = build()
        source, target = make()
        source.store.clear()  # every Scan now raises EndpointError
        with pytest.raises(EndpointError):
            ProgramExecutor(source, target).run(program, placement)


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
