"""The transfer-program DAG: structure, validation, placements."""

import pytest

from repro.errors import PlacementError, ProgramError
from repro.core.fragment import Fragment
from repro.core.ops import Combine, Location, Scan, Write
from repro.core.program.dag import TransferProgram


@pytest.fixture
def simple_program(customers_schema):
    order = Fragment(customers_schema, ["Order"])
    service = Fragment(customers_schema, ["Service", "ServiceName"])
    program = TransferProgram()
    scan_order = program.add(Scan(order))
    scan_service = program.add(Scan(service))
    combine = program.add(Combine(order, service))
    write = program.add(Write(combine.result))
    program.connect(scan_order, 0, combine, 0)
    program.connect(scan_service, 0, combine, 1)
    program.connect(combine, 0, write, 0)
    return program, scan_order, scan_service, combine, write


class TestStructure:
    def test_validate_passes(self, simple_program):
        program = simple_program[0]
        program.validate()

    def test_topological_order(self, simple_program):
        program, scan_order, scan_service, combine, write = \
            simple_program
        order = program.topological_order()
        positions = {node.op_id: i for i, node in enumerate(order)}
        assert positions[scan_order.op_id] < positions[combine.op_id]
        assert positions[scan_service.op_id] < positions[combine.op_id]
        assert positions[combine.op_id] < positions[write.op_id]

    def test_in_out_edges(self, simple_program):
        program, _, _, combine, write = simple_program
        assert len(program.in_edges(combine)) == 2
        assert program.consumers(combine) == [write]
        assert len(program.producers(combine)) == 2

    def test_closures(self, simple_program):
        program, scan_order, scan_service, combine, write = \
            simple_program
        up = program.upstream_closure(write)
        assert up == {scan_order.op_id, scan_service.op_id,
                      combine.op_id}
        down = program.downstream_closure(scan_order)
        assert down == {combine.op_id, write.op_id}

    def test_fragment_mismatch_rejected(self, customers_schema):
        program = TransferProgram()
        scan = program.add(
            Scan(Fragment(customers_schema, ["Order"]))
        )
        write = program.add(
            Write(Fragment(customers_schema, ["Customer", "CustName"]))
        )
        with pytest.raises(ProgramError, match="mismatch"):
            program.connect(scan, 0, write, 0)

    def test_double_connect_rejected(self, simple_program):
        program, scan_order, _, combine, _ = simple_program
        with pytest.raises(ProgramError):
            program.connect(scan_order, 0, combine, 0)

    def test_foreign_node_rejected(self, simple_program,
                                   customers_schema):
        program = simple_program[0]
        foreign = Scan(Fragment(customers_schema, ["Order"]))
        with pytest.raises(ProgramError):
            program.connect(foreign, 0, simple_program[3], 0)

    def test_bad_port_rejected(self, simple_program):
        program, scan_order, _, combine, _ = simple_program
        with pytest.raises(ProgramError):
            program.connect(scan_order, 3, combine, 0)

    def test_dangling_input_detected(self, customers_schema):
        program = TransferProgram()
        order = Fragment(customers_schema, ["Order"])
        program.add(Write(order))
        with pytest.raises(ProgramError, match="unconnected"):
            program.validate()

    def test_scan_with_input_rejected(self, customers_schema):
        program = TransferProgram()
        order = Fragment(customers_schema, ["Order"])
        scan_a = program.add(Scan(order))
        scan_b = program.add(Scan(order))
        program.connect(scan_a, 0, scan_b, 0)
        with pytest.raises(ProgramError):
            program.validate()


class TestPlacement:
    def _full(self, simple_program, combine_at):
        program, scan_order, scan_service, combine, write = \
            simple_program
        return {
            scan_order.op_id: Location.SOURCE,
            scan_service.op_id: Location.SOURCE,
            combine.op_id: combine_at,
            write.op_id: Location.TARGET,
        }

    def test_valid_placements(self, simple_program):
        program = simple_program[0]
        for location in (Location.SOURCE, Location.TARGET):
            program.validate_placement(
                self._full(simple_program, location)
            )

    def test_cross_edges(self, simple_program):
        program = simple_program[0]
        placement = self._full(simple_program, Location.SOURCE)
        crosses = program.cross_edges(placement)
        assert len(crosses) == 1
        assert crosses[0].consumer.kind == "write"

    def test_missing_assignment_rejected(self, simple_program):
        program, scan_order, *_ = simple_program
        with pytest.raises(PlacementError, match="unassigned"):
            program.validate_placement({scan_order.op_id:
                                        Location.SOURCE})

    def test_scan_must_be_at_source(self, simple_program):
        program = simple_program[0]
        placement = self._full(simple_program, Location.TARGET)
        placement[simple_program[1].op_id] = Location.TARGET
        with pytest.raises(PlacementError):
            program.validate_placement(placement)

    def test_write_must_be_at_target(self, simple_program):
        program = simple_program[0]
        placement = self._full(simple_program, Location.SOURCE)
        placement[simple_program[4].op_id] = Location.SOURCE
        with pytest.raises(PlacementError):
            program.validate_placement(placement)

    def test_no_backward_shipping(self, simple_program,
                                  customers_schema):
        # combine at T feeding... build a T->S situation artificially:
        program, scan_order, scan_service, combine, write = \
            simple_program
        placement = self._full(simple_program, Location.TARGET)
        # Move a scan's consumer to S while the producer sits at T is
        # impossible here; instead verify T-combine -> T-write is fine
        program.validate_placement(placement)

    def test_apply_and_collect(self, simple_program):
        program = simple_program[0]
        placement = self._full(simple_program, Location.SOURCE)
        program.apply_placement(placement)
        assert program.placement_from_nodes() == placement
