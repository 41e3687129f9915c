"""Computed fragments (the TotalMRCService idea of Section 1.1)."""

import pytest

from repro.errors import EndpointError
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.mapping import derive_mapping
from repro.core.program.builder import build_transfer_program
from repro.core.program.executor import ProgramExecutor
from repro.core.optimizer.placement import source_heavy_placement
from repro.relational.engine import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType
from repro.schema.dtd import parse_dtd
from repro.services.computed import ComputedFragmentSource, value_provider
from repro.services.endpoint import InMemoryEndpoint

#: The customer schema extended with the computed TotalMRC element.
MRC_DTD = """
<!ELEMENT Customer (CustName, Line*, TotalMRC)>
<!ELEMENT CustName (#PCDATA)>
<!ELEMENT Line (TelNo)>
<!ELEMENT TelNo (#PCDATA)>
<!ELEMENT TotalMRC (#PCDATA)>
"""


@pytest.fixture
def setup():
    schema = parse_dtd(MRC_DTD)
    source_fragmentation = Fragmentation(
        schema,
        [
            Fragment(schema, ["Customer", "CustName"], "Customer"),
            Fragment(schema, ["Line", "TelNo"], "Line"),
            Fragment(schema, ["TotalMRC"], "TotalMRC"),
        ],
        "S",
    )
    # Stored data: two customers with lines.
    inner = InMemoryEndpoint("sales")
    customers = []
    lines = []
    eid = 1

    def make(name, text=""):
        nonlocal eid
        data = ElementData(name, eid, text=text)
        eid += 1
        return data

    for index in range(2):
        customer = make("Customer")
        customer.add_child(make("CustName", f"cust{index}"))
        customers.append(FragmentRow(customer, None))
        for _ in range(index + 1):
            line = make("Line")
            line.add_child(make("TelNo", "555"))
            lines.append(FragmentRow(line, customer.eid))
    inner.put(FragmentInstance(
        source_fragmentation.fragment("Customer"), customers
    ))
    inner.put(FragmentInstance(
        source_fragmentation.fragment("Line"), lines
    ))

    # The hidden billing database behind TotalMRCService.
    billing = Database("billing")
    billing.create_table(TableSchema("charges", [
        Column("custkey", ColumnType.INTEGER),
        Column("mrc", ColumnType.REAL),
    ]))
    customer_eids = [row.eid for row in customers]
    billing.load("charges", [
        (customer_eids[0], 10.5), (customer_eids[0], 4.5),
        (customer_eids[1], 20.0),
    ])

    def total_mrc():
        totals = {}
        for custkey, mrc in zip(*billing.table("charges").columns):
            totals[custkey] = totals.get(custkey, 0.0) + mrc
        return totals.items()

    source = ComputedFragmentSource(
        inner, {"TotalMRC": value_provider(total_mrc)}
    )
    return schema, source_fragmentation, source, customer_eids


class TestComputedFragmentSource:
    def test_computed_scan(self, setup):
        _, fragmentation, source, customer_eids = setup
        instance = source.scan(fragmentation.fragment("TotalMRC"))
        by_parent = {row.parent: row.data.text for row in instance.rows}
        assert by_parent == {
            customer_eids[0]: "15.0", customer_eids[1]: "20.0",
        }

    def test_stored_scans_pass_through(self, setup):
        _, fragmentation, source, _ = setup
        assert source.scan(
            fragmentation.fragment("Customer")
        ).row_count() == 2

    def test_full_exchange_inlines_computed_values(self, setup):
        schema, fragmentation, source, _ = setup
        target_fragmentation = Fragmentation.whole_document(schema)
        program = build_transfer_program(
            derive_mapping(fragmentation, target_fragmentation)
        )
        target = InMemoryEndpoint("target")
        ProgramExecutor(source, target).run(
            program, source_heavy_placement(program)
        )
        (documents,) = target.store.values()
        for row in documents.rows:
            totals = [
                node.text
                for node in row.data.occurrences_of("TotalMRC")
            ]
            assert len(totals) == 1 and float(totals[0]) > 0

    def test_provider_fragment_mismatch_detected(self, setup):
        schema, fragmentation, source, _ = setup
        wrong = Fragment(schema, ["CustName"], "Wrong")

        def bad_provider(fragment):
            return FragmentInstance(wrong, [])

        bad = ComputedFragmentSource(
            source, {"TotalMRC": bad_provider}
        )
        with pytest.raises(EndpointError, match="produced"):
            bad.scan(fragmentation.fragment("TotalMRC"))

    def test_value_provider_validations(self, setup):
        schema, fragmentation, _, _ = setup
        three_wide = value_provider(lambda: [(1, 2, 3)])
        with pytest.raises(EndpointError, match="parent_eid"):
            three_wide(fragmentation.fragment("TotalMRC"))
        two_element = Fragment(
            schema, ["Line", "TelNo"], "Line2"
        )
        pairs = value_provider(lambda: [(1, 2)])
        with pytest.raises(EndpointError, match="single-element"):
            pairs(two_element)
