"""Failure injection and edge paths across subsystems."""

import pytest

from repro.errors import (
    EndpointError,
    ProgramError,
    RelationalError,
    TransportError,
    XmlSyntaxError,
)
from repro.core.fragment import Fragment
from repro.core.instance import FragmentInstance
from repro.core.ops import Scan, Write
from repro.core.program.dag import TransferProgram
from repro.core.program.executor import ProgramExecutor
from repro.core.ops.base import Location
from repro.net.transport import SimulatedChannel
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.engine import Database
from repro.services.endpoint import InMemoryEndpoint
from repro.workloads.customer import fragment_customers
from repro.xmlkit.parser import PI, tokens


class TestExecutorFailures:
    def test_unconsumed_output_detected(self, customers_schema,
                                        customers_s,
                                        customer_documents):
        source = InMemoryEndpoint("s")
        feeds = fragment_customers(customer_documents, customers_s)
        source.put(feeds["Order"])
        program = TransferProgram()
        scan = program.add(Scan(customers_s.fragment("Order")))
        placement = {scan.op_id: Location.SOURCE}
        with pytest.raises(ProgramError, match="unconsumed"):
            ProgramExecutor(source, InMemoryEndpoint("t")).run(
                program, placement
            )

    def test_endpoint_failure_propagates(self, customers_s):
        empty_source = InMemoryEndpoint("empty")
        program = TransferProgram()
        fragment = customers_s.fragment("Order")
        scan = program.add(Scan(fragment))
        write = program.add(Write(fragment))
        program.connect(scan, 0, write, 0)
        placement = {
            scan.op_id: Location.SOURCE,
            write.op_id: Location.TARGET,
        }
        with pytest.raises(EndpointError):
            ProgramExecutor(
                empty_source, InMemoryEndpoint("t")
            ).run(program, placement)

    def test_write_only_target_channel_closed(self, customers_s,
                                              customer_documents):
        source = InMemoryEndpoint("s")
        feeds = fragment_customers(customer_documents, customers_s)
        source.put(feeds["Order"])
        program = TransferProgram()
        fragment = customers_s.fragment("Order")
        scan = program.add(Scan(fragment))
        write = program.add(Write(fragment))
        program.connect(scan, 0, write, 0)
        placement = {
            scan.op_id: Location.SOURCE,
            write.op_id: Location.TARGET,
        }
        channel = SimulatedChannel()
        channel.close()
        with pytest.raises(TransportError):
            ProgramExecutor(
                source, InMemoryEndpoint("t"), channel
            ).run(program, placement)


class TestTransportEdges:
    def test_document_after_close(self):
        channel = SimulatedChannel()
        channel.close()
        with pytest.raises(TransportError):
            channel.ship_document("x")


class TestXmlEdges:
    def test_doctype_after_root_rejected(self):
        with pytest.raises(XmlSyntaxError, match="DOCTYPE"):
            list(tokens("<a/><!DOCTYPE a []>"))

    def test_cdata_outside_root_rejected(self):
        with pytest.raises(XmlSyntaxError, match="CDATA"):
            list(tokens("<![CDATA[x]]><a/>"))

    def test_unterminated_doctype(self):
        with pytest.raises(XmlSyntaxError, match="DOCTYPE"):
            list(tokens("<!DOCTYPE a [<!ELEMENT a (b)>"))

    def test_processing_instruction_between_elements(self):
        events = list(tokens("<a><?target data?></a>"))
        assert (PI, "target", "data") in events

    def test_very_deep_nesting_parses(self):
        depth = 300
        text = (
            "".join(f"<e{i}>" for i in range(depth))
            + "x"
            + "".join(f"</e{i}>" for i in reversed(range(depth)))
        )
        events = list(tokens(text))
        assert len(events) == 2 * depth + 1


class TestFragStoreEdges:
    def test_load_instance_foreign_fragment(self, auction_lf,
                                            customers_schema):
        db = Database("x")
        mapper = FragmentRelationMapper(auction_lf)
        mapper.create_tables(db)
        foreign = Fragment(customers_schema, ["Order"])
        with pytest.raises(RelationalError):
            mapper.load_instance(
                db, foreign, FragmentInstance(foreign)
            )

    def test_scan_empty_fragment_table(self, auction_lf):
        db = Database("x")
        mapper = FragmentRelationMapper(auction_lf)
        mapper.create_tables(db)
        instance = mapper.scan_fragment(
            db, auction_lf.fragment_of("item")
        )
        assert instance.row_count() == 0


class TestAgencyEdges:
    def test_duplicate_wsdl_registration(self, auction_schema,
                                         auction_lf):
        from repro.errors import NegotiationError
        from repro.services.agency import DiscoveryAgency

        agency = DiscoveryAgency(auction_schema)
        first = agency.register("a", auction_lf)
        with pytest.raises(NegotiationError):
            agency.register_wsdl("a", first.wsdl_text)
