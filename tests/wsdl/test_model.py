"""WSDL model round trips (the Figure 1 document)."""

import pytest

from repro.errors import WsdlError
from repro.wsdl.model import parse_wsdl, serialize_wsdl
from repro.workloads.customer import customer_info_wsdl


class TestFigure1:
    def test_structure(self):
        definitions = customer_info_wsdl()
        assert definitions.name == "CustomerInfo"
        [service] = definitions.services
        assert service.name == "CustomerInfoService"
        assert service.documentation == \
            "Provides customer information"
        assert service.ports[0].address == "http://customerinfo"
        assert service.ports[0].binding == "tns:CustomerInfoBinding"

    def test_round_trip(self):
        original = customer_info_wsdl()
        text = serialize_wsdl(original)
        parsed = parse_wsdl(text)
        assert parsed.name == original.name
        assert parsed.target_namespace == original.target_namespace
        [service] = parsed.services
        assert service.name == "CustomerInfoService"
        assert service.ports[0].address == "http://customerinfo"
        # The embedded schema types survive.
        schema = parsed.types[0]
        assert schema.local_name() == "schema"
        customer = schema.child("element")
        assert customer.get("name") == "Customer"

    def test_serialized_text_mentions_figure1_landmarks(self):
        text = serialize_wsdl(customer_info_wsdl())
        for landmark in (
            'name="CustomerInfo"',
            "http://customers.wsdl",
            "CustomerInfoService",
            "soap:address",
            'maxOccurs="unbounded"',
        ):
            assert landmark in text


class TestParsing:
    def test_non_wsdl_document_rejected(self):
        with pytest.raises(WsdlError):
            parse_wsdl("<html/>")

    def test_find_extension(self):
        definitions = customer_info_wsdl()
        assert definitions.find_extension("schema") is not None
        assert definitions.find_extension("fragmentation") is None
