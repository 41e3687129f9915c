"""The Section 1.1 motivating scenario: customer sales → provisioning.

Schema ``S`` is the sales/ordering system's relational layout
(CUSTOMER, ORDER, SERVICE, LINE_FEATURE, SWITCH) expressed as a
fragmentation; schema ``T`` is the provisioning LDAP directory's layout
(CUSTOMER_T, ORDER_SERVICE_T, LINE_SWITCH_T, FEATURE_T) — the paper's
*T-fragmentation*.  Note ``Line_Feature`` is a *pruned* subtree (it
contains Line, TelNo, Feature, FeatureID but not Switch), which is what
makes the exchange of Figure 5 need both a Split and Combines.
"""

from __future__ import annotations

import random

from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.schema.dtd import parse_dtd
from repro.schema.model import SchemaTree
from repro.wsdl.model import Definitions, Port, Service
from repro.xmlkit.tree import Element

#: The customer information schema agreed in the Figure 1 WSDL.
CUSTOMER_DTD = """
<!ELEMENT Customer (CustName, Order*)>
<!ELEMENT CustName (#PCDATA)>
<!ELEMENT Order (Service, Line*)>
<!ELEMENT Service (ServiceName)>
<!ELEMENT ServiceName (#PCDATA)>
<!ELEMENT Line (TelNo, Switch, Feature*)>
<!ELEMENT TelNo (#PCDATA)>
<!ELEMENT Switch (SwitchID)>
<!ELEMENT SwitchID (#PCDATA)>
<!ELEMENT Feature (FeatureID)>
<!ELEMENT FeatureID (#PCDATA)>
"""

_SERVICES = ("local", "long-distance", "international", "bundle")
_FEATURES = ("caller ID", "voicemail", "call waiting", "three-way",
             "forwarding")
_NAMES = ("Acme Corp", "Globex", "Initech", "Umbrella", "Stark",
          "Wayne Enterprises", "Tyrell", "Wonka Industries")


def customer_schema() -> SchemaTree:
    """The agreed XML Schema as a tree."""
    return parse_dtd(CUSTOMER_DTD)


def s_fragmentation(schema: SchemaTree) -> Fragmentation:
    """The sales system's fragmentation — one fragment per relation of
    schema S, including the denormalized LINE_FEATURE (Line + Feature
    without Switch)."""
    return Fragmentation(
        schema,
        [
            Fragment(schema, ["Customer", "CustName"], "Customer"),
            Fragment(schema, ["Order"], "Order"),
            Fragment(schema, ["Service", "ServiceName"], "Service"),
            Fragment(
                schema,
                ["Line", "TelNo", "Feature", "FeatureID"],
                "Line_Feature",
            ),
            Fragment(schema, ["Switch", "SwitchID"], "Switch"),
        ],
        "S-fragmentation",
    )


def t_fragmentation(schema: SchemaTree) -> Fragmentation:
    """The provisioning system's *T-fragmentation* (Section 3.1)."""
    return Fragmentation(
        schema,
        [
            Fragment(schema, ["Customer", "CustName"], "Customer"),
            Fragment(
                schema, ["Order", "Service", "ServiceName"],
                "Order_Service",
            ),
            Fragment(
                schema, ["Line", "TelNo", "Switch", "SwitchID"],
                "Line_Switch",
            ),
            Fragment(schema, ["Feature", "FeatureID"], "Feature"),
        ],
        "T-fragmentation",
    )


def customer_info_wsdl() -> Definitions:
    """The Figure 1 WSDL: CustomerInfoService with its embedded schema."""
    def element(name: str, *children: Element,
                **attrs: str) -> Element:
        node = Element("element", {"name": name, **attrs})
        node.children.extend(children)
        return node

    schema_element = Element(
        "schema",
        {
            "targetNamespace": "http://customers.xsd",
            "xmlns": "http://www.w3.org/XMLSchema",
        },
    )
    schema_element.append(
        element(
            "Customer",
            element("CustName", type="string"),
            element(
                "Order",
                element(
                    "Service",
                    element("ServiceName", type="string"),
                ),
                element(
                    "Line",
                    element("TelNo", type="string"),
                    element(
                        "Switch",
                        element("SwitchID", type="string"),
                    ),
                    element(
                        "Feature",
                        element("FeatureID", type="string"),
                        maxOccurs="unbounded",
                    ),
                    maxOccurs="unbounded",
                ),
                maxOccurs="unbounded",
            ),
        )
    )
    return Definitions(
        name="CustomerInfo",
        target_namespace="http://customers.wsdl",
        types=[schema_element],
        services=[
            Service(
                "CustomerInfoService",
                documentation="Provides customer information",
                ports=[
                    Port(
                        "CustomerInfoPort",
                        "tns:CustomerInfoBinding",
                        "http://customerinfo",
                    )
                ],
            )
        ],
    )


def generate_customer_instances(n_customers: int = 5, *,
                                seed: int = 0) -> list[ElementData]:
    """One document per customer (CustomerInfoService returns a set of
    documents, one per customer — Section 1.1)."""
    rng = random.Random(seed)
    next_eid = 1

    def make(name: str, text: str = "") -> ElementData:
        nonlocal next_eid
        data = ElementData(name, next_eid, {}, text)
        next_eid += 1
        return data

    documents: list[ElementData] = []
    for customer_number in range(n_customers):
        customer = make("Customer")
        customer.add_child(
            make(
                "CustName",
                f"{rng.choice(_NAMES)} #{customer_number}",
            )
        )
        for _ in range(rng.randint(1, 3)):
            order = customer.add_child(make("Order"))
            service = order.add_child(make("Service"))
            service.add_child(
                make("ServiceName", rng.choice(_SERVICES))
            )
            for _ in range(rng.randint(1, 4)):
                line = order.add_child(make("Line"))
                line.add_child(
                    make(
                        "TelNo",
                        "973-%03d-%04d" % (
                            rng.randint(0, 999), rng.randint(0, 9999),
                        ),
                    )
                )
                switch = line.add_child(make("Switch"))
                switch.add_child(
                    make("SwitchID", f"SW{rng.randint(100, 999)}")
                )
                for _ in range(rng.randint(0, 3)):
                    feature = line.add_child(make("Feature"))
                    feature.add_child(
                        make("FeatureID", rng.choice(_FEATURES))
                    )
        documents.append(customer)
    return documents


def fragment_customers(documents: list[ElementData],
                       fragmentation: Fragmentation
                       ) -> dict[str, FragmentInstance]:
    """Split customer documents into a fragmentation's instances (used
    to seed in-memory endpoints with schema-S-shaped feeds)."""
    whole = Fragment.whole(fragmentation.schema)
    rows = [FragmentRow(document, None) for document in documents]
    instance = FragmentInstance(whole, rows)
    pieces = instance.split(list(fragmentation.fragments))
    return {piece.fragment.name: piece for piece in pieces}
