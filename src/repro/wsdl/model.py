"""The WSDL 1.1 subset of Figure 1.

A :class:`Definitions` holds embedded schema types, services with their
ports, and — via the extension of Section 3.1 — registered
fragmentations.  Message/portType/binding details beyond what Figure 1
shows are intentionally out of scope (the paper omits them too).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WsdlError
from repro.xmlkit.tree import Element, parse_tree
from repro.xmlkit.writer import serialize

WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"


@dataclass(slots=True)
class Port:
    """A service port: name, binding reference and SOAP address."""

    name: str
    binding: str
    address: str


@dataclass(slots=True)
class Service:
    """A named service with documentation and ports."""

    name: str
    documentation: str = ""
    ports: list[Port] = field(default_factory=list)


@dataclass(slots=True)
class Definitions:
    """A WSDL document: name, namespace, types, services, extensions."""

    name: str
    target_namespace: str = ""
    #: Raw embedded ``<schema>``/extension elements from ``<types>``.
    types: list[Element] = field(default_factory=list)
    services: list[Service] = field(default_factory=list)

    def find_extension(self, local_name: str) -> Element | None:
        """First ``<types>`` child with the given local name."""
        for element in self.types:
            if element.local_name() == local_name:
                return element
        return None


def serialize_wsdl(definitions: Definitions) -> str:
    """Render a :class:`Definitions` as a WSDL document string."""
    root = Element(
        "definitions",
        {
            "name": definitions.name,
            "targetNamespace": definitions.target_namespace,
            "xmlns": WSDL_NS,
            "xmlns:soap": SOAP_NS,
        },
    )
    if definitions.types:
        types = root.append(Element("types"))
        types.children.extend(definitions.types)
    for service in definitions.services:
        service_element = root.append(
            Element("service", {"name": service.name})
        )
        if service.documentation:
            service_element.append(
                Element("documentation", text=service.documentation)
            )
        for port in service.ports:
            port_element = service_element.append(
                Element(
                    "port",
                    {"name": port.name, "binding": port.binding},
                )
            )
            port_element.append(
                Element("soap:address", {"location": port.address})
            )
    return serialize(root)


def parse_wsdl(text: str) -> Definitions:
    """Parse a WSDL document produced by :func:`serialize_wsdl` (or a
    hand-written one using the same subset).

    Raises:
        WsdlError: if the root element is not ``definitions``.
        XmlSyntaxError: on malformed XML.
    """
    root = parse_tree(text)
    if root.local_name() != "definitions":
        raise WsdlError(f"not a WSDL document: <{root.name}>")
    definitions = Definitions(
        name=root.get("name", "") or "",
        target_namespace=root.get("targetNamespace", "") or "",
    )
    types = root.child("types")
    if types is not None:
        definitions.types.extend(types.children)
    for service_element in root.find_all("service"):
        service = Service(service_element.get("name", "") or "")
        documentation = service_element.child("documentation")
        if documentation is not None:
            service.documentation = documentation.text
        for port_element in service_element.find_all("port"):
            address = ""
            for child in port_element.children:
                if child.local_name() == "address":
                    address = child.get("location", "") or ""
            service.ports.append(
                Port(
                    port_element.get("name", "") or "",
                    port_element.get("binding", "") or "",
                    address,
                )
            )
        definitions.services.append(service)
    return definitions
