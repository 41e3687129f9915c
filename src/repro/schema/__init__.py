"""Schema substrate: schema trees and DTD parsing.

The paper views XML Schemas as trees (Section 3.1).  This package holds
the tree model (:mod:`repro.schema.model`), a DTD parser that produces
schema trees (:mod:`repro.schema.dtd`, used for the XMark workload of
Figure 7) and the balanced schema generator of the simulation study
(:mod:`repro.schema.generator`).
"""

from repro.schema.dtd import parse_dtd
from repro.schema.generator import balanced_schema
from repro.schema.model import Cardinality, SchemaNode, SchemaTree

__all__ = [
    "Cardinality",
    "SchemaNode",
    "SchemaTree",
    "parse_dtd",
    "balanced_schema",
]
