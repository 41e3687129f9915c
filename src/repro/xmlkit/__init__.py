"""A small, self-contained XML substrate.

The paper's systems rely on an XML stack (the authors used the Expat C
parser); this package provides the pure-Python equivalent used everywhere
in the reproduction:

* :mod:`repro.xmlkit.escape` — entity escaping/unescaping,
* :mod:`repro.xmlkit.parser` — a streaming tokenizer and SAX-style
  push parser,
* :mod:`repro.xmlkit.tree` — a lightweight element tree,
* :mod:`repro.xmlkit.writer` — tree serialization.

It intentionally supports the subset of XML that the paper's documents use:
elements, attributes, character data, CDATA sections, comments, processing
instructions and an (ignored) DOCTYPE declaration.  Namespaces are carried
as plain prefixed names, which is all WSDL round-tripping needs here.
"""

from repro.xmlkit.escape import escape_attr, escape_text, unescape
from repro.xmlkit.parser import ContentHandler, push_parse
from repro.xmlkit.tree import Element, parse_tree
from repro.xmlkit.writer import serialize

__all__ = [
    "escape_attr",
    "escape_text",
    "unescape",
    "push_parse",
    "ContentHandler",
    "Element",
    "parse_tree",
    "serialize",
]
