"""The DTD parser."""

import pytest

from repro.errors import DtdSyntaxError, SchemaError
from repro.schema.dtd import parse_dtd
from repro.schema.model import Cardinality
from repro.workloads.xmark import XMARK_DTD


class TestParseDtd:
    def test_sequence_with_suffixes(self):
        tree = parse_dtd("""
            <!ELEMENT a (b, c?, d*, e+)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT c (#PCDATA)>
            <!ELEMENT d (#PCDATA)>
            <!ELEMENT e (#PCDATA)>
        """)
        cards = {
            child.name: child.cardinality
            for child in tree.root.children
        }
        assert cards == {
            "b": Cardinality.ONE,
            "c": Cardinality.OPT,
            "d": Cardinality.MANY,
            "e": Cardinality.PLUS,
        }

    def test_group_suffix(self):
        tree = parse_dtd(
            "<!ELEMENT a (b)*>\n<!ELEMENT b (#PCDATA)>"
        )
        assert tree.node("b").cardinality is Cardinality.MANY

    def test_empty_and_any_are_leaves(self):
        tree = parse_dtd(
            "<!ELEMENT a (b, c)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c ANY>"
        )
        assert tree.node("b").is_leaf
        assert tree.node("c").is_leaf

    def test_undeclared_children_become_leaves(self):
        tree = parse_dtd("<!ELEMENT a (b)>")
        assert tree.node("b").is_leaf

    def test_attlist(self):
        tree = parse_dtd("""
            <!ELEMENT a (#PCDATA)>
            <!ATTLIST a id CDATA #REQUIRED featured CDATA #IMPLIED>
        """)
        assert tree.root.attributes == ["id", "featured"]

    def test_attlist_with_fixed_default(self):
        tree = parse_dtd("""
            <!ELEMENT a (#PCDATA)>
            <!ATTLIST a version CDATA #FIXED '1.0'>
        """)
        assert tree.root.attributes == ["version"]

    def test_comments_ignored(self):
        tree = parse_dtd("""
            <!-- heading -->
            <!ELEMENT a (b)>
            <!-- middle --> <!ELEMENT b (#PCDATA)>
        """)
        assert len(tree) == 2

    def test_root_inference(self):
        tree = parse_dtd("<!ELEMENT x (y)>\n<!ELEMENT y (#PCDATA)>")
        assert tree.root.name == "x"

    def test_explicit_root(self):
        tree = parse_dtd(
            "<!ELEMENT x (y)>\n<!ELEMENT y (#PCDATA)>", root="x"
        )
        assert tree.root.name == "x"

    def test_unknown_explicit_root_raises(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!ELEMENT x (#PCDATA)>", root="nope")

    def test_alternation_rejected(self):
        with pytest.raises(DtdSyntaxError):
            parse_dtd("<!ELEMENT a (b | c)>")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DtdSyntaxError):
            parse_dtd("<!ELEMENT a (#PCDATA)>\n<!ELEMENT a (#PCDATA)>")

    def test_recursion_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!ELEMENT a (b)>\n<!ELEMENT b (a)>")

    def test_garbage_rejected(self):
        with pytest.raises(DtdSyntaxError):
            parse_dtd("<!ELEMENT a (#PCDATA)> stray tokens")

    def test_empty_dtd_rejected(self):
        with pytest.raises(DtdSyntaxError):
            parse_dtd("   ")

    def test_two_roots_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd(
                "<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>"
            )


class TestXmarkDtd:
    def test_parses_to_expected_shape(self):
        tree = parse_dtd(XMARK_DTD)
        assert tree.root.name == "site"
        assert tree.node("item").cardinality is Cardinality.MANY
        assert tree.node("category").cardinality is Cardinality.PLUS
        assert tree.node("item").attributes == ["id", "featured"]
        assert len(tree) == 24
