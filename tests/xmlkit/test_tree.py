"""The element tree."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmlkit.tree import Element, parse_tree


class TestParseTree:
    def test_basic_structure(self):
        root = parse_tree("<a><b>x</b><b>y</b><c/></a>")
        assert root.name == "a"
        assert [child.name for child in root.children] == ["b", "b", "c"]
        assert [child.text for child in root.find_all("b")] == ["x", "y"]

    def test_attributes(self):
        root = parse_tree('<a id="7" kind="demo"/>')
        assert root.get("id") == "7"
        assert root.get("missing") is None
        assert root.get("missing", "dflt") == "dflt"

    def test_text_is_stripped(self):
        root = parse_tree("<a>\n  padded  \n</a>")
        assert root.text == "padded"

    def test_child_lookup(self):
        root = parse_tree("<a><b/><c/></a>")
        assert root.child("c").name == "c"
        assert root.child("zz") is None

    def test_iter_preorder(self):
        """Children keep document order, so a pre-order walk of the
        parsed tree reads the elements as written."""
        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        root = parse_tree("<a><b><d/></b><c/></a>")
        assert [node.name for node in walk(root)] == ["a", "b", "d", "c"]

    def test_local_name(self):
        assert Element("soap:Body").local_name() == "Body"
        assert Element("plain").local_name() == "plain"

    def test_empty_document_raises(self):
        with pytest.raises(XmlSyntaxError):
            parse_tree("   ")

    def test_append_returns_child(self):
        root = Element("a")
        child = root.append(Element("b"))
        assert child.name == "b"
        assert root.children == [child]
