"""Serialization of element trees."""

from repro.xmlkit.tree import Element, parse_tree
from repro.xmlkit.writer import serialize


class TestSerialize:
    def test_compact_empty_element(self):
        text = serialize(Element("a"), indent=None)
        assert text == '<?xml version="1.0"?><a/>'

    def test_text_and_attrs_escaped(self):
        node = Element("a", {"q": 'say "hi"'}, text="1 < 2")
        text = serialize(node, indent=None, declaration=False)
        assert text == '<a q="say &quot;hi&quot;">1 &lt; 2</a>'

    def test_indented_output(self):
        root = Element("a")
        root.append(Element("b", text="x"))
        text = serialize(root)
        assert "\n  <b>x</b>\n" in text

    def test_round_trip(self):
        original = '<a p="1"><b>text &amp; more</b><c/></a>'
        tree = parse_tree(original)
        again = parse_tree(serialize(tree, indent=None))
        assert serialize(tree) == serialize(again)
