"""Schema trees: lookups, ancestry, connectivity checks."""

import pytest

from repro.errors import SchemaError
from repro.schema.model import Cardinality, SchemaNode, SchemaTree


def small_tree() -> SchemaTree:
    root = SchemaNode("a", children=[
        SchemaNode("b", Cardinality.MANY, children=[
            SchemaNode("d"),
            SchemaNode("e", Cardinality.OPT),
        ]),
        SchemaNode("c", Cardinality.PLUS),
    ])
    return SchemaTree(root)


class TestCardinality:
    def test_repeated(self):
        assert Cardinality.MANY.repeated
        assert Cardinality.PLUS.repeated
        assert not Cardinality.ONE.repeated
        assert not Cardinality.OPT.repeated

    def test_optional(self):
        assert Cardinality.OPT.optional
        assert Cardinality.MANY.optional
        assert not Cardinality.PLUS.optional

    def test_from_suffix(self):
        assert Cardinality.from_suffix("") is Cardinality.ONE
        assert Cardinality.from_suffix("*") is Cardinality.MANY
        assert Cardinality.from_suffix("+") is Cardinality.PLUS
        assert Cardinality.from_suffix("?") is Cardinality.OPT
        with pytest.raises(SchemaError):
            Cardinality.from_suffix("!")


class TestSchemaTree:
    def test_lookup_and_membership(self):
        tree = small_tree()
        assert "d" in tree
        assert "zz" not in tree
        assert tree.node("b").cardinality is Cardinality.MANY
        with pytest.raises(SchemaError):
            tree.node("zz")

    def test_len_and_names_preorder(self):
        tree = small_tree()
        assert len(tree) == 5
        assert tree.element_names() == ["a", "b", "d", "e", "c"]

    def test_parents_and_depths(self):
        tree = small_tree()
        assert tree.parent_name("a") is None
        assert tree.parent_name("d") == "b"
        assert tree.depth("a") == 0
        assert tree.depth("d") == 2

    def test_path(self):
        tree = small_tree()
        assert tree.path("d") == ["a", "b", "d"]
        assert tree.path("a") == ["a"]

    def test_subtree_names(self):
        tree = small_tree()
        assert tree.subtree_names("b") == {"b", "d", "e"}
        assert tree.subtree_names("a") == {"a", "b", "c", "d", "e"}

    def test_duplicate_names_rejected(self):
        root = SchemaNode("a", children=[SchemaNode("b"),
                                         SchemaNode("b")])
        with pytest.raises(SchemaError):
            SchemaTree(root)

    def test_child_index_and_child(self):
        tree = small_tree()
        assert [node.name for node in tree.node("a").children] \
            == ["b", "c"]
        assert tree.node("a").child("b").name == "b"
        with pytest.raises(SchemaError):
            tree.node("a").child("zz")

    def test_top_of(self):
        tree = small_tree()
        assert tree.top_of({"b", "d", "e"}) == "b"
        with pytest.raises(SchemaError):
            tree.top_of({"d", "c"})

    def test_has_repeated_below(self):
        tree = small_tree()
        assert tree.has_repeated_below("a", {"a", "b"})
        assert not tree.has_repeated_below("b", {"b", "d"})
        # The root itself being repeated does not matter.
        assert not tree.has_repeated_below("c", {"c"})
