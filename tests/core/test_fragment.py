"""Fragments (Definition 3.1) as pruned schema subtrees."""

import pytest
from hypothesis import given, settings

from repro.errors import FragmentationError, OperationError
from repro.core.fragment import Fragment

from tests.core.fragment_walks import combine_walks, walk_fragments


class TestConstruction:
    def test_full_subtree(self, customers_schema):
        fragment = Fragment.full_subtree(customers_schema, "Line")
        assert fragment.root_name == "Line"
        assert fragment.elements == {
            "Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID",
        }

    def test_whole(self, customers_schema):
        fragment = Fragment.whole(customers_schema)
        assert fragment.root_name == "Customer"
        assert len(fragment) == len(customers_schema)

    def test_single(self, customers_schema):
        fragment = Fragment.single(customers_schema, "Order")
        assert fragment.elements == {"Order"}

    def test_pruned_subtree(self, customers_schema):
        # The paper's LINE_FEATURE: Line + TelNo + Feature, no Switch.
        fragment = Fragment(
            customers_schema, ["Line", "TelNo", "Feature", "FeatureID"]
        )
        assert fragment.root_name == "Line"
        assert "Switch" not in fragment

    def test_default_name_is_preorder_join(self, customers_schema):
        fragment = Fragment(
            customers_schema, ["Service", "ServiceName"]
        )
        assert fragment.name == "Service_ServiceName"

    def test_explicit_name(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"], "ORD")
        assert fragment.name == "ORD"

    def test_empty_rejected(self, customers_schema):
        with pytest.raises(FragmentationError):
            Fragment(customers_schema, [])

    def test_disconnected_rejected(self, customers_schema):
        with pytest.raises(FragmentationError):
            Fragment(customers_schema, ["Line", "SwitchID"])

    def test_two_tops_rejected(self, customers_schema):
        with pytest.raises(Exception):
            Fragment(customers_schema, ["CustName", "Order"])

    def test_unknown_element_rejected(self, customers_schema):
        with pytest.raises(Exception):
            Fragment(customers_schema, ["Nope"])


class TestProperties:
    def test_parent_element(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"])
        assert fragment.parent_element() == "Customer"
        whole = Fragment.whole(customers_schema)
        assert whole.parent_element() is None

    def test_flat_storable(self, customers_schema):
        assert Fragment(
            customers_schema, ["Line", "TelNo", "Switch", "SwitchID"]
        ).is_flat_storable()
        # Feature is repeated below Line.
        assert not Fragment(
            customers_schema, ["Line", "TelNo", "Feature", "FeatureID"]
        ).is_flat_storable()

    def test_flat_parts(self, customers_schema):
        """A fragment that does not flatten is the Combine of its flat
        parts, cut at each repeated element, roots in pre-order; a flat
        fragment is its own single part."""
        flat = Fragment(customers_schema, ["Order", "Service"])
        assert flat.flat_parts() == (flat,)
        assert flat.flat_parts()[0] is flat
        whole = Fragment.whole(customers_schema)
        parts = whole.flat_parts()
        assert [sorted(part.elements) for part in parts] == [
            ["CustName", "Customer"],
            ["Order", "Service", "ServiceName"],
            ["Line", "Switch", "SwitchID", "TelNo"],
            ["Feature", "FeatureID"],
        ]
        assert all(part.is_flat_storable() for part in parts)
        combined = parts[0]
        for part in parts[1:]:
            combined = combined.combined_with(part)
        assert combined == whole
        # Memoized, and shared by equal fragments whatever their name.
        assert Fragment.whole(customers_schema, "x").flat_parts() is parts

    def test_children_of_respects_pruning(self, customers_schema):
        fragment = Fragment(
            customers_schema, ["Line", "TelNo", "Feature", "FeatureID"]
        )
        names = [node.name for node in fragment.children_of("Line")]
        assert names == ["TelNo", "Feature"]  # Switch pruned

    def test_leaf_elements(self, customers_schema):
        fragment = Fragment(
            customers_schema, ["Order", "Service", "ServiceName"]
        )
        assert fragment.leaf_elements() == ["ServiceName"]

    def test_is_leaf_in_fragment(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"])
        assert fragment.children_of("Order") == []  # children pruned

    def test_equality_and_hash(self, customers_schema):
        first = Fragment(customers_schema, ["Order"], "x")
        second = Fragment(customers_schema, ["Order"], "y")
        assert first == second  # names do not matter
        assert hash(first) == hash(second)
        assert first != Fragment(customers_schema, ["Service",
                                                    "ServiceName"])


class TestCombineSplitAlgebra:
    def test_can_combine_parent_child(self, customers_schema):
        order = Fragment(customers_schema, ["Order"])
        service = Fragment(customers_schema, ["Service", "ServiceName"])
        assert order.can_combine(service)
        assert not service.can_combine(order)

    def test_cannot_combine_unrelated(self, customers_schema):
        # The paper's example: Line and Customer cannot be combined.
        customer = Fragment(customers_schema, ["Customer", "CustName"])
        line = Fragment(customers_schema, ["Line", "TelNo"])
        assert not customer.can_combine(line)
        with pytest.raises(OperationError):
            customer.combined_with(line)

    def test_combined_with(self, customers_schema):
        order = Fragment(customers_schema, ["Order"])
        service = Fragment(customers_schema, ["Service", "ServiceName"])
        combined = order.combined_with(service)
        assert combined.root_name == "Order"
        assert combined.elements == {"Order", "Service", "ServiceName"}
        assert combined.name == "Order_Service_ServiceName"

    def test_split_into_partition(self, customers_schema):
        fragment = Fragment(
            customers_schema, ["Line", "TelNo", "Feature", "FeatureID"]
        )
        line, feature = fragment.split_into(
            [["Line", "TelNo"], ["Feature", "FeatureID"]]
        )
        assert line.root_name == "Line"
        assert feature.root_name == "Feature"

    def test_split_must_partition(self, customers_schema):
        fragment = Fragment(customers_schema, ["Line", "TelNo"])
        with pytest.raises(OperationError):
            fragment.split_into([["Line"]])  # misses TelNo
        with pytest.raises(OperationError):
            fragment.split_into([["Line", "TelNo"], ["TelNo"]])

    def test_split_names(self, customers_schema):
        fragment = Fragment(customers_schema, ["Line", "TelNo"])
        pieces = fragment.split_into(
            [["Line"], ["TelNo"]], names=["L", "T"]
        )
        assert [piece.name for piece in pieces] == ["L", "T"]
        with pytest.raises(OperationError):
            fragment.split_into([["Line"], ["TelNo"]], names=["L"])

    def test_combine_then_elements_are_union(self, customers_schema):
        line = Fragment(customers_schema, ["Line", "TelNo"])
        switch = Fragment(customers_schema, ["Switch", "SwitchID"])
        combined = line.combined_with(switch)
        assert combined.elements == line.elements | switch.elements


class TestShortcutsMatchTheValidatedPath:
    """``combined_with`` skips validation and names are computed on
    first read; both must agree with the checked constructor."""

    @settings(max_examples=60, deadline=None)
    @given(combine_walks())
    def test_combined_with_equals_the_validated_union(self, walk):
        schema, steps = walk
        for parent, child, combined in steps:
            reference = Fragment(schema, parent.elements | child.elements)
            assert combined.elements == reference.elements
            assert combined.root_name == reference.root_name
            assert combined.name == reference.name
            assert hash(combined) == hash(reference)
            assert combined == reference

    @settings(max_examples=60, deadline=None)
    @given(combine_walks())
    def test_default_name_is_the_preorder_filter(self, walk):
        schema, steps = walk
        for fragment in walk_fragments(steps):
            assert Fragment.default_name(schema, fragment.elements) == (
                "_".join(
                    node.name for node in schema.iter_nodes()
                    if node.name in fragment.elements
                )
            )

    def test_combined_with_keeps_an_explicit_name(self, customers_schema):
        order = Fragment(customers_schema, ["Order"])
        service = Fragment(customers_schema, ["Service", "ServiceName"])
        assert order.combined_with(service, name="X").name == "X"

    def test_empty_name_means_the_default(self, customers_schema):
        fragment = Fragment(customers_schema, ["Service", "ServiceName"],
                            name="")
        assert fragment.name == "Service_ServiceName"
