"""Fragmentations and validity (Definitions 3.3/3.4)."""

import pytest

from repro.errors import FragmentationError
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation


class TestValidity:
    def test_valid_t_fragmentation(self, customers_t):
        names = {fragment.name for fragment in customers_t}
        assert names == {
            "Customer", "Order_Service", "Line_Switch", "Feature",
        }

    def test_overlap_rejected(self, customers_schema):
        with pytest.raises(FragmentationError) as excinfo:
            Fragmentation(customers_schema, [
                Fragment.whole(customers_schema),
                Fragment.single(customers_schema, "Order"),
            ])
        assert "Definition 3.4" in str(excinfo.value)

    def test_incomplete_rejected(self, customers_schema):
        with pytest.raises(FragmentationError) as excinfo:
            Fragmentation(customers_schema, [
                Fragment(customers_schema, ["Customer", "CustName"]),
            ])
        assert "does not cover" in str(excinfo.value)

    def test_empty_rejected(self, customers_schema):
        with pytest.raises(FragmentationError):
            Fragmentation(customers_schema, [])

    def test_duplicate_names_rejected(self, customers_schema):
        with pytest.raises(FragmentationError):
            Fragmentation(customers_schema, [
                Fragment(customers_schema, ["Customer", "CustName"],
                         "same"),
                Fragment.full_subtree(customers_schema, "Order", "same"),
            ])


class TestConstructors:
    def test_most_fragmented(self, customers_schema):
        mf = Fragmentation.most_fragmented(customers_schema)
        assert len(mf) == len(customers_schema)
        assert all(len(fragment) == 1 for fragment in mf)

    def test_least_fragmented_boundaries_at_repeats(self,
                                                    customers_schema):
        lf = Fragmentation.least_fragmented(customers_schema)
        roots = {fragment.root_name for fragment in lf}
        assert roots == {"Customer", "Order", "Line", "Feature"}

    def test_from_roots_must_include_schema_root(self,
                                                 customers_schema):
        with pytest.raises(FragmentationError):
            Fragmentation.from_roots(customers_schema, ["Order"])

    def test_from_roots_assignment(self, customers_schema):
        fragmentation = Fragmentation.from_roots(
            customers_schema, ["Customer", "Line"]
        )
        top = fragmentation.fragment_of("Service")
        assert top.root_name == "Customer"
        assert fragmentation.fragment_of("SwitchID").root_name == "Line"

    def test_whole_document(self, customers_schema):
        whole = Fragmentation.whole_document(customers_schema)
        assert len(whole) == 1
        assert whole.root_fragment().elements == frozenset(
            customers_schema.element_names()
        )


class TestNavigation:
    def test_fragment_lookup(self, customers_t):
        assert customers_t.fragment("Feature").root_name == "Feature"
        with pytest.raises(FragmentationError):
            customers_t.fragment("Nope")
        assert "Feature" in customers_t
        assert "Nope" not in customers_t

    def test_fragment_of(self, customers_t):
        assert customers_t.fragment_of("ServiceName").name == \
            "Order_Service"
        with pytest.raises(FragmentationError):
            customers_t.fragment_of("Nope")

    def test_parent_fragment(self, customers_t):
        feature = customers_t.fragment("Feature")
        parent = customers_t.parent_fragment(feature)
        assert parent.name == "Line_Switch"
        root = customers_t.root_fragment()
        assert customers_t.parent_fragment(root) is None

    def test_child_fragments(self, customers_t):
        root = customers_t.root_fragment()
        children = {
            fragment.name
            for fragment in customers_t
            if customers_t.parent_fragment(fragment) is root
        }
        assert children == {"Order_Service"}

    def test_fragment_tree_is_consistent(self, auction_lf):
        # Every non-root fragment's parent is a fragment of the set.
        for fragment in auction_lf:
            parent = auction_lf.parent_fragment(fragment)
            if fragment is auction_lf.root_fragment():
                assert parent is None
            else:
                assert parent in list(auction_lf)

    def test_flat_storable(self, customers_s, customers_t, auction_mf,
                           auction_lf):
        assert customers_t.is_flat_storable()
        assert auction_mf.is_flat_storable()
        assert auction_lf.is_flat_storable()
        # S has the denormalized Line_Feature fragment.
        assert not customers_s.is_flat_storable()

    def test_iteration_sorted_by_depth(self, customers_t):
        depths = [
            customers_t.schema.depth(fragment.root_name)
            for fragment in customers_t
        ]
        assert depths == sorted(depths)

    def test_repr_mentions_fragments(self, customers_t):
        assert "Order_Service" in repr(customers_t)


class TestXmarkFragmentations:
    def test_mf_one_per_element(self, auction_mf, auction_schema):
        assert len(auction_mf) == len(auction_schema)

    def test_lf_exactly_three(self, auction_lf):
        # Section 5: SITE_..., ITEM_..., CATEGORY_... — three fragments.
        assert len(auction_lf) == 3
        roots = {fragment.root_name for fragment in auction_lf}
        assert roots == {"site", "item", "category"}

    def test_lf_item_fragment_contents(self, auction_lf):
        item = auction_lf.fragment_of("item")
        assert item.elements == {
            "item", "location", "quantity", "iname", "payment",
            "idescription", "shipping", "mailbox",
        }
