"""Fragment instances: element data, combine, split, XML views."""

import pytest

from repro.errors import OperationError
from repro.core.columnar import ColumnBatch
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize

from tests.documents import feed_element_count


def whole_instance(schema, documents):
    whole = Fragment.whole(schema)
    return FragmentInstance(
        whole, [FragmentRow(document, None) for document in documents]
    )


class TestElementData:
    def test_add_child_groups_by_name(self):
        parent = ElementData("a", 1)
        parent.add_child(ElementData("b", 2))
        parent.add_child(ElementData("b", 3))
        parent.add_child(ElementData("c", 4))
        assert [child.eid for child in parent.children["b"]] == [2, 3]
        assert "missing" not in parent.children

    def test_occurrences_of(self, customer_documents):
        document = customer_documents[0]
        lines = list(document.occurrences_of("Line"))
        assert lines
        assert all(node.name == "Line" for node in lines)

    def test_copy_is_deep(self):
        parent = ElementData("a", 1, {"k": "v"})
        parent.add_child(ElementData("b", 2, text="t"))
        clone = parent.copy()
        clone.children["b"][0].text = "changed"
        clone.attrs["k"] = "other"
        assert parent.children["b"][0].text == "t"
        assert parent.attrs["k"] == "v"

    def test_to_xml_orders_children_by_schema(self, customers_schema):
        line = ElementData("Line", 1)
        # Insert children in the "wrong" order.
        line.add_child(ElementData("Switch", 3))
        line.add_child(ElementData("TelNo", 2, text="555"))
        xml = line.to_xml(customers_schema)
        assert [child.name for child in xml.children] == [
            "TelNo", "Switch",
        ]

    def test_to_xml_exposes_id_parent(self, customers_schema):
        order = ElementData("Order", 9)
        xml = order.to_xml(customers_schema, expose=(4,))
        assert xml.attrs["ID"] == "9"
        assert xml.attrs["PARENT"] == "4"
        root_xml = order.to_xml(customers_schema, expose=(None,))
        assert root_xml.attrs["PARENT"] == ""


class TestCombine:
    def test_combine_attaches_under_matching_parent(
            self, customers_schema, customers_s, customer_documents):
        feeds = fragment_customers(customer_documents, customers_s)
        order = feeds["Order"]
        service = feeds["Service"]
        combined = order.combine(service)
        assert combined.fragment.elements == {
            "Order", "Service", "ServiceName",
        }
        # Every order now carries exactly one service.
        for row in combined.rows:
            assert len(row.data.children["Service"]) == 1

    def test_combine_row_counts_preserved(
            self, customers_s, customer_documents):
        feeds = fragment_customers(customer_documents, customers_s)
        orders_before = feeds["Order"].row_count()
        combined = feeds["Order"].combine(feeds["Service"])
        assert combined.row_count() == orders_before

    def test_orphan_child_rows_raise(self, customers_schema):
        order_fragment = Fragment(customers_schema, ["Order"])
        service_fragment = Fragment(
            customers_schema, ["Service", "ServiceName"]
        )
        orders = FragmentInstance(
            order_fragment,
            [FragmentRow(ElementData("Order", 1), None)],
        )
        services = FragmentInstance(
            service_fragment,
            [FragmentRow(ElementData("Service", 2), 999)],  # no parent 999
        )
        with pytest.raises(OperationError, match="missing parents"):
            orders.combine(services)

    def test_unrelated_fragments_raise(self, customers_schema):
        customer = FragmentInstance(
            Fragment(customers_schema, ["Customer", "CustName"])
        )
        line = FragmentInstance(
            Fragment(customers_schema, ["Line", "TelNo"])
        )
        with pytest.raises(OperationError):
            customer.combine(line)


class TestSplit:
    def test_split_produces_partition_instances(
            self, customers_schema, customer_documents):
        instance = whole_instance(customers_schema, customer_documents)
        total_elements = feed_element_count(instance)
        pieces = instance.split([
            Fragment(customers_schema, ["Customer", "CustName"]),
            Fragment.full_subtree(customers_schema, "Order"),
        ])
        assert sum(feed_element_count(piece) for piece in pieces) == \
            total_elements

    def test_split_sets_parent_references(
            self, customers_schema, customer_documents):
        instance = whole_instance(customers_schema, customer_documents)
        customer_piece, order_piece = instance.split([
            Fragment(customers_schema, ["Customer", "CustName"]),
            Fragment.full_subtree(customers_schema, "Order"),
        ])
        customer_eids = {row.eid for row in customer_piece}
        assert all(
            row.parent in customer_eids for row in order_piece
        )

    def test_split_combine_inverse(
            self, customers_schema, customer_documents):
        instance = whole_instance(customers_schema, customer_documents)
        reference = instance.copy()
        pieces = instance.split([
            Fragment(
                customers_schema,
                [name for name in customers_schema.element_names()
                 if name not in ("Feature", "FeatureID")],
            ),
            Fragment(customers_schema, ["Feature", "FeatureID"]),
        ])
        rebuilt = pieces[0].combine(pieces[1])
        original = [serialize(doc) for doc in reference.to_xml_documents()]
        roundtrip = [serialize(doc) for doc in rebuilt.to_xml_documents()]
        assert original == roundtrip

    def test_split_requires_partition(self, customers_schema,
                                      customer_documents):
        instance = whole_instance(customers_schema, customer_documents)
        with pytest.raises(OperationError):
            instance.split([
                Fragment(customers_schema, ["Customer", "CustName"]),
            ])


class TestInstanceViews:
    def test_sort_orders_by_parent_then_id(self, customers_schema):
        fragment = Fragment(customers_schema, ["Order"])
        instance = FragmentInstance(fragment, [
            FragmentRow(ElementData("Order", 5), 2),
            FragmentRow(ElementData("Order", 3), 1),
            FragmentRow(ElementData("Order", 4), 1),
        ])
        instance.sort()
        assert [(row.parent, row.eid) for row in instance] == [
            (1, 3), (1, 4), (2, 5),
        ]

    def test_sort_null_parents_precede_eid_zero_parent(
            self, customers_schema):
        # Regression: keying the sort on ``row.parent or 0`` collapsed
        # PARENT=None with PARENT=0, so root rows interleaved with the
        # children of a real eid-0 parent instead of leading the feed
        # (SQL sorts NULLs first).
        fragment = Fragment(customers_schema, ["Order"])
        instance = FragmentInstance(fragment, [
            FragmentRow(ElementData("Order", 2), 0),
            FragmentRow(ElementData("Order", 9), None),
            FragmentRow(ElementData("Order", 1), 0),
            FragmentRow(ElementData("Order", 8), None),
        ])
        instance.sort()
        assert [(row.parent, row.eid) for row in instance] == [
            (None, 8), (None, 9), (0, 1), (0, 2),
        ]

    def test_to_xml_documents_one_per_row(self, customers_s,
                                          customer_documents):
        feeds = fragment_customers(customer_documents, customers_s)
        orders = feeds["Order"]
        docs = orders.to_xml_documents()
        assert len(docs) == orders.row_count()
        assert all(doc.attrs["ID"] for doc in docs)

    def test_feed_size_below_xml_size(self, customers_s,
                                      customer_documents):
        """An instance ships as its flat parts' column feeds, which
        weigh less than its tagged XML."""
        feeds = fragment_customers(customer_documents, customers_s)
        for instance in feeds.values():
            xml_size = sum(
                len(serialize(document))
                for document in instance.to_xml_documents()
            )
            parts = instance.copy().split(instance.fragment.flat_parts())
            assert sum(
                ColumnBatch.from_rows(part.fragment, part.rows, None)
                .feed_size()
                for part in parts
            ) <= xml_size
