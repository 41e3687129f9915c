"""The customer workload (Section 1.1)."""

from repro.workloads.customer import (
    fragment_customers,
    generate_customer_instances,
)

from tests.documents import element_count, feed_element_count


class TestGenerator:
    def test_instances_count(self):
        documents = generate_customer_instances(7, seed=1)
        assert len(documents) == 7
        assert all(doc.name == "Customer" for doc in documents)

    def test_single_document(self):
        document = generate_customer_instances(1, seed=3)[0]
        assert document.name == "Customer"
        assert document.children["CustName"]

    def test_structure(self, customers_schema):
        for document in generate_customer_instances(3, seed=2):
            for node in document.iter_all():
                assert node.name in customers_schema

    def test_deterministic(self):
        first = generate_customer_instances(3, seed=5)
        second = generate_customer_instances(3, seed=5)
        assert [element_count(d) for d in first] == \
            [element_count(d) for d in second]

    def test_every_line_has_switch_and_telno(self):
        for document in generate_customer_instances(4, seed=6):
            for line in document.occurrences_of("Line"):
                assert len(line.children["Switch"]) == 1
                assert len(line.children["TelNo"]) == 1


class TestFragmentCustomers:
    def test_covers_all_fragments(self, customers_s,
                                  customer_documents):
        feeds = fragment_customers(customer_documents, customers_s)
        assert set(feeds) == {f.name for f in customers_s}

    def test_customer_rows_match_documents(self, customers_s,
                                           customer_documents):
        feeds = fragment_customers(customer_documents, customers_s)
        assert feeds["Customer"].row_count() == len(customer_documents)

    def test_element_conservation(self, customers_t,
                                  customer_documents):
        feeds = fragment_customers(customer_documents, customers_t)
        total = sum(
            feed_element_count(instance) for instance in feeds.values()
        )
        assert total == sum(
            element_count(document) for document in customer_documents
        )
