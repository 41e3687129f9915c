"""Multi-document services (one XML document per customer, §1.1)."""

import pytest

from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.publisher import publish_document
from repro.relational.shredder import shred_document
from repro.errors import RelationalError
from repro.xmlkit.tree import parse_tree

from tests.documents import element_count
from tests.relational.document_sets import (
    publish_document_set,
    shred_documents,
)


@pytest.fixture
def customer_store(customers_t, customer_documents):
    db = Database("sales")
    mapper = FragmentRelationMapper(customers_t)
    mapper.create_tables(db)
    for document in customer_documents:
        # Each customer is its own document; eids are globally unique
        # across the generator's output, so they can share tables.
        mapper.load_document(db, document)
    return db, mapper


class TestPublishDocumentSet:
    def test_one_document_per_customer(self, customer_store,
                                       customer_documents):
        db, mapper = customer_store
        reports = publish_document_set(db, mapper)
        assert len(reports) == len(customer_documents)
        for report in reports:
            root = parse_tree(report.document)
            assert root.name == "Customer"
            assert root.child("CustName") is not None

    def test_documents_partition_the_data(self, customer_store,
                                          customer_documents):
        db, mapper = customer_store
        reports = publish_document_set(db, mapper)
        published_elements = sum(
            report.rows_merged for report in reports
        )
        assert published_elements == sum(
            element_count(document)
            for document in customer_documents
        )

    def test_set_round_trips_through_shredder(self, customer_store,
                                              customers_t):
        db, mapper = customer_store
        reports = publish_document_set(db, mapper)
        target_db = Database("copy")
        target_mapper = FragmentRelationMapper(customers_t)
        target_mapper.create_tables(target_db)
        shredded = shred_documents(
            [report.document for report in reports], target_mapper
        )
        shredded.load_into(target_db)
        again = publish_document_set(target_db, target_mapper)
        assert sorted(r.document for r in again) == \
            sorted(r.document for r in reports)

    def test_single_calls_with_shared_eids_would_collide(
            self, customer_store, customers_t):
        """Regression: shredding two documents from eid 1 each mixes
        their PARENT references; shred_documents prevents it."""
        db, mapper = customer_store
        reports = publish_document_set(db, mapper)
        first = shred_document(reports[0].document, mapper)
        second = shred_document(reports[1].document, mapper)
        first_ids = {
            row[0]
            for rows in first.rows.values() for row in rows
        }
        second_ids = {
            row[0]
            for rows in second.rows.values() for row in rows
        }
        assert first_ids & second_ids  # the hazard exists...
        combined = shred_documents(
            [reports[0].document, reports[1].document], mapper
        )
        all_ids = [
            row[0]
            for rows in combined.rows.values() for row in rows
        ]
        assert len(all_ids) == len(set(all_ids))  # ...and is avoided

    def test_single_document_publish_rejects_sets(self,
                                                  customer_store):
        db, mapper = customer_store
        with pytest.raises(RelationalError, match="exactly one"):
            publish_document(db, mapper)

    def test_empty_store_publishes_empty_set(self, customers_t):
        db = Database("empty")
        mapper = FragmentRelationMapper(customers_t)
        mapper.create_tables(db)
        assert publish_document_set(db, mapper) == []
