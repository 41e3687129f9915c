"""Fragment-to-relation mapping: layouts, load, scan round trips."""

import pytest

from repro.errors import RelationalError
from repro.core.fragment import Fragment
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.workloads.customer import fragment_customers
from repro.xmlkit.writer import serialize


@pytest.fixture
def lf_store(auction_lf):
    db = Database("store")
    mapper = FragmentRelationMapper(auction_lf)
    mapper.create_tables(db)
    return db, mapper


class TestLayout:
    def test_tables_created_with_expected_columns(self, lf_store,
                                                  auction_lf):
        db, mapper = lf_store
        item = auction_lf.fragment_of("item")
        table = db.table(mapper.table_name(item))
        names = [column.name for column in table.schema.columns]
        assert names[0] == "id"
        assert names[1] == "parent"
        assert "location" in names           # leaf text column
        assert "item_id" in names            # XML attribute column
        assert "item_featured" in names
        assert table.schema.primary_key == "id"

    def test_non_flat_fragment_rejected(self, customers_s):
        with pytest.raises(RelationalError, match="flat"):
            FragmentRelationMapper(customers_s)

    def test_foreign_fragment_rejected(self, lf_store,
                                       customers_schema):
        _, mapper = lf_store
        foreign = Fragment(customers_schema, ["Order"])
        with pytest.raises(RelationalError):
            mapper.layout_for(foreign)

    def test_internal_eid_columns(self, auction_lf, lf_store):
        db, mapper = lf_store
        site = auction_lf.root_fragment()
        names = [column.name for column in
                 db.table(mapper.table_name(site)).schema.columns]
        # Internal one-to-one elements keep their keys.
        assert "regions_eid" in names
        assert "africa_eid" in names


class TestLoadAndScan:
    def test_document_round_trip(self, lf_store, auction_lf,
                                 auction_document):
        db, mapper = lf_store
        loaded = mapper.load_document(db, auction_document)
        assert loaded == db.total_rows()
        item_fragment = auction_lf.fragment_of("item")
        instance = mapper.scan_fragment(db, item_fragment)
        expected_items = sum(
            1 for node in auction_document.iter_all()
            if node.name == "item"
        )
        assert instance.row_count() == expected_items

    def test_scan_preserves_content(self, lf_store, auction_lf,
                                    auction_document):
        db, mapper = lf_store
        mapper.load_document(db, auction_document)
        item_fragment = auction_lf.fragment_of("item")
        instance = mapper.scan_fragment(db, item_fragment)
        originals = {
            node.eid: node
            for node in auction_document.iter_all()
            if node.name == "item"
        }
        for row in instance.rows:
            original = originals[row.eid]
            assert serialize(
                row.data.to_xml(auction_lf.schema)
            ) == serialize(original.to_xml(auction_lf.schema))

    def test_scan_is_sorted_feed(self, lf_store, auction_lf,
                                 auction_document):
        db, mapper = lf_store
        mapper.load_document(db, auction_document)
        instance = mapper.scan_fragment(
            db, auction_lf.fragment_of("item")
        )
        keys = [(row.parent or 0, row.eid) for row in instance.rows]
        assert keys == sorted(keys)

    def test_load_instance(self, customers_schema, customers_t,
                           customer_documents):
        db = Database("t")
        mapper = FragmentRelationMapper(customers_t)
        mapper.create_tables(db)
        feeds = fragment_customers(customer_documents, customers_t)
        for name, instance in feeds.items():
            mapper.load_instance(
                db, customers_t.fragment(name), instance
            )
        assert db.total_rows() == sum(
            instance.row_count() for instance in feeds.values()
        )

    def test_create_indexes_counts(self, lf_store, auction_document):
        db, mapper = lf_store
        mapper.load_document(db, auction_document)
        built = mapper.create_indexes(db)
        assert built == 2 * len(mapper.layouts)  # id + parent each
        # Idempotent second call builds nothing new.
        assert mapper.create_indexes(db) == 0

    def test_optional_attribute_null(self, lf_store, auction_lf,
                                     auction_document):
        db, mapper = lf_store
        mapper.load_document(db, auction_document)
        item = auction_lf.fragment_of("item")
        table = db.table(mapper.table_name(item))
        featured = table.columns[table.schema.position("item_featured")]
        assert any(value is None for value in featured)
        assert any(value == "yes" for value in featured)


class TestScanIsASlice:
    """A loaded document is stored in feed order: scanning it sorts
    nothing and hands out copies of the stored columns."""

    def test_scans_of_a_loaded_document_never_sort(
            self, lf_store, auction_lf, auction_document, monkeypatch):
        from repro.relational.table import Table

        db, mapper = lf_store
        mapper.load_document(db, auction_document)
        sorted_tables = []
        original = Table._sort_heap

        def counting(table):
            sorted_tables.append(table.schema.name)
            original(table)

        monkeypatch.setattr(Table, "_sort_heap", counting)
        for _ in range(3):
            for fragment in auction_lf:
                for batch in mapper.scan_fragment_columns(
                        db, fragment, 50):
                    stored = db.table(mapper.table_name(fragment))
                    assert all(
                        cells is not kept
                        for cells in batch.columns
                        for kept in stored.clustered_columns()
                    )
                mapper.scan_fragment(db, fragment)
        assert sorted_tables == []
