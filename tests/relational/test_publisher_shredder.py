"""Publishing (merge & tag) and shredding (stack-based SAX)."""

import pytest

from repro.core.instance import ElementData
from repro.errors import RelationalError, SchemaError
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.publisher import publish_document
from repro.relational.shredder import shred_document
from repro.xmlkit.tree import parse_tree

from tests.documents import element_count
from tests.relational.document_sets import shred_documents, tuple_count


def _walk(node):
    """``node`` and its descendants, pre-order."""
    yield node
    for child in node.children:
        yield from _walk(child)


@pytest.fixture
def mf_store(auction_mf, auction_document):
    db = Database("S")
    mapper = FragmentRelationMapper(auction_mf)
    mapper.create_tables(db)
    mapper.load_document(db, auction_document)
    return db, mapper


class TestPublisher:
    def test_document_matches_source(self, mf_store, auction_document,
                                     auction_schema):
        db, mapper = mf_store
        report = publish_document(db, mapper)
        published = parse_tree(report.document)
        assert published.name == "site"
        # Same number of items as the original document.
        count = sum(1 for node in _walk(published) if node.name == "item")

        expected = sum(
            1 for node in auction_document.iter_all()
            if node.name == "item"
        )
        assert count == expected

    def test_report_metrics(self, mf_store):
        db, mapper = mf_store
        report = publish_document(db, mapper)
        assert report.bytes == len(report.document)
        assert report.fragments_queried == len(mapper.layouts)
        assert report.rows_merged == db.total_rows()

    def test_publish_from_mf_equals_publish_from_lf(
            self, mf_store, auction_lf, auction_document):
        db_mf, mapper_mf = mf_store
        db_lf = Database("S2")
        mapper_lf = FragmentRelationMapper(auction_lf)
        mapper_lf.create_tables(db_lf)
        mapper_lf.load_document(db_lf, auction_document)
        assert publish_document(db_mf, mapper_mf).document == \
            publish_document(db_lf, mapper_lf).document

    def test_empty_store_rejected(self, auction_mf):
        db = Database("empty")
        mapper = FragmentRelationMapper(auction_mf)
        mapper.create_tables(db)
        with pytest.raises(RelationalError, match="root"):
            publish_document(db, mapper)


class TestShredder:
    def test_shred_tuple_counts(self, mf_store, auction_lf):
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document
        mapper_lf = FragmentRelationMapper(auction_lf)
        result = shred_document(document, mapper_lf)
        # One tuple per fragment-root occurrence.
        items = result.rows[
            mapper_lf.table_name(auction_lf.fragment_of("item"))
        ]
        categories = result.rows[
            mapper_lf.table_name(auction_lf.fragment_of("category"))
        ]
        assert len(items) > 0 and len(categories) > 0
        assert tuple_count(result) == len(items) + len(categories) + 1

    def test_elements_parsed_counts_all(self, mf_store, auction_lf,
                                        auction_document):
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document
        result = shred_document(
            document, FragmentRelationMapper(auction_lf)
        )
        assert result.elements_parsed == \
            element_count(auction_document)

    def test_load_into_then_republish_identical(
            self, mf_store, auction_lf):
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document
        target_db = Database("T")
        mapper_lf = FragmentRelationMapper(auction_lf)
        mapper_lf.create_tables(target_db)
        shredded = shred_document(document, mapper_lf)
        loaded = shredded.load_into(target_db)
        assert loaded == tuple_count(shredded)
        assert publish_document(target_db, mapper_lf).document == \
            document

    def test_columnar_load_matches_row_load(self, mf_store,
                                            auction_lf):
        """``Table.load_columns`` (what a Write does with a columnar
        batch) stores what ``bulk_load`` stores, on the tuples a real
        shred produces."""
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document
        mapper_lf = FragmentRelationMapper(auction_lf)
        shredded = shred_document(document, mapper_lf)

        row_db = Database("T-row")
        mapper_lf.create_tables(row_db)
        row_loaded = shredded.load_into(row_db)

        columnar_db = Database("T-col")
        mapper_lf.create_tables(columnar_db)
        loaded = sum(
            columnar_db.table(table_name).load_columns(
                [list(cells) for cells in zip(*rows)]
            )
            for table_name, rows in shredded.rows.items()
        )
        assert loaded == row_loaded == tuple_count(shredded)
        for layout in mapper_lf.layouts.values():
            assert list(
                columnar_db.table(layout.table_name).scan()
            ) == list(row_db.table(layout.table_name).scan())

    def test_unknown_element_rejected(self, auction_lf):
        mapper = FragmentRelationMapper(auction_lf)
        with pytest.raises(SchemaError):
            shred_document("<site><bogus/></site>", mapper)

    def test_undeclared_eid_attribute_rejected(self, mf_store,
                                               auction_lf):
        """An ``eid`` attribute is not the element's key: it once
        overwrote ``location_eid`` and failed the load as text in an
        INTEGER column."""
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document.replace(
            "<location>", '<location eid="oops">', 1
        )
        with pytest.raises(SchemaError, match="'location'.*'eid'"):
            shred_document(document, FragmentRelationMapper(auction_lf))

    def test_undeclared_attribute_rejected(self, mf_store, auction_lf):
        """Any other undeclared attribute was once dropped silently."""
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document.replace(
            "<location>", '<location colour="red">', 1
        )
        with pytest.raises(SchemaError, match="'location'.*'colour'"):
            shred_document(document, FragmentRelationMapper(auction_lf))

    def test_attribute_values_captured(self, mf_store, auction_lf):
        db, mapper_mf = mf_store
        document = publish_document(db, mapper_mf).document
        mapper_lf = FragmentRelationMapper(auction_lf)
        result = shred_document(document, mapper_lf)
        item_layout = mapper_lf.layouts[
            auction_lf.fragment_of("item").name
        ]
        position = [
            index for index, spec in enumerate(item_layout.specs)
            if spec.name == "item_id"
        ][0]
        ids = {
            row[position]
            for row in result.rows[item_layout.table_name]
        }
        assert any(value and value.startswith("item") for value in ids)


def _one_item_document(empty_iname: bool = False,
                       location: str = "Kenya") -> ElementData:
    """``site/regions/africa/item`` with one ``location``: every other
    fragment table stays empty, the item's table holds one row, the
    absent ``featured`` attribute and ``iname`` leaf are NULL cells.
    With ``empty_iname`` the item has an ``iname`` with no text."""
    site = ElementData("site", 1)
    regions = site.add_child(ElementData("regions", 2))
    africa = regions.add_child(ElementData("africa", 3))
    item = africa.add_child(ElementData("item", 4, {"id": "item0"}))
    item.add_child(ElementData("location", 5, text=location))
    if empty_iname:
        item.add_child(ElementData("iname", 6))
    return site


class TestTransposedLoads:
    """``load_document`` and ``ShredResult.load_into`` hand each table
    its rows a column at a time; the edge cases of that transposition
    (no rows, one row, NULL cells) store what the rows say."""

    @staticmethod
    def _stored(db, mapper):
        return {layout.fragment.name: db.table(layout.table_name).columns
                for layout in mapper.layouts.values()}

    def test_load_document_stores_the_rows(self, auction_lf):
        db = Database("T")
        mapper = FragmentRelationMapper(auction_lf)
        mapper.create_tables(db)
        assert mapper.load_document(db, _one_item_document()) == 2
        item = mapper.layouts[auction_lf.fragment_of("item").name]
        cells = dict(zip(
            [spec.name for spec in item.specs],
            db.table(item.table_name).rows[0],
        ))
        assert len(db.table(item.table_name)) == 1
        assert (cells["id"], cells["parent"], cells["item_id"]) \
            == (4, 3, "item0")
        assert (cells["location_eid"], cells["location"]) == (5, "Kenya")
        assert cells["item_featured"] is None  # NULL attribute
        assert cells["iname_eid"] is None and cells["iname"] is None
        category = mapper.layouts[
            auction_lf.fragment_of("category").name
        ]
        assert db.table(category.table_name).columns \
            == [[] for _ in category.specs]

    @pytest.mark.parametrize("fragmentation, empty_iname, location", [
        ("auction_lf", False, "Kenya"), ("auction_mf", False, "Kenya"),
        ("auction_lf", True, "Kenya"), ("auction_mf", True, "Kenya"),
        ("auction_lf", False, " Kenya "), ("auction_mf", False, "\tKenya\n"),
    ], ids=["auction_lf", "auction_mf",
            "auction_lf-empty-text", "auction_mf-empty-text",
            "auction_lf-padded-text", "auction_mf-padded-text"])
    def test_load_into_stores_what_load_document_stores(
            self, fragmentation, empty_iname, location, request):
        """Both loads store leaf text stripped, so a padded leaf
        publishes the same bytes after either."""
        fragmentation = request.getfixturevalue(fragmentation)
        mapper = FragmentRelationMapper(fragmentation)
        loaded, shredded = Database("L"), Database("S")
        mapper.create_tables(loaded)
        mapper.create_tables(shredded)
        mapper.load_document(
            loaded, _one_item_document(empty_iname, location)
        )
        document = publish_document(loaded, mapper).document
        result = shred_document(document, mapper)
        assert result.load_into(shredded) == tuple_count(result) \
            == loaded.total_rows()
        assert self._stored(shredded, mapper) \
            == self._stored(loaded, mapper)
        assert publish_document(shredded, mapper).document == document
        assert "<location>Kenya</location>" in document

    def test_load_into_an_empty_result(self, auction_mf):
        db = Database("T")
        mapper = FragmentRelationMapper(auction_mf)
        mapper.create_tables(db)
        index = db.table(mapper.table_name(
            auction_mf.fragment_of("item"))).create_index("id")
        assert shred_documents([], mapper).load_into(db) == 0
        assert not index.built  # a LOAD, if of nothing
        for layout in mapper.layouts.values():
            assert db.table(layout.table_name).columns \
                == [[] for _ in layout.specs]
