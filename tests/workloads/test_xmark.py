"""The XMark workload: DTD, fragmentations, generator."""

import pytest

from repro.workloads.xmark import (
    generate_xmark_document,
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
)

from tests.documents import element_count, tagged_size


class TestGenerator:
    def test_size_targeting(self):
        for target in (20_000, 100_000):
            document = generate_xmark_document(target, seed=1)
            size = tagged_size(document)
            assert 0.7 * target <= size <= 1.4 * target

    def test_size_ratio_preserved(self):
        small = generate_xmark_document(25_000, seed=1)
        large = generate_xmark_document(250_000, seed=1)
        ratio = tagged_size(large) / tagged_size(small)
        assert 8.0 <= ratio <= 12.0

    def test_deterministic(self):
        first = generate_xmark_document(20_000, seed=4)
        second = generate_xmark_document(20_000, seed=4)
        assert tagged_size(first) == tagged_size(second)
        assert element_count(first) == element_count(second)

    def test_conforms_to_schema(self):
        schema = xmark_schema()
        document = generate_xmark_document(20_000, seed=2,
                                           schema=schema)
        for node in document.iter_all():
            assert node.name in schema
            parent_names = {
                child.name
                for child in schema.node(node.name).children
            }
            for child_name in node.children:
                assert child_name in parent_names

    def test_items_reference_attributes(self):
        document = generate_xmark_document(20_000, seed=2)
        items = list(document.occurrences_of("item"))
        assert all("id" in item.attrs for item in items)

    def test_eids_unique(self):
        document = generate_xmark_document(20_000, seed=2)
        eids = [node.eid for node in document.iter_all()]
        assert len(eids) == len(set(eids))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_xmark_document(10)


class TestFragmentations:
    def test_mf_lf_counts(self):
        schema = xmark_schema()
        assert len(xmark_mf_fragmentation(schema)) == len(schema)
        assert len(xmark_lf_fragmentation(schema)) == 3

    def test_lf_names_match_paper_style(self):
        lf = xmark_lf_fragmentation()
        names = sorted(fragment.name for fragment in lf)
        assert names[0].startswith("category_cname")
        assert names[1].startswith("item_location_quantity")
        assert names[2].startswith("site_regions_africa")
