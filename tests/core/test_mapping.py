"""Mappings between fragmentations (Definition 3.5)."""

import pytest

from repro.errors import MappingError
from repro.core.fragmentation import Fragmentation
from repro.core.mapping import derive_mapping
from repro.workloads.customer import customer_schema, s_fragmentation, \
    t_fragmentation


def _entry(mapping, target_name):
    """The mapping entry of target fragment ``target_name``."""
    return next(entry for entry in mapping.entries
                if entry.target.name == target_name)


class TestDeriveMapping:
    def test_entry_per_target_fragment(self, customers_s, customers_t):
        mapping = derive_mapping(customers_s, customers_t)
        assert {entry.target.name for entry in mapping.entries} == {
            fragment.name for fragment in customers_t
        }

    def test_identity_entry(self, customers_s, customers_t):
        mapping = derive_mapping(customers_s, customers_t)
        assert _entry(mapping, "Customer").is_identity

    def test_combine_entry(self, customers_s, customers_t):
        mapping = derive_mapping(customers_s, customers_t)
        entry = _entry(mapping, "Order_Service")
        assert {fragment.name for fragment in entry.sources} == {
            "Order", "Service",
        }
        assert not entry.is_identity

    def test_split_requirements(self, customers_s, customers_t):
        mapping = derive_mapping(customers_s, customers_t)
        requirements = mapping.split_requirements()
        # Only the denormalized Line_Feature needs splitting (Fig. 5).
        assert set(requirements) == {"Line_Feature"}
        parts = requirements["Line_Feature"]
        assert sorted(sorted(part) for part in parts) == [
            ["Feature", "FeatureID"], ["Line", "TelNo"],
        ]

    def test_contributions_partition_targets(self, customers_s,
                                             customers_t):
        mapping = derive_mapping(customers_s, customers_t)
        for entry in mapping.entries:
            union = set()
            total = 0
            for part in entry.contributions.values():
                union |= part
                total += len(part)
            assert union == set(entry.target.elements)
            assert total == len(entry.target.elements)

    def test_different_schemas_rejected(self, customers_s,
                                        auction_lf):
        with pytest.raises(MappingError):
            derive_mapping(customers_s, auction_lf)

    def test_reparsed_schema_accepted(self, customers_s, customers_t):
        # Remote systems re-parse the agreed schema document, so the
        # target fragmentation arrives over a distinct but structurally
        # identical SchemaTree.  derive_mapping must treat it as the
        # same schema (fingerprint match), like DiscoveryAgency does.
        reparsed_schema = customer_schema()  # a distinct tree object
        assert reparsed_schema is not customers_s.schema
        reparsed = t_fragmentation(reparsed_schema)
        mapping = derive_mapping(customers_s, reparsed)
        same_tree = derive_mapping(customers_s, customers_t)
        assert {entry.target.name for entry in mapping.entries} == {
            entry.target.name for entry in same_tree.entries
        }
        assert mapping.split_requirements() == \
            same_tree.split_requirements()

    def test_whole_document_to_t_is_pure_split(self, customers_schema,
                                               customers_t):
        whole = Fragmentation.whole_document(customers_schema)
        mapping = derive_mapping(whole, customers_t)
        requirements = mapping.split_requirements()
        assert len(requirements) == 1
        (parts,) = requirements.values()
        assert len(parts) == len(customers_t)

    def test_identity_mapping_everywhere(self, customers_t):
        mapping = derive_mapping(customers_t, customers_t)
        assert all(entry.is_identity for entry in mapping.entries)
        assert not mapping.split_requirements()

    def test_mf_to_lf_no_splits(self, auction_mf, auction_lf):
        mapping = derive_mapping(auction_mf, auction_lf)
        assert not mapping.split_requirements()

    def test_lf_to_mf_all_splits(self, auction_mf, auction_lf):
        mapping = derive_mapping(auction_lf, auction_mf)
        requirements = mapping.split_requirements()
        # Every multi-element LF fragment must split.
        assert set(requirements) == {
            fragment.name for fragment in auction_lf if len(fragment) > 1
        }
