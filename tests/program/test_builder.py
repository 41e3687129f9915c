"""Program generation (Section 4.2): G1 construction, combine orders."""

import pytest

from repro.core.fragmentation import Fragmentation
from repro.core.mapping import derive_mapping
from repro.core.program.builder import (
    ProgramBuilder,
    build_transfer_program,
)
from repro.core.program.render import summary, to_text


class TestCustomerPrograms:
    """The motivating example: S → T is exactly Figure 5."""

    def test_figure5_shape(self, customers_s, customers_t):
        program = build_transfer_program(
            derive_mapping(customers_s, customers_t)
        )
        assert summary(program) == "scan=5 combine=2 split=1 write=4"
        text = to_text(program)
        assert "Scan(Line_Feature) --> Split(Line_Feature)" in text
        assert "Combine(Order, Service)" in text
        assert "Scan(Customer) --> Write(Customer)" in text

    def test_publishing_figure3_shape(self, customers_schema,
                                      customers_s):
        # Publishing = transfer from S to the whole-document
        # fragmentation: all combines, no splits (Figure 3).
        whole = Fragmentation.whole_document(customers_schema)
        program = build_transfer_program(
            derive_mapping(customers_s, whole)
        )
        assert summary(program) == "scan=5 combine=4 split=0 write=1"

    def test_loading_figure4_shape(self, customers_schema, customers_t):
        # Loading = whole document to T: one scan, one split per level
        # collapsed into a single multi-output split here, writes only.
        whole = Fragmentation.whole_document(customers_schema)
        program = build_transfer_program(
            derive_mapping(whole, customers_t)
        )
        assert summary(program) == "scan=1 combine=0 split=1 write=4"

    def test_identity_program(self, customers_t):
        program = build_transfer_program(
            derive_mapping(customers_t, customers_t)
        )
        assert summary(program) == "scan=4 combine=0 split=0 write=4"


class TestXmarkPrograms:
    def test_mf_to_lf_all_combines(self, auction_mf, auction_lf):
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        assert summary(program) == "scan=24 combine=21 split=0 write=3"

    def test_lf_to_mf_mirror_with_splits(self, auction_mf, auction_lf):
        # "The program for LF -> MF is a mirrored image where each
        # group of Combines is replaced with a Split" (Section 5.2).
        program = build_transfer_program(
            derive_mapping(auction_lf, auction_mf)
        )
        assert summary(program) == "scan=3 combine=0 split=3 write=24"

    def test_all_programs_validate(self, auction_mf, auction_lf):
        for mapping in (
            derive_mapping(auction_mf, auction_lf),
            derive_mapping(auction_lf, auction_mf),
            derive_mapping(auction_mf, auction_mf),
            derive_mapping(auction_lf, auction_lf),
        ):
            build_transfer_program(mapping).validate()


class TestEnumeration:
    def test_customer_exchange_has_single_order(self, customers_s,
                                                 customers_t):
        # Both assemblies are two-piece (Order+Service, Line+Switch):
        # exactly one combine order each, so one program total.
        mapping = derive_mapping(customers_s, customers_t)
        programs = list(ProgramBuilder(mapping).enumerate(50))
        assert len(programs) == 1

    def test_enumerates_distinct_orders(self, auction_mf, auction_lf):
        mapping = derive_mapping(auction_mf, auction_lf)
        programs = list(ProgramBuilder(mapping).enumerate(8))
        assert len(programs) == 8
        shapes = {to_text(program) for program in programs}
        assert len(shapes) == len(programs)

    def test_limit_respected(self, auction_mf, auction_lf):
        mapping = derive_mapping(auction_mf, auction_lf)
        programs = list(ProgramBuilder(mapping).enumerate(5))
        assert len(programs) == 5

    def test_identity_mapping_single_program(self, customers_t):
        mapping = derive_mapping(customers_t, customers_t)
        programs = list(ProgramBuilder(mapping).enumerate(10))
        assert len(programs) == 1

    def test_merge_orders_respect_schema(self, customers_s,
                                         customers_t):
        # Order_Service assembly has exactly one merge order (two
        # pieces, only Order can absorb Service).
        mapping = derive_mapping(customers_s, customers_t)
        builder = ProgramBuilder(mapping)
        _, assemblies = builder.skeleton()
        by_target = {
            assembly.target.name: assembly for assembly in assemblies
        }
        orders = list(
            builder.all_merge_orders(
                by_target["Order_Service"].fragments
            )
        )
        assert len(orders) == 1

    def test_three_piece_chain_has_orders(self, customers_schema):
        # Customer <- Order <- Service chain: two distinct merge shapes
        # ((C+O)+S and C+(O+S)).
        from repro.core.fragment import Fragment
        builder = ProgramBuilder(
            derive_mapping(
                Fragmentation.most_fragmented(customers_schema),
                Fragmentation.most_fragmented(customers_schema),
            )
        )
        pieces = [
            Fragment(customers_schema, ["Customer", "CustName"]),
            Fragment(customers_schema, ["Order"]),
            Fragment(customers_schema, ["Service", "ServiceName"]),
        ]
        orders = list(builder.all_merge_orders(pieces))
        assert len(orders) == 2


class TestPolicyOrdering:
    def test_policy_is_consulted(self, auction_mf, auction_lf):
        mapping = derive_mapping(auction_mf, auction_lf)
        calls = []

        def first_possible(items):
            calls.append(len(items))
            for parent_index, parent in items:
                for child_index, child in items:
                    if parent_index != child_index and \
                            parent.can_combine(child):
                        return parent_index, child_index
            raise AssertionError("no combinable pair")

        program = build_transfer_program(mapping, policy=first_possible)
        program.validate()
        assert summary(program) == "scan=24 combine=21 split=0 write=3"
        assert calls  # the policy drove the ordering
