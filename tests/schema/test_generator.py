"""Random schema generators."""

import pytest

from repro.schema.generator import balanced_schema

from tests.documents import random_schema


class TestBalancedSchema:
    def test_paper_sizes(self):
        # Table 5: height 2, fan-out 5 -> 31 nodes.
        assert len(balanced_schema(2, 5, seed=1)) == 31
        # Figures 10/11: 3 levels, fan-out 4 -> 85 nodes.
        assert len(balanced_schema(3, 4, seed=1)) == 85

    def test_deterministic_per_seed(self):
        first = balanced_schema(2, 3, seed=7)
        second = balanced_schema(2, 3, seed=7)
        assert first.fingerprint() == second.fingerprint()

    def test_seeds_differ(self):
        assert (
            balanced_schema(2, 3, seed=1, repeat_prob=0.5).fingerprint()
            != balanced_schema(2, 3, seed=2, repeat_prob=0.5).fingerprint()
        )

    def test_no_repeats_when_prob_zero(self):
        tree = balanced_schema(2, 3, repeat_prob=0.0, seed=0)
        assert all(
            not node.cardinality.repeated for node in tree.iter_nodes()
        )

    def test_root_is_always_one(self):
        tree = balanced_schema(1, 2, repeat_prob=1.0, seed=0)
        assert not tree.root.cardinality.repeated


class TestRandomSchema:
    def test_exact_node_count(self):
        for n_nodes in (1, 5, 31):
            assert len(random_schema(n_nodes, seed=3)) == n_nodes

    def test_fanout_bound(self):
        tree = random_schema(40, max_fanout=2, seed=5)
        assert all(
            len(node.children) <= 2 for node in tree.iter_nodes()
        )

    def test_deterministic(self):
        assert (
            random_schema(20, seed=9).fingerprint()
            == random_schema(20, seed=9).fingerprint()
        )

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            random_schema(0)
