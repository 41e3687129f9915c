"""Generic document generation and the size ladder."""

import pytest

from repro.schema.generator import balanced_schema
from repro.workloads.sizes import (
    DOCUMENT_SIZES_MB,
    current_scale,
    scaled_bytes,
    size_label,
)

from tests.documents import element_count, generate_document


class TestDocgen:
    def test_conforms_and_is_seeded(self):
        schema = balanced_schema(2, 3, seed=4, repeat_prob=0.5)
        first = generate_document(schema, seed=7)
        second = generate_document(schema, seed=7)
        assert element_count(first) == element_count(second)
        for node in first.iter_all():
            assert node.name in schema

    def test_repeat_bounds(self):
        schema = balanced_schema(1, 2, seed=0, repeat_prob=1.0)
        document = generate_document(schema, seed=1, max_repeat=5)
        for group in document.children.values():
            assert len(group) <= 5

    def test_leaf_texts(self):
        schema = balanced_schema(1, 2, seed=0, repeat_prob=0.0)
        document = generate_document(schema, seed=1, text_words=3)
        texts = [node.text for node in document.iter_all() if node.text]
        assert texts
        assert all(len(text.split()) == 3 for text in texts)


class TestSizes:
    def test_paper_ladder(self):
        assert DOCUMENT_SIZES_MB == (2.5, 12.5, 25.0)

    def test_ratio_preserved_at_any_scale(self):
        small = scaled_bytes(2.5, scale=0.1)
        large = scaled_bytes(25.0, scale=0.1)
        assert large == 10 * small

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert current_scale() == 0.5
        assert scaled_bytes(2.5) == 1_250_000

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError):
            current_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            current_scale()

    def test_labels(self):
        assert size_label(2.5) == "2.5MB"
        assert size_label(25.0) == "25MB"
