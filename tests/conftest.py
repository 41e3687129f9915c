"""Shared fixtures: the paper's two workloads at test-friendly sizes."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData
from repro.schema.model import SchemaTree
from repro.workloads.customer import (
    customer_schema,
    generate_customer_instances,
    s_fragmentation,
    t_fragmentation,
)
from repro.workloads.xmark import (
    generate_xmark_document,
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
)

# CI selects this with ``--hypothesis-profile=ci``: the same examples on
# every run of a commit, so a failure there is reproducible from it.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def customers_schema() -> SchemaTree:
    return customer_schema()


@pytest.fixture(scope="session")
def customers_s(customers_schema: SchemaTree) -> Fragmentation:
    return s_fragmentation(customers_schema)


@pytest.fixture(scope="session")
def customers_t(customers_schema: SchemaTree) -> Fragmentation:
    return t_fragmentation(customers_schema)


@pytest.fixture(scope="session")
def customer_documents(customers_schema: SchemaTree) -> list[ElementData]:
    return generate_customer_instances(5, seed=2024)


@pytest.fixture(scope="session")
def auction_schema() -> SchemaTree:
    return xmark_schema()


@pytest.fixture(scope="session")
def auction_mf(auction_schema: SchemaTree) -> Fragmentation:
    return xmark_mf_fragmentation(auction_schema)


@pytest.fixture(scope="session")
def auction_lf(auction_schema: SchemaTree) -> Fragmentation:
    return xmark_lf_fragmentation(auction_schema)


@pytest.fixture(scope="session")
def auction_document(auction_schema: SchemaTree) -> ElementData:
    return generate_xmark_document(
        40_000, seed=99, schema=auction_schema
    )
