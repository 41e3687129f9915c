"""The synthetic change workload behind delta exchange."""

import hashlib

import pytest

from repro.errors import EndpointError
from repro.services.endpoint import RelationalEndpoint
from repro.workloads.mutate import mutate_endpoint


@pytest.fixture
def versioned(auction_mf, auction_document):
    endpoint = RelationalEndpoint("mut", auction_mf)
    endpoint.load_document(auction_document)
    endpoint.enable_versioning()
    return endpoint


def _picks(endpoint) -> str:
    """Digest of what a first mutation touched: every ``(fragment,
    "update" | "delete", eid)``, off the version log."""
    log = endpoint.versions
    picks = sorted(
        [(name, "update", eid)
         for name, eids in log.changes_since(1).items()
         for eid in eids]
        + [(tombstone.fragment, "delete", tombstone.eid)
           for tombstone in log.tombstones]
    )
    return hashlib.sha256(repr(picks).encode()).hexdigest()[:16]


class TestSeedIdenticalPicks:
    """``bench`` replays ``mutate_endpoint`` from a seed on both sides
    of every comparison: what a seed picks is pinned (values recorded
    at 3aba13c, before the survivor test became an identity set and
    the cascade a keyed lookup)."""

    @pytest.mark.parametrize("kind,seed,report,picks", [
        ("MF", 7, (25, 104, 44), "0c1654b458d53fb7"),
        ("MF", 42, (25, 104, 44), "1d2cf848249ebd21"),
        ("LF", 7, (4, 13, 7), "2ef57d9d35106ed7"),
        ("LF", 42, (4, 13, 7), "e0ec425d4a8c3274"),
    ])
    def test_report_and_picked_eids(self, auction_mf, auction_lf,
                                    auction_document, kind, seed,
                                    report, picks):
        endpoint = RelationalEndpoint(
            "pinned", {"MF": auction_mf, "LF": auction_lf}[kind]
        )
        endpoint.load_document(auction_document)
        endpoint.enable_versioning()
        got = mutate_endpoint(
            endpoint, 0.1, seed=seed, delete_fraction=0.05
        )
        assert (got.version, got.updated, got.deleted) == report
        assert sum(got.by_fragment.values()) \
            == got.updated + got.deleted
        assert _picks(endpoint) == picks


class TestMutateEndpoint:
    def test_updates_are_stamped(self, versioned):
        before = versioned.versions.current
        report = mutate_endpoint(versioned, 0.1, seed=42)
        assert report.updated > 0
        assert report.deleted == 0
        assert report.version > before
        changed = 0
        for fragment in versioned.stored_fragments():
            rows = versioned.scan(fragment).rows
            versioned.versions.stamp_rows(fragment.name, rows)
            changed += sum(row.version > before for row in rows)
        assert changed == report.updated
        assert sum(report.by_fragment.values()) == report.updated

    def test_perturbation_round_trips(self, versioned, auction_mf):
        from repro.core.delta import endpoint_digest

        fragments = list(auction_mf)
        before = endpoint_digest(versioned, fragments)
        mutate_endpoint(versioned, 0.1, seed=7)
        assert endpoint_digest(versioned, fragments) != before
        mutate_endpoint(versioned, 0.1, seed=7)
        assert endpoint_digest(versioned, fragments) == before

    def test_deletes_stay_on_cascade_free_fragments(self, versioned):
        counts = {
            fragment.name: versioned.scan(fragment).row_count()
            for fragment in versioned.stored_fragments()
        }
        report = mutate_endpoint(
            versioned, 0.0, seed=3, delete_fraction=0.05
        )
        assert report.deleted > 0
        survivors = {
            fragment.name: versioned.scan(fragment).row_count()
            for fragment in versioned.stored_fragments()
        }
        shrunk = {
            name for name in counts
            if survivors[name] < counts[name]
        }
        assert shrunk  # something was actually deleted
        # No cascades: exactly the reported rows vanished.
        assert sum(counts.values()) - sum(survivors.values()) \
            == report.deleted
        assert len(versioned.versions.tombstones) == report.deleted

    def test_requires_versioning(self, auction_mf, auction_document):
        bare = RelationalEndpoint("bare", auction_mf)
        bare.load_document(auction_document)
        with pytest.raises(EndpointError):
            mutate_endpoint(bare, 0.1)
