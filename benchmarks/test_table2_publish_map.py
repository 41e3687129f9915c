"""Table 2 — Times for Publish (Step 1) & Map/shred (Step 4).

Each cell is ``publish + shred`` seconds: publishing the whole document
at the source (optimized per-fragment queries, merge & tag) plus
parsing-and-shredding it at the target.  The paper's finding: shredding
is significant — when the source is LF it shadows publishing — and in
most cases running the whole optimized exchange (Table 1) compares
favorably to *publishing alone*.
"""

import pytest

from repro.relational.publisher import publish_document
from repro.relational.shredder import shred_document
from repro.obs.metrics import Timer

from support import SCENARIOS


@pytest.mark.parametrize("label_index", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_table2_cell(benchmark, scenario, label_index, size_labels,
                     sources, fresh_target, results):
    label = size_labels[label_index]
    source_kind, target_kind = scenario.split("->")
    source = sources[(source_kind, label)]

    def run_publish_and_shred():
        # Best of three repetitions per component: single-shot wall
        # clocks are noisy at scaled-down sizes.
        publish_seconds = []
        shred_seconds = []
        for _ in range(3):
            with Timer() as publish_timer:
                report = publish_document(source.db, source.mapper)
            publish_seconds.append(publish_timer.seconds)
            target = fresh_target(target_kind)
            with Timer() as shred_timer:
                shred_document(report.document, target.mapper)
            shred_seconds.append(shred_timer.seconds)
        return min(publish_seconds), min(shred_seconds)

    publish_seconds, shred_seconds = benchmark.pedantic(
        run_publish_and_shred, rounds=1, iterations=1
    )
    results.record(
        "table2", scenario, label,
        f"{publish_seconds:.3f}+{shred_seconds:.3f}",
        title="Table 2: times (secs) for Publish (first value / Step 1)"
              " & Map (second value / Step 4)",
    )
    results.record(
        "table2-publish", scenario, label, publish_seconds,
        title="Table 2a: publish component only (secs)",
    )
    results.record(
        "table2-shred", scenario, label, shred_seconds,
        title="Table 2b: shred component only (secs)",
    )


def test_table2_shape(results, size_labels):
    """Shredding must be a significant share of publish&map, and the
    publish component must depend only on the source fragmentation."""
    publish = results.tables.get("table2-publish")
    shred = results.tables.get("table2-shred")
    if not publish or len(publish) < 12:
        pytest.skip("cells incomplete (run the full module)")
    largest = size_labels[-1]
    # Publishing from LF is not more expensive than from MF (fewer
    # feeds to merge).  The paper sees a 2.8x gap because MySQL
    # publishing is join-dominated; our merge&tag is serialization-
    # dominated, so the gap narrows to noise — allow 15% tolerance
    # (documented in EXPERIMENTS.md).
    assert publish[("LF->MF", largest)] <= \
        publish[("MF->MF", largest)] * 1.15
    # Shredding is significant: at least 25% of the publish+shred total
    # in every scenario at the largest size.
    for scenario in ("MF->MF", "MF->LF", "LF->MF", "LF->LF"):
        total = publish[(scenario, largest)] + shred[(scenario, largest)]
        assert shred[(scenario, largest)] / total > 0.25
