"""Synthetic change workloads: mutate a versioned endpoint in place.

Delta exchange is exercised (tests, the CLI ``--delta`` flow, the
change-rate ablation) by mutating a deterministic fraction of a stored
instance between two runs.  :func:`mutate_endpoint` picks rows with a
seeded RNG, perturbs one text value per picked row, and applies the
changes through :meth:`~repro.services.endpoint.SystemEndpoint.
apply_changes` — so every mutation is stamped in the endpoint's
:class:`~repro.core.delta.VersionLog` exactly as a live system's
writes would be.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.instance import ElementData, FragmentRow
from repro.services.endpoint import SystemEndpoint


@dataclass(slots=True)
class MutationReport:
    """What one :func:`mutate_endpoint` call changed."""

    version: int = 0
    updated: int = 0
    deleted: int = 0
    by_fragment: dict[str, int] = field(default_factory=dict)


def _perturb(data: ElementData) -> None:
    """Flip one text value of the row (first node with text, else the
    root): appends a marker or strips it, so mutating twice with the
    same pick round-trips."""
    node = data
    for candidate in data.iter_all():
        if candidate.text:
            node = candidate
            break
    if node.text.endswith("~"):
        node.text = node.text[:-1]
    else:
        node.text = node.text + "~"


def _deletable_fragments(endpoint: SystemEndpoint) -> list[str]:
    """Fragments no other fragment anchors into — deleting their rows
    cascades nowhere, keeping delete workloads row-sized."""
    fragments = endpoint.stored_fragments()
    anchored = {
        fragment.parent_element()
        for fragment in fragments
        if fragment.parent_element() is not None
    }
    return [
        fragment.name for fragment in fragments
        if not (anchored & fragment.elements)
    ]


def mutate_endpoint(endpoint: SystemEndpoint, fraction: float,
                    seed: int = 0,
                    delete_fraction: float = 0.0) -> MutationReport:
    """Update ``fraction`` of each stored fragment's rows (and delete
    ``delete_fraction`` of the rows of cascade-free fragments),
    deterministically from ``seed``.

    The endpoint must have versioning enabled; every change lands
    through :meth:`~repro.services.endpoint.SystemEndpoint.
    apply_changes`, so the version log sees it.
    """
    rng = random.Random(seed)
    report = MutationReport()
    deletable = set(_deletable_fragments(endpoint))
    for fragment in sorted(endpoint.stored_fragments(),
                           key=lambda f: f.name):
        rows = endpoint.scan(fragment).rows
        if not rows:
            continue
        picked = max(1, round(fraction * len(rows))) \
            if fraction > 0 else 0
        picked = min(picked, len(rows))
        updates: list[FragmentRow] = []
        if picked:
            for row in rng.sample(rows, picked):
                _perturb(row.data)
                updates.append(row)
        deletes: set[int] = set()
        if delete_fraction > 0 and fragment.name in deletable:
            doomed = min(
                len(rows) - picked,
                max(1, round(delete_fraction * len(rows))),
            )
            updated = set(map(id, updates))
            survivors = [
                row.eid for row in rows if id(row) not in updated
            ]
            if doomed > 0 and survivors:
                deletes = set(
                    rng.sample(survivors, min(doomed, len(survivors)))
                )
        if not updates and not deletes:
            continue
        report.version = endpoint.apply_changes(
            fragment, upserts=updates, deletes=deletes
        )
        report.updated += len(updates)
        report.deleted += len(deletes)
        report.by_fragment[fragment.name] = len(updates) + len(deletes)
    return report
