"""Compare two result records against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py A.json B.json

A is the base (the parent commit, or the first run-set), B the change.
For every workload and end-to-end metric it prints both medians, by how
much B is worse in the metric's direction, and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound, and
  the run-to-run spread (interquartile range over median, the wider
  side) is within the bound, or every run of B beats every run of A;
* ``regression`` — B's median is worse by more than the bound and the
  two interquartile ranges do not overlap;
* ``unresolved`` — anything else: the spread is too wide to tell;
* ``missing`` — A has the workload or the metric and B does not.

``comm_bytes``, the paper's communication term, is a count that repeats
exactly for a seed, so it has no bound: when both records ran the same
seeds, a run that shipped more bytes than the base's run of that seed
is a ``regression`` and one that shipped fewer is listed as
``changed``.  So are, as ``changed``, the counts of the traced run
(per-layer metrics in ``count`` or ``bytes``).

Exits 1 when any pair regressed or is missing.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    """The contract: ``BENCHMARK.json`` at the repo root."""
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"),
              encoding="utf-8") as stream:
        return json.load(stream)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, worse_by)`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    worse_by = sign * (change_median - base_median) / base_median
    spread = max(
        (base_q3 - base_q1) / base_median,
        (change_q3 - change_q1) / change_median,
    )
    if worse_by > bound:
        apart = change_q1 > base_q3 or change_q3 < base_q1
        return ("regression" if apart else "unresolved"), worse_by
    all_better = (
        max(change) < min(base) if better == "lower"
        else min(change) > max(base)
    )
    if spread <= bound or all_better:
        return "ok", worse_by
    return "unresolved", worse_by


def compare(base: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric of the base record,
    plus ``comm_bytes`` and whatever else only shows as a count."""
    rows = []
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = entry["end_to_end"].get(name)
            b = other["end_to_end"].get(name) if other else None
            if a is None:
                continue
            row = {
                "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric["bound"],
                "base": a["median"],
            }
            if b is None:
                rows.append({**row, **_MISSING})
                continue
            outcome, worse_by = verdict(
                a["values"], b["values"], metric["better"],
                metric["bound"],
            )
            rows.append({
                **row, "change": b["median"], "worse_by": worse_by,
                "verdict": outcome,
            })
        if other is None:
            continue
        rows.extend(_comm_bytes(workload, entry, other))
        if entry["seeds"][0] == other["seeds"][0]:
            rows.extend(_changed_counts(workload, entry, other, spec))
        if other["failed"] > entry["failed"]:
            rows.append({
                "workload": workload, "metric": "failed", "unit": "count",
                "bound": 0, "base": entry["failed"],
                "change": other["failed"], "worse_by": float("inf"),
                "verdict": "regression",
            })
    return rows


_MISSING = {"change": float("nan"), "worse_by": float("nan"),
            "verdict": "missing"}


def _comm_bytes(workload: str, base: dict, change: dict) -> list[dict]:
    """The communication term, seed by seed.  Other seeds are other
    documents: there is nothing to compare then."""
    a, b = base.get("comm_bytes"), change.get("comm_bytes")
    if a is None:
        return []
    row = {"workload": workload, "metric": "comm_bytes",
           "unit": "bytes", "bound": 0, "base": median(a)}
    if b is None:
        return [{**row, **_MISSING}]
    if base["seeds"] != change["seeds"]:
        return []
    return [{
        **row, "change": median(b),
        "worse_by": max(y / x - 1 if x else float(y > x)
                        for x, y in zip(a, b)),
        "verdict": (
            "regression" if any(y > x for x, y in zip(a, b))
            else "changed" if a != b else "ok"
        ),
    }]


def _changed_counts(workload: str, base: dict, change: dict,
                    spec: dict) -> list[dict]:
    a, b = base.get("per_layer", {}), change.get("per_layer", {})
    return [
        {
            "workload": workload, "metric": metric["name"],
            "unit": metric["unit"], "bound": 0,
            "base": a[metric["name"]]["value"],
            "change": b[metric["name"]]["value"],
            "worse_by": b[metric["name"]]["value"]
            / (a[metric["name"]]["value"] or 1) - 1,
            "verdict": "changed",
        }
        for metric in spec["per_layer"]
        if metric["unit"] in ("count", "bytes")
        and metric["name"] in a and metric["name"] in b
        and a[metric["name"]]["value"] != b[metric["name"]]["value"]
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as stream:
            records.append(json.load(stream))
    rows = compare(records[0], records[1], load_spec())
    print(f"{'workload':14s} {'metric':36s} {'base':>12s} "
          f"{'change':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:36s} "
              f"{row['base']:>12.6g} {row['change']:>12.6g} "
              f"{row['worse_by']:>+9.1%} {row['bound']:>6.0%}  "
              f"{row['verdict']}")
    counts = {
        outcome: sum(1 for row in rows if row["verdict"] == outcome)
        for outcome in ("ok", "unresolved", "regression", "missing",
                        "changed")
    }
    print(", ".join(f"{count} {outcome}"
                    for outcome, count in counts.items()))
    return 1 if counts["regression"] or counts["missing"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
