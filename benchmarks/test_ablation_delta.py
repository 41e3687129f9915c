"""Ablation — incremental delta exchange vs full re-exchange.

After one cold full exchange, a fraction ``r`` of the source rows is
mutated in place and the target re-synchronized two ways: a full
re-exchange (re-ships everything) and a delta run (ships only the
changed-row closure, merging by eid).  The sweep over change rates
shows communication scaling with ``r`` rather than with the document —
the acceptance bound from the PR issue is delta comm <= 0.3x the full
run's at ``r = 10%``, with the merged target byte-identical to the
full re-exchange on every dataplane.

The LF->MF direction is the honest one for the bound: LF's coarse rows
are their own contribution islands, so the closure stays row-sized.
(Mutating a fine-grained MF source's spine row legitimately re-ships
the whole subtree under it — that amplification is recorded in the
sweep, not asserted against.)

Detection is held to a *count*, not a time: the rows the source
endpoint hands out during a delta round — to ``compute_delta``'s keyed
lookups and to the program's scans alike — stay within a small
constant of the rows shipped plus the rows tombstoned, at 1 % and 5 %
change.  A return to whole-document detection reads every stored row
and cannot pass.

The measured ablation is written to ``BENCH_delta.json`` at the repo
root (committed: the perf trajectory across PRs).
"""

import json
import pathlib
import time
from types import SimpleNamespace

import pytest

from repro.core.delta import endpoint_digest
from repro.core.cost.model import MachineProfile
from repro.core.program.journal import ExchangeJournal
from repro.core.stream import FragmentStream
from repro.net.transport import SimulatedChannel
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import run_optimized_exchange
from repro.sim.simulator import ExchangeSimulator
from repro.workloads.mutate import mutate_endpoint

_SCENARIO = "LF->MF"
_CHANGE_RATES = (0.01, 0.05, 0.10, 0.30)
_COMM_CEILING_AT_10PCT = 0.3
#: Source rows read per row shipped or tombstoned: each shipped row is
#: read once to seed the closure and once by the scan, each tombstone
#: looks up the row its parent occurrence is in.
_READS_PER_CHANGE = 3
_READ_BOUND_RATES = (0.01, 0.05)
_DATAPLANES = {
    "materialized": {},
    "streaming": {"batch_rows": 64},
}
_SWEEP: dict[float, dict[str, object]] = {}
_PLANES: dict[str, dict[str, object]] = {}


class _CountingSource:
    """The source endpoint, counting every stored row it hands out:
    scanned (any representation) or returned by a keyed lookup."""

    def __init__(self, endpoint) -> None:
        self._endpoint = endpoint
        self.rows_read = 0

    def __getattr__(self, name: str):
        return getattr(self._endpoint, name)

    def scan(self, fragment):
        instance = self._endpoint.scan(fragment)
        self.rows_read += instance.row_count()
        return instance

    def _counted(self, stream):
        for batch in stream:
            self.rows_read += batch.row_count()
            yield batch

    def scan_parts(self, fragment, *args, **kwargs):
        return {
            part: FragmentStream(part, self._counted(stream))
            for part, stream in self._endpoint.scan_parts(
                fragment, *args, **kwargs
            ).items()
        }

    def scan_stream_columnar(self, fragment, *args, **kwargs):
        return FragmentStream(fragment, self._counted(
            self._endpoint.scan_stream_columnar(fragment, *args, **kwargs)
        ))

    def rows_by_id(self, fragment, eids):
        found = self._endpoint.rows_by_id(fragment, eids)
        self.rows_read += len(found)
        return found

    def rows_by_parent(self, fragment, parent):
        found = self._endpoint.rows_by_parent(fragment, parent)
        self.rows_read += len(found)
        return found

    def row_holding(self, fragment, element, eid):
        found = self._endpoint.row_holding(fragment, element, eid)
        self.rows_read += found is not None
        return found


def _sync_pair(fragmentations, documents, size, knobs, rate, seed):
    """One full exchange, a mutation at ``rate``, a delta re-sync and
    a fresh full reference — returns the outcomes, the rows the source
    read during the delta run, and whether the digests agree."""
    source_frag = fragmentations["LF"]
    target_frag = fragmentations["MF"]
    source = RelationalEndpoint(f"delta-src-{seed}", source_frag)
    source.load_document(documents[size])
    source.enable_versioning()
    from repro.core.mapping import derive_mapping
    from repro.core.optimizer.placement import source_heavy_placement
    from repro.core.program.builder import build_transfer_program

    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    placement = source_heavy_placement(program)
    journal = ExchangeJournal()
    target = RelationalEndpoint(f"delta-tgt-{seed}", target_frag)
    full = run_optimized_exchange(
        program, placement, source, target, SimulatedChannel(),
        _SCENARIO, journal=journal, **knobs,
    )
    mutate_endpoint(
        source, rate, seed=seed, delete_fraction=rate / 5.0
    )
    counting = _CountingSource(source)
    started = time.perf_counter()
    delta = run_optimized_exchange(
        program, placement, counting, target, SimulatedChannel(),
        _SCENARIO, journal=journal, delta=True, **knobs,
    )
    delta_wall = time.perf_counter() - started
    reference = RelationalEndpoint(f"delta-ref-{seed}", target_frag)
    run_optimized_exchange(
        program, placement, source, reference, SimulatedChannel(),
        _SCENARIO, **knobs,
    )
    fragments = list(target_frag)
    identical = endpoint_digest(target, fragments) \
        == endpoint_digest(reference, fragments)
    return SimpleNamespace(
        full=full, delta=delta, delta_wall=delta_wall,
        rows_read=counting.rows_read,
        tombstoned=len(source.versions.tombstones),
        identical=identical,
    )


@pytest.mark.parametrize("rate", _CHANGE_RATES)
def test_change_rate_sweep(rate, fragmentations, documents,
                           size_labels, results):
    size = size_labels[0]
    pair = _sync_pair(
        fragmentations, documents, size, {}, rate,
        seed=int(rate * 1000),
    )
    full, delta, rows_read = pair.full, pair.delta, pair.rows_read
    assert pair.identical, f"delta diverged at change rate {rate}"
    if rate in _READ_BOUND_RATES:
        # Detection proportional to the change: a count, not a time.
        assert rows_read <= _READS_PER_CHANGE * (
            delta.delta_shipped_rows + pair.tombstoned
        ), (rows_read, delta.delta_shipped_rows, pair.tombstoned)
        assert rows_read < delta.delta_total_rows
    ratio = delta.comm_bytes / full.comm_bytes
    _SWEEP[rate] = {
        "full_comm_bytes": full.comm_bytes,
        "delta_comm_bytes": delta.comm_bytes,
        "comm_ratio": round(ratio, 4),
        "changed_rows": delta.delta_changed_rows,
        "shipped_rows": delta.delta_shipped_rows,
        "deleted_rows": delta.delta_deleted_rows,
        "total_rows": delta.delta_total_rows,
        "source_rows_read": rows_read,
        "delta_wall_seconds": round(pair.delta_wall, 4),
    }
    results.record(
        "ablation-delta", f"r={rate:g}", "comm ratio",
        f"{ratio:.3f}x",
        title="Ablation: delta re-exchange vs full (LF->MF, "
              "2.5MB ladder entry, comm bytes shipped)",
    )
    results.record(
        "ablation-delta", f"r={rate:g}", "shipped rows",
        f"{delta.delta_shipped_rows}/{delta.delta_total_rows}",
    )


@pytest.mark.parametrize("plane", _DATAPLANES)
def test_dataplane_byte_identity(plane, fragmentations, documents,
                                 size_labels, results):
    size = size_labels[0]
    pair = _sync_pair(
        fragmentations, documents, size, _DATAPLANES[plane], 0.10,
        seed=100,
    )
    assert pair.identical, f"{plane} dataplane diverged"
    ratio = pair.delta.comm_bytes / pair.full.comm_bytes
    _PLANES[plane] = {
        "comm_ratio": round(ratio, 4),
        "identical": True,
    }
    results.record(
        "ablation-delta", f"plane={plane}", "comm ratio",
        f"{ratio:.3f}x",
    )


def test_delta_bound_and_trajectory_file(fragmentations, results):
    if len(_SWEEP) < len(_CHANGE_RATES) \
            or len(_PLANES) < len(_DATAPLANES):
        pytest.skip("run the sweep first")

    # Communication grows with the change rate...
    ratios = [_SWEEP[rate]["comm_ratio"] for rate in _CHANGE_RATES]
    assert ratios == sorted(ratios)
    # ...and the acceptance bound holds at r = 10%.
    at_ten = _SWEEP[0.10]["comm_ratio"]
    assert at_ten <= _COMM_CEILING_AT_10PCT, at_ten

    # The simulator's analytic prediction for the same sweep.
    simulator = ExchangeSimulator(fragmentations["LF"].schema)
    predicted = {
        f"{estimate.change_rate:g}": round(estimate.relative_cost, 4)
        for estimate in simulator.delta_exchange_costs(
            fragmentations["LF"], fragmentations["MF"],
            MachineProfile("s"), MachineProfile("t"),
            list(_CHANGE_RATES),
        )
    }

    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_delta.json"
    payload = {
        "experiment": "delta-ablation",
        "scenario": _SCENARIO,
        "document": "2.5MB ladder entry x REPRO_SCALE",
        "comm_ceiling_at_10pct": _COMM_CEILING_AT_10PCT,
        "comm_ratio_at_10pct": at_ten,
        "sweep": {f"{rate:g}": _SWEEP[rate]
                  for rate in _CHANGE_RATES},
        "dataplanes": _PLANES,
        "predicted_relative_cost": predicted,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    results.note(
        "ablation-delta",
        f"delta/full comm at r=10%: {at_ten:.3f}x "
        f"(ceiling {_COMM_CEILING_AT_10PCT}); "
        f"trajectory written to {out.name}",
    )
