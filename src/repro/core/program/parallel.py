"""Parallel execution of transfer programs (the Section 5.2 opportunity).

    "In this setup, the program is a series of Scan(f) -> Write(f)
    operations.  This observation offers an opportunity for parallelism
    in the execution that we did not pursue here.  All pieces of the
    programs were executed sequentially in all of our experiments."

A transfer program decomposes into per-Write *expressions*
(Definition 3.10); expressions that share no operations can run
concurrently.  :func:`partition_expressions` computes the maximal
independent groups (expressions sharing any node are merged, since a
value is consumed exactly once), and :func:`simulate_parallel_makespan`
turns a sequential :class:`~repro.core.program.executor.ExecutionReport`
into the makespan a ``workers``-way parallel executor would achieve,
using longest-processing-time list scheduling.

The estimate is exact for the simulated quantities (communication) and
a standard model for the measured ones (per-operation wall times are
taken as task weights).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ops.base import Operation
from repro.core.program.dag import Placement, TransferProgram
from repro.core.program.executor import ExecutionReport


def partition_expressions(program: TransferProgram
                          ) -> list[list[Operation]]:
    """Group the program into maximal independent sub-programs.

    Each group is the union of the per-Write expressions that share
    operations (e.g. two targets fed by one Split end up together);
    groups are returned write-roots-first in stable program order.
    """
    parent: dict[int, int] = {}

    def find(op_id: int) -> int:
        while parent[op_id] != op_id:
            parent[op_id] = parent[parent[op_id]]
            op_id = parent[op_id]
        return op_id

    def union(first: int, second: int) -> None:
        parent[find(first)] = find(second)

    for node in program.nodes:
        parent[node.op_id] = node.op_id
    for edge in program.edges:
        union(edge.producer.op_id, edge.consumer.op_id)

    groups: dict[int, list[Operation]] = {}
    for node in program.nodes:
        groups.setdefault(find(node.op_id), []).append(node)
    return list(groups.values())


@dataclass(slots=True)
class ParallelEstimate:
    """Sequential vs parallel execution of one program run."""

    sequential_seconds: float
    parallel_seconds: float
    groups: int
    workers: int

    @property
    def speedup(self) -> float:
        """Sequential time over parallel makespan (>= 1)."""
        if self.parallel_seconds <= 0:
            return 1.0
        return self.sequential_seconds / self.parallel_seconds


def simulate_parallel_makespan(program: TransferProgram,
                               placement: Placement,
                               report: ExecutionReport,
                               workers: int = 4,
                               comm_overlap: float = 0.0
                               ) -> ParallelEstimate:
    """Estimate the makespan of running ``program`` with ``workers``
    concurrent streams, from a sequential run's measurements.

    Each independent group's duration is the sum of its operations'
    measured times plus its share of communication time, attributed by
    the *bytes* its cross-edges actually shipped (``report.
    shipment_bytes``); when the report carries no per-edge byte
    accounting every cross-edge weighs the same.  Groups are then
    list-scheduled longest-first onto the workers.

    ``comm_overlap`` (0..1) credits *intra-edge* pipelining: on a
    batched run a cross-edge ships chunk *i* while chunk *i+1* is
    still being produced, so up to ``min(compute, comm)`` of a group's
    communication hides behind its computation.  ``0`` models an
    unbatched run (each edge is one monolithic transfer that cannot
    start until its producer finishes); ``1`` models perfect
    chunk-level overlap — a run with many small batches approaches
    it.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 0.0 <= comm_overlap <= 1.0:
        raise ValueError("comm_overlap must be within [0, 1]")
    groups = partition_expressions(program)
    # Per-op measured seconds.  Timings carry the op id; fall back to
    # positional matching (topological order = sequential execution
    # order) for reports recorded without ids.
    seconds_by_op: dict[int, float] = {}
    if all(timing.op_id >= 0 for timing in report.op_timings):
        for timing in report.op_timings:
            seconds_by_op[timing.op_id] = timing.seconds
    else:
        ordered = program.topological_order()
        for node, timing in zip(ordered, report.op_timings):
            seconds_by_op[node.op_id] = timing.seconds

    cross = program.cross_edges(placement)
    group_of: dict[int, int] = {}
    for index, group in enumerate(groups):
        for node in group:
            group_of[node.op_id] = index
    cross_weight = [0.0] * len(groups)
    for edge in cross:
        key = (edge.producer.op_id, edge.output_index)
        weight = float(report.shipment_bytes.get(key, 1.0)) \
            if report.shipment_bytes else 1.0
        cross_weight[group_of[edge.producer.op_id]] += weight
    total_weight = sum(cross_weight) or 1.0

    durations = []
    for index, group in enumerate(groups):
        compute = sum(
            seconds_by_op.get(node.op_id, 0.0) for node in group
        )
        comm = report.comm_seconds * cross_weight[index] / total_weight
        hidden = comm_overlap * min(compute, comm)
        durations.append(compute + comm - hidden)

    sequential = sum(durations)
    # LPT list scheduling.
    loads = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return ParallelEstimate(
        sequential_seconds=sequential,
        parallel_seconds=max(loads) if loads else 0.0,
        groups=len(groups),
        workers=workers,
    )
