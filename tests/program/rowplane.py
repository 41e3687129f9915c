"""The row plane, kept as a test reference.

The executor moves every batch as columns.  This runs a program on row
trees regardless — every value a materialized
:class:`~repro.core.instance.FragmentInstance` of nested trees, through
the endpoints' ``scan``/``write`` and the instance-level semantics of
each operator (:func:`combine_rows`, :func:`split_rows`) — which is
what the columnar runs are compared against, table for table.
"""

from repro.core.instance import FragmentInstance
from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.dag import TransferProgram
from repro.core.program.executor import ProgramExecutor
from repro.services.endpoint import InMemoryEndpoint


def combine_rows(op: Combine, parent: FragmentInstance,
                 child: FragmentInstance) -> FragmentInstance:
    """Instance-level combine (consumes both inputs), under the op's
    result fragment."""
    combined = parent.combine(child)
    return FragmentInstance(op.result, combined.rows)


def split_rows(op: Split,
               instance: FragmentInstance) -> list[FragmentInstance]:
    """Instance-level split (consumes the input) into the op's
    pieces."""
    return instance.split(list(op.pieces))


def run_on_rows(program, source, target) -> None:
    """Execute ``program`` from ``source`` into ``target`` on row
    trees only (placement and channel play no part in what is
    written)."""
    values = {}
    for node in program.topological_order():
        inputs = [
            values.pop((edge.producer.op_id, edge.output_index))
            for edge in program.in_edges(node)
        ]
        if isinstance(node, Scan):
            outputs = [source.scan(node.fragment)]
        elif isinstance(node, Combine):
            outputs = [combine_rows(node, *inputs)]
        elif isinstance(node, Split):
            outputs = split_rows(node, *inputs)
        else:
            target.write(node.fragment, *inputs)
            outputs = []
        for index, output in enumerate(outputs):
            values[(node.op_id, index)] = output


def run_combine(op: Combine, parent: FragmentInstance,
                child: FragmentInstance,
                batch_rows: int | None = None) -> FragmentInstance:
    """``op`` run by the executor as the program Scan, Scan -> Combine
    -> Write between in-memory endpoints: what it writes."""
    source = InMemoryEndpoint("source")
    source.put(parent)
    source.put(child)
    target = InMemoryEndpoint("target")
    program = TransferProgram()
    scans = [program.add(Scan(fragment))
             for fragment in (op.parent_fragment, op.child_fragment)]
    program.add(op)
    write = program.add(Write(op.result))
    for port, scan in enumerate(scans):
        program.connect(scan, 0, op, port)
    program.connect(op, 0, write, 0)
    ProgramExecutor(source, target, batch_rows=batch_rows).run(
        program, source_heavy_placement(program)
    )
    return target.scan(op.result)
