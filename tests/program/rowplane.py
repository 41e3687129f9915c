"""The row plane, kept as a test reference.

The executor moves every flat-storable fragment as columns, so on
relational endpoints row trees can no longer be selected.  This runs a
program the other way regardless — every value a materialized
:class:`~repro.core.instance.FragmentInstance` of nested trees, through
the endpoints' ``scan``/``write`` and the operators' instance-level
``apply`` (the row kernels) — which is what the columnar runs are
compared against, table for table.
"""

from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split


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
            outputs = [node.apply(*inputs)]
        elif isinstance(node, Split):
            outputs = node.apply(*inputs)
        else:
            target.write(node.fragment, *inputs)
            outputs = []
        for index, output in enumerate(outputs):
            values[(node.op_id, index)] = output
