"""The row plane, kept as a test reference.

The executor moves every flat-storable fragment as columns, so on
relational endpoints row trees can no longer be selected.  This runs a
program the other way regardless — every value a materialized
:class:`~repro.core.instance.FragmentInstance` of nested trees, through
the endpoints' ``scan``/``write`` and one unbatched pass of each
operator's row kernel (:func:`combine_rows`, :func:`split_rows`) —
which is what the columnar runs are compared against, table for table.
"""

from repro.core.instance import FragmentInstance
from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.stream import RowBatch


def combine_rows(op: Combine, parent: FragmentInstance,
                 child: FragmentInstance) -> FragmentInstance:
    """Instance-level combine (consumes both inputs): one unbatched
    pass through :meth:`Combine.apply_batches`."""
    [combined] = op.apply_batches(
        [RowBatch(parent.fragment, parent.rows, None)],
        [RowBatch(child.fragment, child.rows, None)],
    )
    return FragmentInstance(combined.fragment, combined.rows)


def split_rows(op: Split,
               instance: FragmentInstance) -> list[FragmentInstance]:
    """Instance-level split (consumes the input): one unbatched pass
    through :meth:`Split.apply_batches`."""
    whole = RowBatch(instance.fragment, instance.rows, None)
    pieces = [next(stream) for stream in op.apply_batches([whole])]
    return [FragmentInstance(piece.fragment, piece.rows)
            for piece in pieces]


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
