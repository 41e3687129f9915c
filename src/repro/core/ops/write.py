"""``Write`` (Definition 3.9): store a fragment at a system.

What "store" means is the executing system's business: the relational
endpoint LOADs rows into the fragment's table (and maintains indexes),
the directory endpoint adds entries under their parents, and a
file-system endpoint would publish documents.  The node records only the
fragment written.  The delegation is ``endpoint.write_stream(fragment,
stream)``: batches are stored as they arrive (the relational endpoint
bulk-loads each batch), so a batched write never holds the whole
instance.
"""

from __future__ import annotations

from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation


class Write(Operation):
    """Store fragment ``fragment`` at the system this node is placed on."""

    kind = "write"

    def __init__(self, fragment: Fragment,
                 location: Location | None = None) -> None:
        super().__init__((fragment,), (), location)

    @property
    def fragment(self) -> Fragment:
        """The fragment this write stores."""
        return self.inputs[0]
