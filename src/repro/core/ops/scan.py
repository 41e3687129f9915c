"""``Scan`` (Definition 3.6): read a fragment from a system's store.

``Scan(f)`` returns the instance of ``f`` and computes the ``ID`` and
``PARENT`` attributes of each row.  How that happens is the producing
system's business — a relational endpoint slices its table's columns
(stored in PARENT, ID order), a directory endpoint walks its tree — so
the executor delegates to the endpoint and this node only records
*which* fragment is read.  The delegation is
``endpoint.scan_stream_columnar(fragment, batch_rows)`` for a
flat-storable fragment — the endpoint yields the feed as
:class:`~repro.core.columnar.ColumnBatch` slices — and
``endpoint.scan_parts(fragment, batch_rows)``, one such stream per
flat part, for one that does not flatten (one slice holding the whole
feed on an unbatched run).
"""

from __future__ import annotations

from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation


class Scan(Operation):
    """Read fragment ``fragment`` from the system it is stored at."""

    kind = "scan"

    def __init__(self, fragment: Fragment,
                 location: Location | None = None) -> None:
        super().__init__((fragment,), (fragment,), location)

    @property
    def fragment(self) -> Fragment:
        """The fragment this scan produces."""
        return self.outputs[0]
