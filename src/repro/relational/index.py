"""Hash (equality) indexes over one stored column.

Index maintenance is what Table 4 of the paper times separately from
loading; :class:`Table` therefore does *not* maintain indexes during
bulk loads — they are built explicitly afterwards, and
:meth:`HashIndex.build_column` does the measurable work, reading the
one stored key column.  Row-at-a-time writes (``upsert``,
``delete_where``) are the other discipline: they patch every *built*
index for exactly the rows they touch (:meth:`HashIndex.add` /
``discard`` / ``renumber``), so a delta merge leaves nothing to
rebuild.
"""

from __future__ import annotations

import bisect
from typing import Sequence


class HashIndex:
    """Equality index: value → row ids."""

    def __init__(self, table_name: str, column: str, position: int) -> None:
        self.table_name = table_name
        self.column = column
        self.position = position
        self._buckets: dict[object, list[int]] = {}
        self.built = False

    def build_column(self, values: Sequence[object]) -> None:
        """(Re)build the index over the key column itself, ``values[i]``
        being row ``i``'s key."""
        buckets: dict[object, list[int]] = {}
        for row_id, value in enumerate(values):
            buckets.setdefault(value, []).append(row_id)
        self._buckets = buckets
        self.built = True

    def add(self, row_id: int, value: object) -> None:
        """Index the row at ``row_id``, whose key is ``value``
        (incremental maintenance).  Buckets stay in ascending row-id
        order, as :meth:`build_column` leaves them."""
        bucket = self._buckets.setdefault(value, [])
        if bucket and bucket[-1] > row_id:
            bisect.insort(bucket, row_id)
        else:
            bucket.append(row_id)

    def discard(self, row_id: int, value: object) -> None:
        """Forget that a row keyed ``value`` is stored at ``row_id``."""
        bucket = self._buckets[value]
        if len(bucket) == 1:
            del self._buckets[value]
        else:
            del bucket[bisect.bisect_left(bucket, row_id)]

    def renumber(self, old_id: int, new_id: int, value: object) -> None:
        """The row keyed ``value`` moved from ``old_id`` to ``new_id``
        (a swap-remove filled a hole with the table's last row)."""
        self.discard(old_id, value)
        self.add(new_id, value)

    def lookup(self, value: object) -> list[int]:
        """Row ids whose column equals ``value``."""
        return self._buckets.get(value, [])

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
