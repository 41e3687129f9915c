"""Secondary indexes: hash (equality) and sorted (range/order).

Index maintenance is what Table 4 of the paper times separately from
loading; :class:`Table` therefore does *not* maintain indexes during
bulk loads — they are built explicitly afterwards, and
:meth:`HashIndex.build_column` / :meth:`SortedIndex.build_column` do
the measurable work, reading the one stored key column.  Row-at-a-time
writes (``insert``, ``upsert``, ``delete_where``) are the other
discipline: they patch every *built* hash index for
exactly the rows they touch (:meth:`HashIndex.add` / ``discard`` /
``renumber``), so a delta merge leaves nothing to rebuild.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence


class HashIndex:
    """Equality index: value → row ids."""

    kind = "hash"

    def __init__(self, table_name: str, column: str, position: int) -> None:
        self.table_name = table_name
        self.column = column
        self.position = position
        self._buckets: dict[object, list[int]] = {}
        self.built = False

    def build(self, rows: Sequence[tuple]) -> None:
        """(Re)build the index over all rows."""
        self.build_column([row[self.position] for row in rows])

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
        order, as :meth:`build` leaves them."""
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


class SortedIndex:
    """Order index: sorted (value, row id) pairs; supports ranges."""

    kind = "sorted"

    def __init__(self, table_name: str, column: str, position: int) -> None:
        self.table_name = table_name
        self.column = column
        self.position = position
        self._entries: list[tuple[object, int]] = []
        self.built = False

    def build(self, rows: Sequence[tuple]) -> None:
        """(Re)build the index over all rows (NULLs are not indexed)."""
        self.build_column([row[self.position] for row in rows])

    def build_column(self, values: Sequence[object]) -> None:
        """(Re)build the index over the key column itself."""
        self._entries = sorted(
            ((value, row_id) for row_id, value in enumerate(values)
             if value is not None),
            key=lambda entry: entry[0],
        )
        self.built = True

    def add(self, row_id: int, value: object) -> None:
        """Insert the appended row at ``row_id``, keyed ``value``, in
        order."""
        if value is None:
            return
        bisect.insort(self._entries, (value, row_id),
                      key=lambda entry: entry[0])

    def row_ids_in_order(self) -> Iterable[int]:
        """All indexed row ids in ascending column order."""
        return (row_id for _, row_id in self._entries)

    def range(self, low: object | None, high: object | None) -> list[int]:
        """Row ids with ``low <= value <= high`` (None = unbounded)."""
        keys = [entry[0] for entry in self._entries]
        start = 0 if low is None else bisect.bisect_left(keys, low)
        stop = (
            len(keys) if high is None else bisect.bisect_right(keys, high)
        )
        return [row_id for _, row_id in self._entries[start:stop]]

    def __len__(self) -> int:
        return len(self._entries)
