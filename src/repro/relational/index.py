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

The layout is compact: a key held by one row — every key of an ``id``
column, and of a ``parent`` column whose parents have one child each —
maps to that row id, a plain ``int``; only a key held by several rows
maps to a list.  A large index is thus one dict of ints, with no
container per key for the cyclic collector to scan.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence


class HashIndex:
    """Equality index: value → row ids.

    A key held by one row maps to that row's id; a key held by several
    maps to their ids in ascending order.  A key moves between the two
    as rows come and go (int → list on a second row, list → int when
    one row is left), so every reader sees ascending row ids either way.
    """

    def __init__(self, table_name: str, column: str, position: int) -> None:
        self.table_name = table_name
        self.column = column
        self.position = position
        self._rows: dict[object, int | list[int]] = {}
        self.built = False

    def build_column(self, values: Sequence[object]) -> None:
        """(Re)build the index over the key column itself, ``values[i]``
        being row ``i``'s key.  Distinct keys (every ``id`` column,
        most ``parent`` ones) take one pass at C speed; a column that
        repeats a key is read again in one loop that makes a list
        only for a key it meets twice."""
        count = len(values)
        rows: dict[object, int | list[int]] = dict(
            zip(values, range(count))
        )
        if len(rows) < count:
            rows = {}
            setdefault = rows.setdefault
            for row_id, value in enumerate(values):
                held = setdefault(value, row_id)
                if held is not row_id:
                    if held.__class__ is int:
                        rows[value] = [held, row_id]
                    else:
                        held.append(row_id)
        self._rows = rows
        self.built = True

    def add(self, row_id: int, value: object) -> None:
        """Index the row at ``row_id``, whose key is ``value``
        (incremental maintenance); a repeated key's ids stay in
        ascending order."""
        rows = self._rows
        held = rows.setdefault(value, row_id)
        if held is row_id:
            return
        if held.__class__ is int:
            rows[value] = [held, row_id] if held < row_id \
                else [row_id, held]
        elif held[-1] > row_id:
            bisect.insort(held, row_id)
        else:
            held.append(row_id)

    def discard(self, row_id: int, value: object) -> None:
        """Forget that a row keyed ``value`` is stored at ``row_id``."""
        rows = self._rows
        held = rows[value]
        if held.__class__ is int:
            del rows[value]
        elif len(held) == 2:
            rows[value] = held[1] if held[0] == row_id else held[0]
        else:
            del held[bisect.bisect_left(held, row_id)]

    def renumber(self, old_id: int, new_id: int, value: object) -> None:
        """The row keyed ``value`` moved from ``old_id`` to ``new_id``
        (a swap-remove filled a hole with the table's last row)."""
        if self._rows[value].__class__ is int:
            self._rows[value] = new_id
        else:
            self.discard(old_id, value)
            self.add(new_id, value)

    def entry(self, value: object) -> int | list[int] | None:
        """What the index stores for ``value``: the row id of a key one
        row holds, the ascending ids of a key several rows hold, None
        for a key no row holds — :meth:`row_ids` of one key without
        making a list.
        The list is the index's own: read it, never write to it."""
        return self._rows.get(value)

    def row_ids(self, values: Iterable[object]) -> list[int]:
        """Row ids whose column equals one of ``values`` (distinct),
        key by key, ascending per key, one list in all."""
        found: list[int] = []
        for held in map(self._rows.get, values):
            if held.__class__ is int:
                found.append(held)
            elif held is not None:
                found.extend(held)
        return found

    def __len__(self) -> int:
        return sum(
            1 if held.__class__ is int else len(held)
            for held in self._rows.values()
        )
