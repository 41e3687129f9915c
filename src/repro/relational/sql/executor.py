"""Execute parsed SQL against a database's tables.

Joins are hash joins on the equi-join key (build on the smaller input);
filters use a hash index when one is built on the filtered column of a
single-table query; ORDER BY is an explicit sort.  The publisher's
sorted feeds (``ORDER BY parent, id``) therefore cost what they should;
Scan does not come through here — it reads the table's clustered
columns.  UPDATE and DELETE write through :class:`Table` methods, which
keep its indexes and clustered order honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import SqlSyntaxError, TableError
from repro.relational.schema import Column, TableSchema
from repro.relational.sql.ast import (
    Aggregate,
    ColumnRef,
    Condition,
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Literal,
    Select,
    Statement,
    TableRef,
    Update,
)
from repro.relational.types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.engine import Database


@dataclass(slots=True)
class Result:
    """Query result: column names plus rows (tuples).

    Data-modifying statements return an empty ``columns`` list and
    report the affected row count in ``rowcount``.
    """

    columns: list[str]
    rows: list[tuple]
    rowcount: int = 0

    def scalar(self) -> object:
        """The single value of a one-row, one-column result.

        Raises:
            TableError: if the shape is not 1×1.
        """
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise TableError("result is not a single scalar")
        return self.rows[0][0]


class _Frame:
    """Column binding environment for joined rows."""

    def __init__(self) -> None:
        self.slots: list[tuple[str, str]] = []  # (alias, column)
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_column: dict[str, list[int]] = {}

    def extend(self, ref: TableRef, schema: TableSchema) -> None:
        alias = ref.alias.lower()
        for column in schema.column_names():
            position = len(self.slots)
            self.slots.append((ref.alias, column))
            self._by_qualified[(alias, column.lower())] = position
            self._by_column.setdefault(column.lower(), []).append(position)

    def resolve(self, ref: ColumnRef) -> int:
        if ref.table is not None:
            try:
                return self._by_qualified[
                    (ref.table.lower(), ref.column.lower())
                ]
            except KeyError as exc:
                raise TableError(f"unknown column {ref}") from exc
        positions = self._by_column.get(ref.column.lower(), [])
        if not positions:
            raise TableError(f"unknown column {ref}")
        if len(positions) > 1:
            raise TableError(f"ambiguous column {ref}")
        return positions[0]


def execute_statement(db: "Database", statement: Statement) -> Result:
    """Execute ``statement`` against ``db``.

    Raises:
        TableError: for schema violations.
        SqlSyntaxError: for statements the executor cannot plan.
    """
    if isinstance(statement, Select):
        return _select(db, statement)
    if isinstance(statement, Insert):
        return _insert(db, statement)
    if isinstance(statement, Update):
        return _update(db, statement)
    if isinstance(statement, Delete):
        return _delete(db, statement)
    if isinstance(statement, CreateTable):
        return _create_table(db, statement)
    if isinstance(statement, CreateIndex):
        table = db.table(statement.table)
        table.create_index(statement.column, statement.kind)
        return Result([], [], 0)
    raise SqlSyntaxError(f"cannot execute {statement!r}")


def _create_table(db: "Database", statement: CreateTable) -> Result:
    columns = []
    primary_key = None
    for name, sql_type, not_null, is_pk in statement.columns:
        columns.append(
            Column(name, ColumnType.from_sql(sql_type), nullable=not not_null)
        )
        if is_pk:
            if primary_key is not None:
                raise TableError(
                    f"table {statement.name!r} has two primary keys"
                )
            primary_key = name
    db.create_table(TableSchema(statement.name, columns, primary_key))
    return Result([], [], 0)


def _insert(db: "Database", statement: Insert) -> Result:
    table = db.table(statement.table)
    if statement.columns is None:
        for values in statement.rows:
            table.insert(values)
        return Result([], [], len(statement.rows))
    positions = [
        table.schema.position(column) for column in statement.columns
    ]
    if len(set(positions)) != len(positions):
        raise TableError("duplicate column in INSERT column list")
    for values in statement.rows:
        if len(values) != len(positions):
            raise TableError(
                f"INSERT expects {len(positions)} values, "
                f"got {len(values)}"
            )
        row: list[object] = [None] * table.schema.arity
        for position, value in zip(positions, values):
            row[position] = value
        table.insert(row)
    return Result([], [], len(statement.rows))


def _condition_check(frame: _Frame,
                     condition: Condition) -> Callable[[tuple], bool]:
    left = frame.resolve(condition.left)
    op = condition.op
    if op == "IS NULL":
        return lambda row: row[left] is None
    if op == "IS NOT NULL":
        return lambda row: row[left] is not None
    if isinstance(condition.right, Literal):
        constant = condition.right.value
        get_right: Callable[[tuple], object] = lambda row: constant
    else:
        right = frame.resolve(condition.right)
        get_right = lambda row: row[right]  # noqa: E731

    comparators: dict[str, Callable[[object, object], bool]] = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    compare = comparators[op]

    def check(row: tuple) -> bool:
        a = row[left]
        b = get_right(row)
        if a is None or b is None:
            return False  # SQL three-valued logic: NULL never matches
        return compare(a, b)

    return check


def _select(db: "Database", statement: Select) -> Result:
    frame = _Frame()
    base = db.table(statement.table.name)
    frame.extend(statement.table, base.schema)

    rows: list[tuple]
    conditions = list(statement.where)
    # Index-assisted single-table equality filter.
    index_filter = _try_index_filter(db, statement)
    if index_filter is not None:
        rows, conditions = index_filter
    else:
        rows = list(base.scan())

    for join in statement.joins:
        joined_table = db.table(join.table.name)
        # Determine which side of ON refers to the already-built frame;
        # the other side must be a column of the joined table.
        try:
            probe_position = frame.resolve(join.left)
            build_ref = join.right
        except TableError:
            probe_position = frame.resolve(join.right)
            build_ref = join.left
        frame.extend(join.table, joined_table.schema)
        build_index = joined_table.schema.position(build_ref.column)
        buckets: dict[object, list[tuple]] = {}
        for row in joined_table.scan():
            key = row[build_index]
            if key is not None:
                buckets.setdefault(key, []).append(row)
        joined_rows: list[tuple] = []
        for row in rows:
            key = row[probe_position]
            if key is None:
                continue
            for match in buckets.get(key, ()):
                joined_rows.append(row + match)
        rows = joined_rows

    checks = [
        _condition_check(frame, condition) for condition in conditions
    ]
    if checks:
        rows = [
            row for row in rows if all(check(row) for check in checks)
        ]

    if statement.is_aggregate:
        names, rows = _aggregate(frame, statement, rows)
        if statement.order_by:
            output_positions = {
                name.lower(): index
                for index, name in enumerate(names)
            }
            terms = []
            for ref, ascending in statement.order_by:
                try:
                    terms.append(
                        (output_positions[ref.column.lower()],
                         ascending)
                    )
                except KeyError as exc:
                    raise TableError(
                        f"ORDER BY {ref} must name an output column "
                        "of an aggregate query"
                    ) from exc
            for position, ascending in reversed(terms):
                rows.sort(
                    key=lambda row: (
                        row[position] is None, row[position],
                    ),
                    reverse=not ascending,
                )
    else:
        # Plain queries sort on frame columns (selected or not),
        # then project.
        if statement.order_by:
            terms = [
                (frame.resolve(ref), ascending)
                for ref, ascending in statement.order_by
            ]
            for position, ascending in reversed(terms):
                rows.sort(
                    key=lambda row: (
                        row[position] is None, row[position],
                    ),
                    reverse=not ascending,
                )
        if not statement.items:  # SELECT *
            names = [column for _, column in frame.slots]
        else:
            positions = [
                frame.resolve(item.expression)
                for item in statement.items
            ]
            names = [item.output_name() for item in statement.items]
            rows = [
                tuple(row[position] for position in positions)
                for row in rows
            ]

    if statement.limit is not None:
        rows = rows[: statement.limit]
    return Result(names, rows, 0)


def _aggregate(frame: _Frame, statement: Select,
               rows: list[tuple]) -> tuple[list[str], list[tuple]]:
    """Grouped (or whole-input) aggregation."""
    group_positions = [
        frame.resolve(ref) for ref in statement.group_by
    ]
    grouped_names = {
        ref.column.lower() for ref in statement.group_by
    }
    for item in statement.items:
        if isinstance(item.expression, ColumnRef) \
                and item.expression.column.lower() not in grouped_names:
            raise TableError(
                f"column {item.expression} must appear in GROUP BY"
            )

    groups: dict[tuple, list[tuple]] = {}
    if group_positions:
        for row in rows:
            key = tuple(row[position] for position in group_positions)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = rows  # a single group, possibly empty

    def evaluate(expression: ColumnRef | Aggregate, key: tuple,
                 members: list[tuple]) -> object:
        if isinstance(expression, ColumnRef):
            position = frame.resolve(expression)
            index = group_positions.index(position)
            return key[index]
        if expression.column is None:  # COUNT(*)
            return len(members)
        position = frame.resolve(expression.column)
        values = [
            row[position] for row in members
            if row[position] is not None
        ]
        if expression.func == "COUNT":
            return len(values)
        if not values:
            return None
        if expression.func == "SUM":
            return sum(values)
        if expression.func == "MIN":
            return min(values)
        if expression.func == "MAX":
            return max(values)
        return sum(values) / len(values)  # AVG

    names = [item.output_name() for item in statement.items]
    ordered_keys = sorted(
        groups,
        key=lambda key: tuple(
            (value is None, value) for value in key
        ),
    )
    output = [
        tuple(
            evaluate(item.expression, key, groups[key])
            for item in statement.items
        )
        for key in ordered_keys
    ]
    return names, output


def _update(db: "Database", statement: Update) -> Result:
    table = db.table(statement.table)
    frame = _Frame()
    frame.extend(TableRef.of(statement.table), table.schema)
    checks = [
        _condition_check(frame, condition)
        for condition in statement.where
    ]
    assignments = [
        (table.schema.position(column),
         table.schema.column(column).type.coerce(value))
        for column, value in statement.assignments
    ]
    changes: dict[int, tuple] = {}
    for row_id, row in enumerate(table.scan()):
        if checks and not all(check(row) for check in checks):
            continue
        values = list(row)
        for position, value in assignments:
            values[position] = value
        changes[row_id] = tuple(values)
    table.update_rows(changes)
    return Result([], [], len(changes))


def _try_index_filter(
    db: "Database", statement: Select
) -> tuple[list[tuple], list[Condition]] | None:
    """Use a hash index for ``WHERE col = literal`` on a plain table.

    Returns the pre-filtered rows plus the conditions still to apply,
    or ``None`` when no built index matches the query shape.
    """
    if statement.joins or len(statement.where) == 0:
        return None
    condition = statement.where[0]
    if condition.op != "=" or not isinstance(condition.right, Literal):
        return None
    table = db.table(statement.table.name)
    if (condition.left.table is not None
            and condition.left.table.lower()
            != statement.table.alias.lower()):
        return None
    if not table.schema.has_column(condition.left.column):
        return None
    index = table.get_index(condition.left.column, "hash")
    if index is None:
        return None
    matched = [
        table.row(row_id)
        for row_id in index.lookup(condition.right.value)
    ]
    return matched, statement.where[1:]


def _delete(db: "Database", statement: Delete) -> Result:
    table = db.table(statement.table)
    frame = _Frame()
    frame.extend(TableRef.of(statement.table), table.schema)
    checks = [
        _condition_check(frame, condition) for condition in statement.where
    ]
    if not checks:
        removed = len(table)
        table.truncate()
        return Result([], [], removed)
    doomed = [
        row_id for row_id, row in enumerate(table.scan())
        if all(check(row) for check in checks)
    ]
    table.delete_rows(doomed)
    return Result([], [], len(doomed))
