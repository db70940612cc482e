"""Typed AST node classes for the CQMS SQL dialect.

The AST is the common currency of the SQL substrate: the parser produces it,
the storage engine executes it, the feature extractor shreds it, the
canonicalizer and differ normalise and compare it, and the parse-tree view
exposes it for query-by-parse-tree meta-queries.

All nodes are plain dataclasses so they are cheap to construct, easy to test,
and structural equality works out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """A constant value: number, string, boolean, or NULL (``value is None``)."""

    value: object

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly qualified) column reference such as ``S.temp`` or ``temp``."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a select list or in ``COUNT(*)``."""

    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp:
    """A binary operation: comparisons, arithmetic, AND/OR, LIKE, string concat."""

    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class UnaryOp:
    """A unary operation: NOT, unary minus, IS NULL / IS NOT NULL."""

    op: str
    operand: "Expression"


@dataclass(frozen=True)
class FunctionCall:
    """A function call, including aggregates (COUNT, SUM, AVG, MIN, MAX)."""

    name: str
    args: tuple["Expression", ...] = ()
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass(frozen=True)
class InList:
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: "Expression"
    values: tuple["Expression", ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery:
    """``expr [NOT] IN (SELECT ...)``."""

    expr: "Expression"
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class ExistsSubquery:
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery:
    """A subquery used as a scalar expression, e.g. ``x > (SELECT MAX(...) ...)``."""

    subquery: "SelectStatement"


@dataclass(frozen=True)
class Between:
    """``expr [NOT] BETWEEN low AND high``."""

    expr: "Expression"
    low: "Expression"
    high: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class CaseExpression:
    """``CASE [WHEN cond THEN value]... [ELSE value] END``."""

    whens: tuple[tuple["Expression", "Expression"], ...]
    default: "Expression | None" = None


Expression = Union[
    Literal,
    ColumnRef,
    Star,
    BinaryOp,
    UnaryOp,
    FunctionCall,
    InList,
    InSubquery,
    ExistsSubquery,
    ScalarSubquery,
    Between,
    CaseExpression,
]


# ---------------------------------------------------------------------------
# SELECT statement parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry in the select list: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A base table in the FROM clause, optionally aliased."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name under which columns of this table may be qualified."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef:
    """A derived table ``(SELECT ...) alias`` in the FROM clause."""

    subquery: "SelectStatement"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join:
    """An explicit join between a left FROM item and a right table."""

    join_type: str  # "INNER", "LEFT", "RIGHT", "CROSS"
    left: "FromItem"
    right: "FromItem"
    condition: Expression | None = None


FromItem = Union[TableRef, SubqueryRef, Join]


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    """A full SELECT statement."""

    select_items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# DML / DDL statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table [(cols)] VALUES (...), (...)`` or ``INSERT ... SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expression, ...], ...] = ()
    select: SelectStatement | None = None


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET col = expr [, ...] [WHERE expr]``."""

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Expression | None = None


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table [WHERE expr]``."""

    table: str
    where: Expression | None = None


@dataclass(frozen=True)
class ColumnDefinition:
    """A column definition in CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False


@dataclass(frozen=True)
class CreateTableStatement:
    """``CREATE TABLE name (col type [constraints], ...)``."""

    table: str
    columns: tuple[ColumnDefinition, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTableStatement:
    """``DROP TABLE [IF EXISTS] name``."""

    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class AlterTableStatement:
    """``ALTER TABLE name <action>``.

    ``action`` is one of ``add_column``, ``drop_column``, ``rename_column``,
    ``rename_table``; the relevant payload fields are set accordingly.
    """

    table: str
    action: str
    column: ColumnDefinition | None = None
    column_name: str | None = None
    new_name: str | None = None


@dataclass(frozen=True)
class CreateIndexStatement:
    """``CREATE [UNIQUE] INDEX name ON table (col) [USING kind]``."""

    name: str
    table: str
    column: str
    unique: bool = False
    kind: str = "hash"


Statement = Union[
    SelectStatement,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    CreateTableStatement,
    DropTableStatement,
    AlterTableStatement,
    CreateIndexStatement,
]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def iter_expressions(expr: Expression):
    """Yield ``expr`` and every sub-expression, depth first."""
    yield expr
    if isinstance(expr, BinaryOp):
        yield from iter_expressions(expr.left)
        yield from iter_expressions(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from iter_expressions(expr.operand)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from iter_expressions(arg)
    elif isinstance(expr, InList):
        yield from iter_expressions(expr.expr)
        for value in expr.values:
            yield from iter_expressions(value)
    elif isinstance(expr, InSubquery):
        yield from iter_expressions(expr.expr)
    elif isinstance(expr, Between):
        yield from iter_expressions(expr.expr)
        yield from iter_expressions(expr.low)
        yield from iter_expressions(expr.high)
    elif isinstance(expr, CaseExpression):
        for condition, value in expr.whens:
            yield from iter_expressions(condition)
            yield from iter_expressions(value)
        if expr.default is not None:
            yield from iter_expressions(expr.default)


def iter_subqueries(expr: Expression):
    """Yield every :class:`SelectStatement` nested inside ``expr``."""
    for node in iter_expressions(expr):
        if isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
            yield node.subquery


def iter_from_tables(from_items: tuple[FromItem, ...]):
    """Yield every :class:`TableRef` reachable from the given FROM items."""
    for item in from_items:
        yield from _iter_from_item_tables(item)


def _iter_from_item_tables(item: FromItem):
    if isinstance(item, TableRef):
        yield item
    elif isinstance(item, SubqueryRef):
        yield from iter_from_tables(item.subquery.from_items)
    elif isinstance(item, Join):
        yield from _iter_from_item_tables(item.left)
        yield from _iter_from_item_tables(item.right)


def contains_aggregate(expr: Expression) -> bool:
    """Return True when ``expr`` contains an aggregate function call."""
    return any(
        isinstance(node, FunctionCall) and node.is_aggregate
        for node in iter_expressions(expr)
    )


def select_statement_tables(statement: SelectStatement) -> list[TableRef]:
    """Return every base table referenced by ``statement`` including subqueries."""
    tables = list(iter_from_tables(statement.from_items))
    expressions: list[Expression] = [item.expression for item in statement.select_items]
    if statement.where is not None:
        expressions.append(statement.where)
    if statement.having is not None:
        expressions.append(statement.having)
    expressions.extend(statement.group_by)
    expressions.extend(item.expression for item in statement.order_by)
    for expr in expressions:
        for subquery in iter_subqueries(expr):
            tables.extend(select_statement_tables(subquery))
    for item in statement.from_items:
        for table in _iter_subquery_refs(item):
            tables.extend(select_statement_tables(table.subquery))
    return tables


def _iter_subquery_refs(item: FromItem):
    if isinstance(item, SubqueryRef):
        yield item
    elif isinstance(item, Join):
        yield from _iter_subquery_refs(item.left)
        yield from _iter_subquery_refs(item.right)


def statement_type(statement: Statement) -> str:
    """Return a short lower-case tag for the statement kind (``select`` etc.)."""
    mapping = {
        SelectStatement: "select",
        InsertStatement: "insert",
        UpdateStatement: "update",
        DeleteStatement: "delete",
        CreateTableStatement: "create_table",
        DropTableStatement: "drop_table",
        AlterTableStatement: "alter_table",
        CreateIndexStatement: "create_index",
    }
    return mapping[type(statement)]
