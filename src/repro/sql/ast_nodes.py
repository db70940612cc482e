"""Typed AST node classes for the CQMS SQL dialect.

The AST is the common currency of the SQL substrate: the parser produces it,
the storage engine executes it, the feature extractor shreds it, the
canonicalizer and differ normalise and compare it, and the parse-tree view
exposes it for query-by-parse-tree meta-queries.

All nodes are plain dataclasses so they are cheap to construct, easy to test,
and structural equality works out of the box.

Which fields of a node hold child nodes is written down once, in
:data:`CHILD_FIELDS`; every pure traversal of the AST goes through the two
functions that read it, :func:`walk` (pre-order) and :func:`rebuild`
(identity-preserving copy with a function applied to each child).
"""

from __future__ import annotations

from dataclasses import dataclass
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

    join_type: str  # "INNER", "LEFT", "RIGHT", "FULL", "CROSS"
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
# Traversal: which fields hold child nodes, one pre-order walk, one rebuild
# ---------------------------------------------------------------------------


#: The one place the AST's shape is written down: for each node class, the
#: fields that hold child nodes, in field order.  A child field holds a node,
#: None, or a tuple of them, nested tuples included (CASE's ``(condition,
#: value)`` pairs, INSERT's rows, UPDATE's ``(column, value)`` assignments,
#: whose column names are skipped).  :func:`walk`, :func:`rebuild` and
#: everything built on them read it.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Literal: (),
    ColumnRef: (),
    Star: (),
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    FunctionCall: ("args",),
    InList: ("expr", "values"),
    InSubquery: ("expr", "subquery"),
    ExistsSubquery: ("subquery",),
    ScalarSubquery: ("subquery",),
    Between: ("expr", "low", "high"),
    CaseExpression: ("whens", "default"),
    SelectItem: ("expression",),
    TableRef: (),
    SubqueryRef: ("subquery",),
    Join: ("left", "right", "condition"),
    OrderItem: ("expression",),
    SelectStatement: (
        "select_items", "from_items", "where", "group_by", "having", "order_by",
    ),
    InsertStatement: ("rows", "select"),
    UpdateStatement: ("assignments", "where"),
    DeleteStatement: ("where",),
    ColumnDefinition: (),
    CreateTableStatement: ("columns",),
    DropTableStatement: (),
    AlterTableStatement: ("column",),
    CreateIndexStatement: (),
}


def child_fields(cls: type) -> tuple[str, ...]:
    """``CHILD_FIELDS[cls]``.  A subclass of a node class defined elsewhere
    (the binder's ``BoundColumn``, the plan cache's ``ParamLiteral``) has its
    base's child fields and is entered on first sight; any other class is
    not a node."""
    try:
        return CHILD_FIELDS[cls]
    except KeyError:
        for base in cls.__mro__[1:]:
            if base in CHILD_FIELDS:
                CHILD_FIELDS[cls] = CHILD_FIELDS[base]
                return CHILD_FIELDS[cls]
        raise TypeError(f"not an AST node: {cls.__name__}") from None


def _push_reversed(values: tuple, push) -> None:
    for value in reversed(values):
        if type(value) is tuple:
            _push_reversed(value, push)
        elif value is not None and type(value) is not str:
            push(value)


def walk(node, subqueries: bool = True):
    """Yield ``node`` and every node under it: pre-order, children in field order.

    With ``subqueries=False`` a :class:`SelectStatement` below ``node`` (an
    IN / EXISTS / scalar subquery or a derived table) is neither yielded nor
    entered; the node holding it is.
    """
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        yield node
        try:
            names = CHILD_FIELDS[type(node)]
        except KeyError:
            names = child_fields(type(node))
        for name in reversed(names):
            value = getattr(node, name)
            if type(value) is tuple:
                _push_reversed(value, push)
            elif value is not None and (subqueries or type(value) is not SelectStatement):
                push(value)


def iter_expressions(expr: Expression):
    """Yield ``expr`` and every sub-expression, pre-order, not entering subqueries."""
    return walk(expr, subqueries=False)


def iter_subqueries(expr: Expression):
    """Yield every :class:`SelectStatement` nested inside ``expr``."""
    for node in iter_expressions(expr):
        if isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
            yield node.subquery


def contains_aggregate(expr: Expression) -> bool:
    """Return True when ``expr`` contains an aggregate function call."""
    return any(
        isinstance(node, FunctionCall) and node.is_aggregate
        for node in iter_expressions(expr)
    )


def from_bindings(from_items) -> dict[str, str]:
    """Each lower-cased binding of a FROM clause (alias, else table name) →
    its lower-cased base table (a derived table's alias → itself).

    A subquery sees its enclosing queries' bindings too: its map is
    ``{**enclosing, **from_bindings(...)}``, so a correlated reference
    resolves to the outer table and a local binding shadows an outer one.
    """
    bindings: dict[str, str] = {}
    for item in from_items:
        for node in walk(item, subqueries=False):
            if isinstance(node, TableRef):
                bindings[node.binding.lower()] = node.name.lower()
            elif isinstance(node, SubqueryRef):
                bindings[node.alias.lower()] = node.alias.lower()
    return bindings


def mapped(value, fn):
    """``fn`` applied to each node a child field's ``value`` holds.

    ``value`` is a node, None, a string, or a (nested) tuple of them; None
    and strings are kept.  The result is ``value`` itself when ``fn`` returns
    every node unchanged, so an untouched subtree keeps its identity.
    """
    if type(value) is tuple:
        new = [mapped(item, fn) for item in value]
        for old, item in zip(value, new):
            if old is not item:
                return tuple(new)
        return value
    if value is None or type(value) is str:
        return value
    return fn(value)


def replaced(node, **changes):
    """``node`` with the given fields changed, or ``node`` itself when every
    new value is the old one."""
    for name, value in changes.items():
        if getattr(node, name) is not value:
            return _copy(node, changes)
    return node


def rebuild(node, fn):
    """``node`` with ``fn`` applied to every child node (see :func:`mapped`).

    ``fn`` decides whether to descend; :func:`rebuild` goes one level.  A node
    none of whose children changed is returned itself.
    """
    try:
        names = CHILD_FIELDS[type(node)]
    except KeyError:
        names = child_fields(type(node))
    changes = None
    for name in names:
        old = getattr(node, name)
        if old is None:
            continue
        new = mapped(old, fn) if type(old) is tuple else fn(old)
        if new is not old:
            if changes is None:
                changes = {}
            changes[name] = new
    return node if changes is None else _copy(node, changes)


def _copy(node, changes: dict):
    return type(node)(
        *[
            changes[name] if name in changes else getattr(node, name)
            for name in node.__dataclass_fields__
        ]
    )


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
