"""Render AST nodes back to SQL text.

The formatter produces a deterministic, single-line rendering which the CQMS
uses for:

* storing a normalized query text in the Query Storage,
* displaying queries and completions in the client,
* round-trip testing of the parser (property-based tests parse, format, and
  re-parse to check the ASTs are identical).
"""

from __future__ import annotations

from repro.sql.ast_nodes import (
    AlterTableStatement,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnDefinition,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExistsSubquery,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    InSubquery,
    InsertStatement,
    Join,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UpdateStatement,
)

#: Operators that need surrounding parentheses decisions; we keep it simple and
#: parenthesize nested boolean operations to preserve semantics exactly.
_BOOLEAN_OPS = {"AND", "OR"}

#: How tightly the parser binds each operator (higher binds tighter); a
#: comparison, LIKE, IN, BETWEEN and IS [NOT] NULL share one left-to-right
#: level.
_LEVELS = {
    "OR": 1, "AND": 2, "NOT": 3,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "LIKE": 4,
    "IS NULL": 4, "IS NOT NULL": 4,
    "+": 5, "-": 5, "||": 5, "*": 6, "/": 6, "%": 6,
}
_COMPARISON_LEVEL = 4


def _level(expr: Expression) -> int:
    """The binding level of ``expr``'s outermost operator (a unary minus or
    an atom binds tightest)."""
    if isinstance(expr, BinaryOp):
        return _LEVELS[expr.op]
    if isinstance(expr, UnaryOp):
        return _LEVELS.get(expr.op, 7)
    if isinstance(expr, (Between, InList, InSubquery)):
        return _COMPARISON_LEVEL
    return 8


def _operand(expr: Expression, level: int) -> str:
    """``expr`` rendered where the parser reads an operand binding at least
    as tightly as ``level``: parenthesized if it binds looser."""
    rendered = format_expression(expr)
    return f"({rendered})" if _level(expr) < level else rendered


def format_statement(statement: Statement) -> str:
    """Return a single-line SQL rendering of ``statement``."""
    if isinstance(statement, SelectStatement):
        return _format_select(statement)
    if isinstance(statement, InsertStatement):
        return _format_insert(statement)
    if isinstance(statement, UpdateStatement):
        return _format_update(statement)
    if isinstance(statement, DeleteStatement):
        return _format_delete(statement)
    if isinstance(statement, CreateTableStatement):
        return _format_create_table(statement)
    if isinstance(statement, DropTableStatement):
        suffix = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {suffix}{statement.table}"
    if isinstance(statement, AlterTableStatement):
        return _format_alter(statement)
    if isinstance(statement, CreateIndexStatement):
        unique = "UNIQUE " if statement.unique else ""
        using = "" if statement.kind == "hash" else f" USING {statement.kind.upper()}"
        return (
            f"CREATE {unique}INDEX {statement.name} "
            f"ON {statement.table} ({statement.column}){using}"
        )
    raise TypeError(f"unsupported statement type: {type(statement).__name__}")


def format_expression(expr: Expression) -> str:
    """Return a SQL rendering of an expression."""
    if isinstance(expr, Literal):
        return str(expr)
    if isinstance(expr, ColumnRef):
        return str(expr)
    if isinstance(expr, Star):
        return str(expr)
    if isinstance(expr, BinaryOp):
        left = _maybe_parenthesize(expr.left, expr.op)
        right = _maybe_parenthesize(expr.right, expr.op, right=True)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return f"NOT ({format_expression(expr.operand)})"
        if expr.op in ("IS NULL", "IS NOT NULL"):
            return f"{_operand(expr.operand, _COMPARISON_LEVEL)} {expr.op}"
        # A nested minus too: ``--`` would open a comment.
        return f"{expr.op}{_operand(expr.operand, 8)}"
    if isinstance(expr, FunctionCall):
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(format_expression(arg) for arg in expr.args)
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, InList):
        values = ", ".join(format_expression(value) for value in expr.values)
        negation = " NOT" if expr.negated else ""
        return f"{_operand(expr.expr, _COMPARISON_LEVEL)}{negation} IN ({values})"
    if isinstance(expr, InSubquery):
        negation = " NOT" if expr.negated else ""
        return (
            f"{_operand(expr.expr, _COMPARISON_LEVEL)}{negation} IN "
            f"({_format_select(expr.subquery)})"
        )
    if isinstance(expr, ExistsSubquery):
        prefix = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{prefix} ({_format_select(expr.subquery)})"
    if isinstance(expr, ScalarSubquery):
        return f"({_format_select(expr.subquery)})"
    if isinstance(expr, Between):
        negation = " NOT" if expr.negated else ""
        return (
            f"{_operand(expr.expr, _COMPARISON_LEVEL)}{negation} BETWEEN "
            f"{_operand(expr.low, _COMPARISON_LEVEL + 1)} AND "
            f"{_operand(expr.high, _COMPARISON_LEVEL + 1)}"
        )
    if isinstance(expr, CaseExpression):
        parts = ["CASE"]
        for condition, value in expr.whens:
            parts.append(
                f"WHEN {format_expression(condition)} THEN {format_expression(value)}"
            )
        if expr.default is not None:
            parts.append(f"ELSE {format_expression(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def _maybe_parenthesize(expr: Expression, parent_op: str, right: bool = False) -> str:
    """An operand of ``parent_op`` rendered so that it parses back as the
    same tree: parenthesized when it binds looser than ``parent_op``, when it
    is the right operand of a non-boolean operator of its own level (the
    parser groups left to right), and when it is a boolean operation under a
    different boolean operator.  A chain of one boolean operator stays flat:
    associativity preserves its meaning."""
    rendered = format_expression(expr)
    if isinstance(expr, BinaryOp) and expr.op in _BOOLEAN_OPS:
        return f"({rendered})" if expr.op != parent_op else rendered
    level, parent = _level(expr), _LEVELS[parent_op]
    if level < parent or (right and level == parent):
        return f"({rendered})"
    return rendered


def _format_select(statement: SelectStatement) -> str:
    parts = ["SELECT"]
    if statement.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_format_select_item(item) for item in statement.select_items))
    if statement.from_items:
        parts.append("FROM")
        parts.append(", ".join(_format_from_item(item) for item in statement.from_items))
    if statement.where is not None:
        parts.append("WHERE")
        parts.append(format_expression(statement.where))
    if statement.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(format_expression(expr) for expr in statement.group_by))
    if statement.having is not None:
        parts.append("HAVING")
        parts.append(format_expression(statement.having))
    if statement.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join(_format_order_item(item) for item in statement.order_by))
    if statement.limit is not None:
        parts.append(f"LIMIT {statement.limit}")
        if statement.offset is not None:
            parts.append(f"OFFSET {statement.offset}")
    return " ".join(parts)


def _format_select_item(item: SelectItem) -> str:
    rendered = format_expression(item.expression)
    if item.alias:
        return f"{rendered} AS {item.alias}"
    return rendered


def _format_from_item(item: FromItem) -> str:
    if isinstance(item, TableRef):
        if item.alias:
            return f"{item.name} {item.alias}"
        return item.name
    if isinstance(item, SubqueryRef):
        return f"({_format_select(item.subquery)}) {item.alias}"
    if isinstance(item, Join):
        left = _format_from_item(item.left)
        right = _format_from_item(item.right)
        keyword = "JOIN" if item.join_type == "INNER" else f"{item.join_type} JOIN"
        if item.condition is None:
            return f"{left} {keyword} {right}"
        return f"{left} {keyword} {right} ON {format_expression(item.condition)}"
    raise TypeError(f"unsupported FROM item: {type(item).__name__}")


def _format_order_item(item: OrderItem) -> str:
    suffix = "" if item.ascending else " DESC"
    return f"{format_expression(item.expression)}{suffix}"


def _format_insert(statement: InsertStatement) -> str:
    columns = ""
    if statement.columns:
        columns = " (" + ", ".join(statement.columns) + ")"
    if statement.select is not None:
        return f"INSERT INTO {statement.table}{columns} {_format_select(statement.select)}"
    rows = ", ".join(
        "(" + ", ".join(format_expression(value) for value in row) + ")"
        for row in statement.rows
    )
    return f"INSERT INTO {statement.table}{columns} VALUES {rows}"


def _format_update(statement: UpdateStatement) -> str:
    assignments = ", ".join(
        f"{column} = {format_expression(value)}" for column, value in statement.assignments
    )
    sql = f"UPDATE {statement.table} SET {assignments}"
    if statement.where is not None:
        sql += f" WHERE {format_expression(statement.where)}"
    return sql


def _format_delete(statement: DeleteStatement) -> str:
    sql = f"DELETE FROM {statement.table}"
    if statement.where is not None:
        sql += f" WHERE {format_expression(statement.where)}"
    return sql


def _format_column_definition(column: ColumnDefinition) -> str:
    parts = [column.name, column.type_name]
    if column.primary_key:
        parts.append("PRIMARY KEY")
    elif column.not_null:
        parts.append("NOT NULL")
    if column.unique and not column.primary_key:
        parts.append("UNIQUE")
    return " ".join(parts)


def _format_create_table(statement: CreateTableStatement) -> str:
    prefix = "CREATE TABLE "
    if statement.if_not_exists:
        prefix += "IF NOT EXISTS "
    columns = ", ".join(_format_column_definition(column) for column in statement.columns)
    return f"{prefix}{statement.table} ({columns})"


def _format_alter(statement: AlterTableStatement) -> str:
    if statement.action == "add_column":
        assert statement.column is not None
        return (
            f"ALTER TABLE {statement.table} ADD COLUMN "
            f"{_format_column_definition(statement.column)}"
        )
    if statement.action == "drop_column":
        return f"ALTER TABLE {statement.table} DROP COLUMN {statement.column_name}"
    if statement.action == "rename_column":
        return (
            f"ALTER TABLE {statement.table} RENAME COLUMN "
            f"{statement.column_name} TO {statement.new_name}"
        )
    if statement.action == "rename_table":
        return f"ALTER TABLE {statement.table} RENAME TO {statement.new_name}"
    raise ValueError(f"unsupported ALTER action: {statement.action}")
