"""Expression evaluation against row scopes.

The evaluator implements a pragmatic subset of SQL semantics:

* three-valued logic for comparisons involving NULL (comparisons with NULL
  are *unknown*; ``WHERE`` treats unknown as false),
* ``LIKE`` with ``%`` and ``_`` wildcards,
* arithmetic with NULL propagation,
* correlated subqueries through chained scopes.

It evaluates *bound* expressions (:mod:`repro.storage.binder`): a column
reference already says which query level, binding and column it reads, so
resolving one is a position lookup, never a name match.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.errors import ExecutionError
from repro.storage.types import as_text, compare_values
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    Literal,
    ScalarSubquery,
    SelectStatement,
    Star,
    UnaryOp,
)

#: Type of the callback used to run nested subqueries.  It receives the
#: subquery and the enclosing scope (for correlated references) and returns a
#: list of result tuples.
SubqueryRunner = Callable[[SelectStatement, "Scope"], list[tuple]]


def layout_of(bindings: list[tuple[str, list[str]]]) -> dict[str, int]:
    """``binding -> its first position`` in a row laid out by ``bindings``:
    the layout rule — a row is its operator's bindings flattened in order."""
    layout, start = {}, 0
    for binding, columns in bindings:
        layout[binding] = start
        start += len(columns)
    return layout


def slot_of(bindings: list[tuple[str, list[str]]], column: ColumnRef) -> int | None:
    """The position a bound column reference reads in a row laid out by
    ``bindings``; None for an enclosing query's column (or a binding this
    layout lacks, which the plan verifier reports)."""
    start = None if column.depth else layout_of(bindings).get(column.binding)
    return None if start is None else start + column.index


class Scope:
    """One query level's row — a tuple whose bindings start where ``layout``
    (:func:`layout_of`) says — chained to the enclosing query's scope."""

    __slots__ = ("layout", "row", "parent")

    def __init__(
        self, layout: dict[str, int], row: tuple = (), parent: "Scope | None" = None
    ):
        self.layout = layout
        self.row = row
        self.parent = parent

    def resolve(self, column: ColumnRef) -> object:
        """The value of a bound column reference
        (:class:`~repro.storage.binder.BoundColumn`)."""
        scope = self
        for _ in range(column.depth):
            scope = scope.parent
        return scope.row[scope.layout[column.binding] + column.index]


def evaluate(
    expr: Expression, scope: Scope, run_subquery: SubqueryRunner | None = None
) -> object:
    """Evaluate ``expr`` in ``scope``; returns a Python value or None (NULL)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return scope.resolve(expr)
    if isinstance(expr, Star):
        raise ExecutionError("'*' is only allowed in the select list or COUNT(*)")
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, scope, run_subquery)
    if isinstance(expr, UnaryOp):
        return _evaluate_unary(expr, scope, run_subquery)
    if isinstance(expr, FunctionCall):
        return _evaluate_function(expr, scope, run_subquery)
    if isinstance(expr, InList):
        return _evaluate_in_list(expr, scope, run_subquery)
    if isinstance(expr, InSubquery):
        return _evaluate_in_subquery(expr, scope, run_subquery)
    if isinstance(expr, ExistsSubquery):
        rows = _run_subquery(expr.subquery, scope, run_subquery)
        result = bool(rows)
        return (not result) if expr.negated else result
    if isinstance(expr, ScalarSubquery):
        rows = _run_subquery(expr.subquery, scope, run_subquery)
        if not rows:
            return None
        return rows[0][0]
    if isinstance(expr, Between):
        value = evaluate(expr.expr, scope, run_subquery)
        low = evaluate(expr.low, scope, run_subquery)
        high = evaluate(expr.high, scope, run_subquery)
        low_cmp = compare_values(value, low)
        high_cmp = compare_values(value, high)
        if low_cmp is None or high_cmp is None:
            return None
        inside = low_cmp >= 0 and high_cmp <= 0
        return (not inside) if expr.negated else inside
    if isinstance(expr, CaseExpression):
        for condition, value in expr.whens:
            if is_true(evaluate(condition, scope, run_subquery)):
                return evaluate(value, scope, run_subquery)
        if expr.default is not None:
            return evaluate(expr.default, scope, run_subquery)
        return None
    raise ExecutionError(f"unsupported expression type {type(expr).__name__}")


def is_true(value: object) -> bool:
    """SQL WHERE semantics: only a definite True passes (NULL/unknown fails)."""
    return value is True


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------


def _evaluate_binary(expr: BinaryOp, scope: Scope, run_subquery) -> object:
    if expr.op == "AND":
        left = evaluate(expr.left, scope, run_subquery)
        if left is False:
            return False
        right = evaluate(expr.right, scope, run_subquery)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return bool(left) and bool(right)
    if expr.op == "OR":
        left = evaluate(expr.left, scope, run_subquery)
        if left is True:
            return True
        right = evaluate(expr.right, scope, run_subquery)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)

    left = evaluate(expr.left, scope, run_subquery)
    right = evaluate(expr.right, scope, run_subquery)
    if expr.op in ("=", "<>", "<", "<=", ">", ">="):
        comparison = compare_values(left, right)
        if comparison is None:
            return None
        return {
            "=": comparison == 0,
            "<>": comparison != 0,
            "<": comparison < 0,
            "<=": comparison <= 0,
            ">": comparison > 0,
            ">=": comparison >= 0,
        }[expr.op]
    if expr.op == "LIKE":
        if left is None or right is None:
            return None
        return _like(as_text(left), as_text(right))
    if expr.op == "||":
        if left is None or right is None:
            return None
        return as_text(left) + as_text(right)
    if expr.op in ("+", "-", "*", "/", "%"):
        if left is None or right is None:
            return None
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise ExecutionError(
                f"arithmetic {expr.op!r} requires numeric operands, got "
                f"{type(left).__name__} and {type(right).__name__}"
            )
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                return None
            result = left / right
            return result
        return _modulo(left, right)
    raise ExecutionError(f"unsupported binary operator {expr.op!r}")


#: The 64-bit integer range sqlite truncates a ``%`` operand into.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _modulo(left, right):
    """``left % right`` as sqlite computes it: both operands truncated toward
    zero to 64-bit integers, the remainder with the dividend's sign, REAL when
    either operand is REAL, and NULL when the truncated divisor is 0."""
    dividend, divisor = _int64(left), _int64(right)
    if dividend is None or not divisor:
        return None
    remainder = abs(dividend) % abs(divisor)
    if dividend < 0:
        remainder = -remainder
    return float(remainder) if isinstance(left, float) or isinstance(right, float) else remainder


def _int64(value) -> int | None:
    """A ``%`` operand truncated toward zero, saturating at the 64-bit bounds
    (NaN, which sqlite stores as NULL, reads as None)."""
    if isinstance(value, float):
        if value != value:
            return None
        value = max(-1e19, min(1e19, value))  # inside int()'s range, past int64's
    return max(_INT64_MIN, min(_INT64_MAX, int(value)))


def _evaluate_unary(expr: UnaryOp, scope: Scope, run_subquery) -> object:
    if expr.op == "NOT":
        value = evaluate(expr.operand, scope, run_subquery)
        if value is None:
            return None
        return not bool(value)
    if expr.op == "-":
        value = evaluate(expr.operand, scope, run_subquery)
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise ExecutionError("unary minus requires a numeric operand")
        return -value
    if expr.op == "IS NULL":
        return evaluate(expr.operand, scope, run_subquery) is None
    if expr.op == "IS NOT NULL":
        return evaluate(expr.operand, scope, run_subquery) is not None
    raise ExecutionError(f"unsupported unary operator {expr.op!r}")


def _evaluate_function(expr: FunctionCall, scope: Scope, run_subquery) -> object:
    name = expr.name.upper()
    if name == "CAST":
        value = evaluate(expr.args[0], scope, run_subquery)
        target = expr.args[1].value if len(expr.args) > 1 else "TEXT"
        return _cast(value, str(target))
    if expr.is_aggregate:
        raise ExecutionError(
            f"aggregate {name} used outside of an aggregation context"
        )
    scalar_functions = {
        "LOWER": lambda v: None if v is None else as_text(v).lower(),
        "UPPER": lambda v: None if v is None else as_text(v).upper(),
        "LENGTH": lambda v: None if v is None else len(as_text(v)),
        "ABS": lambda v: None if v is None else abs(v),
        "ROUND": lambda v: None if v is None else round(v),
        "COALESCE": None,
    }
    if name == "COALESCE":
        for arg in expr.args:
            value = evaluate(arg, scope, run_subquery)
            if value is not None:
                return value
        return None
    if name == "ROUND" and len(expr.args) == 2:
        value = evaluate(expr.args[0], scope, run_subquery)
        digits = evaluate(expr.args[1], scope, run_subquery)
        if value is None or digits is None:
            return None
        return round(value, int(digits))
    handler = scalar_functions.get(name)
    if handler is None:
        raise ExecutionError(f"unknown function {name!r}")
    if len(expr.args) != 1:
        raise ExecutionError(f"function {name} expects exactly one argument")
    return handler(evaluate(expr.args[0], scope, run_subquery))


def _evaluate_in_list(expr: InList, scope: Scope, run_subquery) -> object:
    value = evaluate(expr.expr, scope, run_subquery)
    if value is None:
        return None
    found = False
    saw_null = False
    for candidate in expr.values:
        candidate_value = evaluate(candidate, scope, run_subquery)
        if candidate_value is None:
            saw_null = True
            continue
        if compare_values(value, candidate_value) == 0:
            found = True
            break
    if not found and saw_null:
        return None
    return (not found) if expr.negated else found


def _evaluate_in_subquery(expr: InSubquery, scope: Scope, run_subquery) -> object:
    value = evaluate(expr.expr, scope, run_subquery)
    if value is None:
        return None
    rows = _run_subquery(expr.subquery, scope, run_subquery)
    found = any(row and compare_values(value, row[0]) == 0 for row in rows)
    return (not found) if expr.negated else found


def _run_subquery(subquery: SelectStatement, scope: Scope, run_subquery) -> list[tuple]:
    if run_subquery is None:
        raise ExecutionError("subqueries are not supported in this context")
    return run_subquery(subquery, scope)


def like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex implementing ``LIKE pattern`` (``%``/``_`` wildcards).

    Shared with the LIKE kernel so both evaluation routes apply
    byte-identical LIKE semantics.
    """
    regex = ""
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    return re.compile(regex, flags=re.IGNORECASE)


def _like(value: str, pattern: str) -> bool:
    return like_regex(pattern).fullmatch(value) is not None


def _cast(value: object, target: str) -> object:
    if value is None:
        return None
    target = target.upper()
    try:
        if target in ("INTEGER", "INT", "BIGINT"):
            return int(float(value)) if not isinstance(value, str) else int(float(value))
        if target in ("FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL"):
            return float(value)
        if target in ("TEXT", "VARCHAR", "CHAR", "STRING"):
            return as_text(value)
        if target in ("BOOLEAN", "BOOL"):
            if isinstance(value, str):
                return value.lower() == "true"
            return bool(value)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"cannot CAST {value!r} to {target}") from exc
    raise ExecutionError(f"unsupported CAST target {target!r}")
