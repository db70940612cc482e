"""The expression compiler: every bound scalar expression becomes one closure.

:func:`compile_expression` turns a bound expression
(:mod:`repro.storage.binder`) into a ``row -> value`` closure once, when the
operator or plan holding it is built, so the plan cache keeps it (closure
generation as in Feeley & Lapalme, "Using Closures for Code Generation",
1987).  A row is a flat tuple laid out by its bindings (:func:`layout_of`):
a bare column is ``itemgetter(slot)``.  The semantics are SQL's
three-valued logic (a comparison with NULL is unknown, None; WHERE keeps
only a definite True), comparisons by
:func:`~repro.storage.types.compare_values`, ``LIKE`` by
:func:`like_regex`, NULL-propagating arithmetic with sqlite's ``%`` (``/``
by zero is NULL), CASE, COALESCE, CAST and ROUND as sqlite rounds.

Literal values are read per call, so re-binding a cached plan's
``ParamLiteral`` nodes never stales a closure.  What an expression reads
besides its row comes from its :class:`Frame`, which the operator running it
fills each time it starts: an enclosing query's column reads the
enclosing-row chain (a :class:`Scope` per level), and a subquery calls back
into the executor with a Scope built for that call.  A shape the compiler
does not know (an unknown function, an aggregate outside its group, ``*``)
raises :class:`~repro.errors.ExecutionError` when compiled, i.e. when its
statement is planned; a value it cannot compute (text in arithmetic, a
failed CAST) raises when computed.
"""

from __future__ import annotations

import operator
import re
from decimal import ROUND_HALF_UP, Decimal, localcontext
from operator import itemgetter
from typing import Callable, NamedTuple

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

#: A compiled expression: ``row -> value`` (None for NULL).
Compiled = Callable[[tuple], object]

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


class Scope(NamedTuple):
    """One query level's row — a tuple whose bindings start where ``layout``
    (:func:`layout_of`) says — chained to the enclosing query's scope.  One
    is built only when a subquery runs: it is the chain that subquery's
    correlated columns read."""

    layout: dict[str, int]
    row: tuple = ()
    parent: "Scope | None" = None


class Frame:
    """What a compiled expression reads besides its row: the enclosing-row
    chain (``outer``, a :class:`Scope` or None) and the executor's
    ``run_subquery`` callback (None: no subquery may run here).  The
    operator or plan that compiled the expression owns the frame and fills
    it from its execution context each time it starts; plans never execute
    concurrently, so one frame serves every execution of a cached plan."""

    __slots__ = ("outer", "run_subquery")

    def __init__(
        self, outer: Scope | None = None, run_subquery: SubqueryRunner | None = None
    ):
        self.outer = outer
        self.run_subquery = run_subquery

    def enter(self, ctx) -> None:
        """Read the chain and the callback of ``ctx``, an
        :class:`~repro.storage.operators.ExecutionContext`."""
        self.outer = ctx.outer_scope
        self.run_subquery = ctx.run_subquery


def compile_expression(
    expr: Expression,
    bindings: list[tuple[str, list[str]]],
    frame: Frame | None = None,
    aggregates: dict[int, int] | None = None,
) -> Compiled:
    """``expr`` as a ``row -> value`` closure over rows laid out by
    ``bindings``.  ``frame`` supplies the enclosing rows and the subquery
    callback (by default: none).  ``aggregates`` maps ``id(aggregate call)``
    to the position of its finished value in the row, for the expressions
    read over a group: an aggregate call not in it raises."""
    return _Compiler(bindings, frame or Frame(), aggregates or {}).compile(expr)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


#: Python types whose native comparison is compare_values' (kind 0 against
#: kind 0, 1 against 1); ``bool`` is left out, compare_values compares it by
#: truthiness.
_NATIVE_KIND = {int: 0, float: 0, str: 1}

#: The types arithmetic accepts (``bool`` among them, as an int).
_NUMBERS = frozenset({int, float, bool})

#: Per comparison operator, its test of two values; of an ordering and 0,
#: the same test of ``compare_values``' answer.
NATIVE_TESTS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The NULL-propagating binary operators; all but ``||`` take numbers only.
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda left, right: None if right == 0 else left / right,
    "%": lambda left, right: _modulo(left, right),
    "||": lambda left, right: as_text(left) + as_text(right),
}

_SCALAR_FUNCTIONS = {
    "LOWER": lambda value: as_text(value).lower(),
    "UPPER": lambda value: as_text(value).upper(),
    "LENGTH": lambda value: len(as_text(value)),
    "ABS": abs,
}


class _Compiler:
    """Compiles the expressions of one operator or plan: its ``bindings``,
    ``frame`` and ``aggregates`` (see :func:`compile_expression`)."""

    def __init__(self, bindings, frame: Frame, aggregates: dict[int, int]):
        self.layout = layout_of(bindings)
        self.frame = frame
        self.aggregates = aggregates

    def compile(self, expr: Expression) -> Compiled:
        if isinstance(expr, Literal):
            return lambda row: expr.value
        if isinstance(expr, ColumnRef):
            return self._column(expr)
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only allowed in the select list or COUNT(*)")
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        if isinstance(expr, UnaryOp):
            return self._unary(expr)
        if isinstance(expr, FunctionCall):
            return self._function(expr)
        if isinstance(expr, InList):
            return _in_list(self.compile(expr.expr), self._all(expr.values), expr.negated)
        if isinstance(expr, InSubquery):
            return _in_subquery(
                self.compile(expr.expr), self._subquery(expr.subquery), expr.negated
            )
        if isinstance(expr, ExistsSubquery):
            rows, negated = self._subquery(expr.subquery), expr.negated
            return lambda row: (not rows(row)) if negated else bool(rows(row))
        if isinstance(expr, ScalarSubquery):
            rows = self._subquery(expr.subquery)
            return lambda row: found[0][0] if (found := rows(row)) else None
        if isinstance(expr, Between):
            return _between(*self._all((expr.expr, expr.low, expr.high)), expr.negated)
        if isinstance(expr, CaseExpression):
            whens = [(self.compile(test), self.compile(value)) for test, value in expr.whens]
            default = None if expr.default is None else self.compile(expr.default)
            return _case(whens, default)
        raise ExecutionError(f"unsupported expression type {type(expr).__name__}")

    def _all(self, exprs) -> list[Compiled]:
        return [self.compile(expr) for expr in exprs]

    def _column(self, column: ColumnRef) -> Compiled:
        depth = getattr(column, "depth", 0)
        if depth:
            frame, hops, binding, index = self.frame, depth - 1, column.binding, column.index

            def outer(row):
                scope = frame.outer
                for _ in range(hops):
                    scope = scope.parent
                return scope.row[scope.layout[binding] + index]

            return outer
        slot = self.layout.get(getattr(column, "binding", None))
        if slot is None:
            raise ExecutionError(f"column {column} is not in its operator's input")
        return itemgetter(slot + column.index)

    def _subquery(self, subquery: SelectStatement) -> Compiled:
        """``row -> the subquery's result rows``, run with the row in scope."""
        frame, layout = self.frame, self.layout

        def rows(row):
            if frame.run_subquery is None:
                raise ExecutionError("subqueries are not supported in this context")
            return frame.run_subquery(subquery, Scope(layout, row, frame.outer))

        return rows

    def _binary(self, expr: BinaryOp) -> Compiled:
        op = expr.op
        left, right = self.compile(expr.left), self.compile(expr.right)
        if op in ("AND", "OR"):
            return _connective(left, right, op == "OR")
        if op in NATIVE_TESTS:
            return _comparison(op, left, right)
        if op in _ARITHMETIC:
            return _arithmetic(op, left, right)
        if op == "LIKE":
            return _like(left, right)
        raise ExecutionError(f"unsupported binary operator {op!r}")

    def _unary(self, expr: UnaryOp) -> Compiled:
        op, operand = expr.op, self.compile(expr.operand)
        if op == "NOT":
            return lambda row: None if (value := operand(row)) is None else not value
        if op == "-":
            return _negate(operand)
        if op == "IS NULL":
            return lambda row: operand(row) is None
        if op == "IS NOT NULL":
            return lambda row: operand(row) is not None
        raise ExecutionError(f"unsupported unary operator {op!r}")

    def _function(self, expr: FunctionCall) -> Compiled:
        name = expr.name.upper()
        if name == "CAST":
            value = self.compile(expr.args[0])
            target = self.compile(expr.args[1]) if len(expr.args) > 1 else lambda row: "TEXT"
            return lambda row: _cast(value(row), str(target(row)))
        if expr.is_aggregate:
            position = self.aggregates.get(id(expr))
            if position is None:
                raise ExecutionError(
                    f"aggregate {name} used outside of an aggregation context"
                )
            return itemgetter(position)
        args = self._all(expr.args)
        if name == "COALESCE":
            return _coalesce(args)
        if name == "ROUND" and len(args) in (1, 2):
            return _round(*args)
        function = _SCALAR_FUNCTIONS.get(name)
        if function is None and name != "ROUND":
            raise ExecutionError(f"unknown function {name!r}")
        if len(args) != 1:
            raise ExecutionError(f"function {name} expects exactly one argument")
        (arg,) = args
        return lambda row: None if (value := arg(row)) is None else function(value)


# ---------------------------------------------------------------------------
# Closure builders
# ---------------------------------------------------------------------------


def _connective(left: Compiled, right: Compiled, decisive: bool) -> Compiled:
    """AND (``decisive`` False) or OR (True) in three-valued logic: an
    operand that is ``decisive`` decides (a deciding left operand leaves the
    right one unevaluated); otherwise a NULL operand makes it unknown."""
    combine = any if decisive else all

    def connective(row):
        first = left(row)
        if first is decisive:
            return decisive
        second = right(row)
        if second is decisive:
            return decisive
        if first is None or second is None:
            return None
        return combine((first, second))

    return connective


def _comparison(op: str, left: Compiled, right: Compiled) -> Compiled:
    test, kind = NATIVE_TESTS[op], _NATIVE_KIND.get

    def compare(row):
        first, second = left(row), right(row)
        if first is None or second is None:
            return None
        if (ours := kind(type(first))) is not None and ours == kind(type(second)):
            return test(first, second)
        return test(compare_values(first, second), 0)

    return compare


def _arithmetic(op: str, left: Compiled, right: Compiled) -> Compiled:
    apply, numeric = _ARITHMETIC[op], op != "||"

    def arithmetic(row):
        first, second = left(row), right(row)
        if first is None or second is None:
            return None
        if numeric and (type(first) not in _NUMBERS or type(second) not in _NUMBERS):
            raise ExecutionError(
                f"arithmetic {op!r} requires numeric operands, got "
                f"{type(first).__name__} and {type(second).__name__}"
            )
        return apply(first, second)

    return arithmetic


def _negate(operand: Compiled) -> Compiled:
    def negate(row):
        value = operand(row)
        if value is None:
            return None
        if type(value) not in _NUMBERS:
            raise ExecutionError("unary minus requires a numeric operand")
        return -value

    return negate


def _like(left: Compiled, right: Compiled) -> Compiled:
    cache: dict = {}

    def like(row):
        value, pattern = left(row), right(row)
        if value is None or pattern is None:
            return None
        regex = cache.get(pattern)
        if regex is None:
            if len(cache) > 64:  # a pattern per row: keep the cache small
                cache.clear()
            regex = cache[pattern] = like_regex(as_text(pattern))
        return regex.fullmatch(as_text(value)) is not None

    return like


def _in_list(value: Compiled, candidates: list[Compiled], negated: bool) -> Compiled:
    def in_list(row):
        probe = value(row)
        if probe is None:
            return None
        saw_null = False
        for candidate in candidates:
            member = candidate(row)
            if member is None:
                saw_null = True
            elif compare_values(probe, member) == 0:
                return not negated
        return None if saw_null else negated

    return in_list


def _in_subquery(value: Compiled, rows: Compiled, negated: bool) -> Compiled:
    def in_subquery(row):
        probe = value(row)
        if probe is None:
            return None
        found = any(
            result and compare_values(probe, result[0]) == 0 for result in rows(row)
        )
        return (not found) if negated else found

    return in_subquery


def _between(value: Compiled, low: Compiled, high: Compiled, negated: bool) -> Compiled:
    """``value >= low AND value <= high`` in three-valued logic: one false
    side makes it false even when the other is unknown."""

    def between(row):
        probe = value(row)
        low_cmp = compare_values(probe, low(row))
        high_cmp = compare_values(probe, high(row))
        if (low_cmp is not None and low_cmp < 0) or (high_cmp is not None and high_cmp > 0):
            return negated
        if low_cmp is None or high_cmp is None:
            return None
        return not negated

    return between


def _case(whens: list[tuple[Compiled, Compiled]], default: Compiled | None) -> Compiled:
    def case(row):
        for test, value in whens:
            if test(row) is True:
                return value(row)
        return None if default is None else default(row)

    return case


def _coalesce(args: list[Compiled]) -> Compiled:
    def coalesce(row):
        for arg in args:
            value = arg(row)
            if value is not None:
                return value
        return None

    return coalesce


def _round(value: Compiled, digits: Compiled = lambda row: 0) -> Compiled:
    """ROUND as sqlite rounds: half away from zero, to a REAL; to 0 places it
    adds ±0.5 and truncates, to more it reads the number to 15 significant
    digits (``ROUND(2.675, 2)`` is 2.68 although the double lies below the
    half); past 2**52 a number has no fraction."""

    def rounded(row):
        number, places = value(row), digits(row)
        if number is None or places is None:
            return None
        if type(number) not in _NUMBERS:
            raise ExecutionError("ROUND requires a numeric argument")
        if not abs(number) < 4503599627370496.0:  # also inf and NaN
            return float(number)
        places = min(max(int(places), 0), 30)
        if places == 0:  # as sqlite: exact below 2**52
            return float(int(number + (-0.5 if number < 0 else 0.5)))
        with localcontext() as context:
            context.prec = 60
            quantum = Decimal(1).scaleb(-places)
            decimal = Decimal(f"{number:.15g}").quantize(quantum, rounding=ROUND_HALF_UP)
        return float(decimal)

    return rounded


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


def like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex implementing ``LIKE pattern`` (``%``/``_`` wildcards)."""
    regex = ""
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    return re.compile(regex, flags=re.IGNORECASE)


def _cast(value: object, target: str) -> object:
    if value is None:
        return None
    target = target.upper()
    try:
        if target in ("INTEGER", "INT", "BIGINT"):
            # An int (and text spelling one) converts exactly; a float
            # truncates toward zero.
            if isinstance(value, str):
                try:
                    return int(value)
                except ValueError:
                    return int(float(value))
            return int(value)
        if target in ("FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL"):
            return float(value)
        if target in ("TEXT", "VARCHAR", "CHAR", "STRING"):
            return as_text(value)
        if target in ("BOOLEAN", "BOOL"):
            if isinstance(value, str):
                return value.lower() == "true"
            return bool(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ExecutionError(f"cannot CAST {value!r} to {target}") from exc
    raise ExecutionError(f"unsupported CAST target {target!r}")
