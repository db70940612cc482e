"""Predicate kernels: typed selection-vector loops over row batches.

The engine's one compiled form of a WHERE conjunct.  This module compiles
the simple predicate shapes — column-vs-literal comparisons, BETWEEN, IN,
LIKE, IS [NOT] NULL, column-vs-column — into **kernels**: functions of
``(columns, selection) -> selection`` that test one column of a row batch
in one tight loop and return the surviving row positions.  Each column's
declared type is read from the binder's answer
(:class:`~repro.storage.binder.BoundColumn` ``data_type``) when the kernel
is compiled; a column with none — a derived table's — is untyped.
:func:`apply_kernels` runs a conjunct chain over one batch: the batch's
columns are extracted once, on first use, and shared by its kernels, and
the selection vector stays inside the chain — the caller gets the
surviving positions.

Semantics contract: every kernel must agree row-for-row with
``is_true(evaluate(...))``.  The fast inner loops therefore only engage
when Python's native comparison is provably identical to
:func:`~repro.storage.types.compare_values` for the operand types at hand —
a non-bool numeric literal against an INT/FLOAT column, or a string literal
against a TEXT column (stored values are always coerced to the column
type, which is what makes this exact).  Any other pairing (booleans,
cross-type comparisons, an untyped column) falls back to a per-element
``compare_values`` loop.

Literal values are read *per call*, never captured at compile time, so
cached plans whose ``ParamLiteral`` nodes are re-bound between executions
stay correct.
"""

from __future__ import annotations

import operator as _operator
from operator import itemgetter
from typing import Callable

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
    UnaryOp,
)
from repro.storage.expression import like_regex, slot_of
from repro.storage.types import DataType, as_text, compare_values


class Columns(dict):
    """One row batch's columns by row position, each made on first use (None
    at NULL positions) and kept for the batch's other kernels: from the rows,
    or as the ``chunk`` slice of the ``whole`` columns (a kept table's)."""

    __slots__ = ("rows", "whole", "chunk")

    def __init__(self, rows, whole: "Columns | None" = None, chunk: slice | None = None):
        self.rows = rows
        self.whole = whole
        self.chunk = chunk

    def __missing__(self, position: int) -> list:
        if self.whole is None:
            values = list(map(itemgetter(position), self.rows))
        else:
            values = self.whole[position][self.chunk]
        self[position] = values
        return values


#: A kernel maps ``(columns, selection | None)`` to the surviving positions.
Kernel = Callable[[Columns, "list[int] | None"], "list[int]"]

_DIRECT_TESTS = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

#: Per operator, ``(values, literal, indices) -> the positions whose value
#: <op> the literal``, compared inline in native Python: no call per row.
#: NULL never passes (``None == literal`` is already false).
_DIRECT_SELECTS = {
    "=": lambda vs, lit, ix: [i for i in ix if vs[i] == lit],
    "<>": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v != lit],
    "<": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v < lit],
    "<=": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v <= lit],
    ">": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v > lit],
    ">=": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v >= lit],
}

_ORDERING_TESTS: dict[str, Callable[[int], bool]] = {
    "=": lambda ordering: ordering == 0,
    "<>": lambda ordering: ordering != 0,
    "<": lambda ordering: ordering < 0,
    "<=": lambda ordering: ordering <= 0,
    ">": lambda ordering: ordering > 0,
    ">=": lambda ordering: ordering >= 0,
}

_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}

_NUMERIC_TYPES = (DataType.INTEGER, DataType.FLOAT)


def _indices(columns: Columns, selection):
    return range(len(columns.rows)) if selection is None else selection


def _is_plain_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _direct_comparable(data_type: DataType | None, literal_value) -> bool:
    """True when ``stored <op> literal`` in native Python reproduces
    ``compare_values`` for every value a column of ``data_type`` can hold."""
    if _is_plain_number(literal_value):
        return data_type in _NUMERIC_TYPES
    if isinstance(literal_value, str):
        return data_type is DataType.TEXT
    return False


def _compare_select(values, data_type, literal_value, op: str, indices) -> list[int]:
    """Positions where ``value <op> literal`` holds (NULL never passes)."""
    if _direct_comparable(data_type, literal_value):
        return _DIRECT_SELECTS[op](values, literal_value, indices)
    test = _ORDERING_TESTS[op]
    out: list[int] = []
    for i in indices:
        ordering = compare_values(values[i], literal_value)
        if ordering is not None and test(ordering):
            out.append(i)
    return out


def _comparison_kernel(key: int, data_type, literal: Literal, op: str) -> Kernel:
    def kernel(columns, selection, _key=key, _type=data_type, _literal=literal, _op=op):
        literal_value = _literal.value
        if literal_value is None:
            return []
        return _compare_select(
            columns[_key], _type, literal_value, _op, _indices(columns, selection)
        )

    return kernel


def _column_comparison_kernel(left_key: int, right_key: int, types, op: str) -> Kernel:
    left_type, right_type = types
    direct = (left_type in _NUMERIC_TYPES and right_type in _NUMERIC_TYPES) or (
        left_type is DataType.TEXT and right_type is DataType.TEXT
    )

    def kernel(columns, selection, _left=left_key, _right=right_key, _op=op):
        left_values, right_values = columns[_left], columns[_right]
        indices = _indices(columns, selection)
        if direct:
            test = _DIRECT_TESTS[_op]
            return [
                i
                for i in indices
                if (lv := left_values[i]) is not None
                and (rv := right_values[i]) is not None
                and test(lv, rv)
            ]
        test = _ORDERING_TESTS[_op]
        out: list[int] = []
        for i in indices:
            ordering = compare_values(left_values[i], right_values[i])
            if ordering is not None and test(ordering):
                out.append(i)
        return out

    return kernel


def _like_kernel(key: int, data_type, literal: Literal) -> Kernel:
    cache: dict[object, object] = {}
    # Schema coercion stores TEXT as str, so the evaluator's ``as_text(value)``
    # is an identity call a TEXT column can skip.
    text = data_type is DataType.TEXT

    def kernel(columns, selection, _key=key, _literal=literal, _cache=cache):
        pattern = _literal.value
        if pattern is None:
            return []
        regex = _cache.get(pattern)
        if regex is None:
            _cache.clear()  # one live pattern per (re-bindable) literal
            regex = like_regex(str(pattern))
            _cache[pattern] = regex
        values = columns[_key]
        fullmatch = regex.fullmatch
        if text:
            return [
                i
                for i in _indices(columns, selection)
                if (value := values[i]) is not None
                and fullmatch(value) is not None
            ]
        return [
            i
            for i in _indices(columns, selection)
            if (value := values[i]) is not None and fullmatch(as_text(value)) is not None
        ]

    return kernel


def _null_test_kernel(key: int, want_null: bool) -> Kernel:
    def kernel(columns, selection, _key=key, _want=want_null):
        values = columns[_key]
        indices = _indices(columns, selection)
        if _want:
            return [i for i in indices if values[i] is None]
        return [i for i in indices if values[i] is not None]

    return kernel


def _between_kernel(
    key: int, data_type, low: Literal, high: Literal, negated: bool
) -> Kernel:
    def kernel(
        columns, selection, _key=key, _type=data_type, _low=low, _high=high,
        _negated=negated,
    ):
        low_value, high_value = _low.value, _high.value
        values = columns[_key]
        indices = _indices(columns, selection)
        if (
            low_value is not None
            and high_value is not None
            and _direct_comparable(_type, low_value)
            and _direct_comparable(_type, high_value)
        ):
            if _negated:
                return [
                    i
                    for i in indices
                    if (value := values[i]) is not None
                    and not (low_value <= value <= high_value)
                ]
            return [
                i
                for i in indices
                if (value := values[i]) is not None
                and low_value <= value <= high_value
            ]
        out: list[int] = []
        for i in indices:
            value = values[i]
            low_cmp = compare_values(value, low_value)
            high_cmp = compare_values(value, high_value)
            if low_cmp is None or high_cmp is None:
                continue  # unknown: WHERE drops the row
            inside = low_cmp >= 0 and high_cmp <= 0
            if (not inside) if _negated else inside:
                out.append(i)
        return out

    return kernel


def _in_list_kernel(key: int, data_type, literals: list[Literal], negated: bool) -> Kernel:
    def kernel(
        columns, selection, _key=key, _type=data_type, _literals=literals,
        _negated=negated,
    ):
        values = columns[_key]
        indices = _indices(columns, selection)
        candidates = [literal.value for literal in _literals]
        saw_null = any(candidate is None for candidate in candidates)
        non_null = [candidate for candidate in candidates if candidate is not None]
        if not saw_null and all(
            _direct_comparable(_type, candidate) for candidate in non_null
        ):
            members = set(non_null)
            if _negated:
                return [
                    i
                    for i in indices
                    if (value := values[i]) is not None and value not in members
                ]
            return [
                i
                for i in indices
                if (value := values[i]) is not None and value in members
            ]
        out: list[int] = []
        for i in indices:
            value = values[i]
            if value is None:
                continue
            found = any(
                compare_values(value, candidate) == 0 for candidate in non_null
            )
            if not found and saw_null:
                continue  # unknown: WHERE drops the row
            if (not found) if _negated else found:
                out.append(i)
        return out

    return kernel


def compile_columnar_predicate(expr: Expression, bindings) -> Kernel | None:
    """Compile one WHERE conjunct over rows laid out by ``bindings`` into a
    kernel typed by its bound columns' ``data_type``, or None when its shape
    has no kernel (the evaluator runs it)."""
    if isinstance(expr, BinaryOp) and expr.op in _ORDERING_TESTS:
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            key = slot_of(bindings, left)
            if key is None:
                return None
            return _comparison_kernel(key, left.data_type, right, expr.op)
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            key = slot_of(bindings, right)
            if key is None:
                return None
            return _comparison_kernel(key, right.data_type, left, _FLIPPED[expr.op])
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            left_key = slot_of(bindings, left)
            right_key = slot_of(bindings, right)
            if left_key is None or right_key is None:
                return None
            return _column_comparison_kernel(
                left_key, right_key, (left.data_type, right.data_type), expr.op
            )
        return None
    if isinstance(expr, BinaryOp) and expr.op == "LIKE":
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            key = slot_of(bindings, expr.left)
            if key is None:
                return None
            return _like_kernel(key, expr.left.data_type, expr.right)
        return None
    if isinstance(expr, UnaryOp) and expr.op in ("IS NULL", "IS NOT NULL"):
        if not isinstance(expr.operand, ColumnRef):
            return None
        key = slot_of(bindings, expr.operand)
        if key is None:
            return None
        return _null_test_kernel(key, expr.op == "IS NULL")
    if isinstance(expr, Between):
        if (
            isinstance(expr.expr, ColumnRef)
            and isinstance(expr.low, Literal)
            and isinstance(expr.high, Literal)
        ):
            key = slot_of(bindings, expr.expr)
            if key is None:
                return None
            return _between_kernel(
                key, expr.expr.data_type, expr.low, expr.high, expr.negated
            )
        return None
    if isinstance(expr, InList):
        if isinstance(expr.expr, ColumnRef) and all(
            isinstance(value, Literal) for value in expr.values
        ):
            key = slot_of(bindings, expr.expr)
            if key is None:
                return None
            return _in_list_kernel(
                key, expr.expr.data_type, list(expr.values), expr.negated
            )
        return None
    return None


def compile_columnar_conjuncts(predicates, bindings) -> list[Kernel] | None:
    """Compile every conjunct or none.

    All-or-nothing keeps evaluation order identical to the evaluator's: a
    partially compiled list would reorder predicates around its
    short-circuiting and could surface (or hide) evaluation errors the
    original order would not."""
    kernels: list[Kernel] = []
    for predicate in predicates:
        kernel = compile_columnar_predicate(predicate, bindings)
        if kernel is None:
            return None
        kernels.append(kernel)
    return kernels


def apply_kernels(kernels, rows, columns: Columns | None = None) -> "list[int] | range":
    """The positions of the ``rows`` that pass every kernel of a conjunct
    chain, in row order (all of them for an empty chain); ``columns``: the
    rows' :class:`Columns`, when made by the caller."""
    columns = Columns(rows) if columns is None else columns
    selection = None
    for kernel in kernels:
        selection = kernel(columns, selection)
        if not selection:
            return selection
    return range(len(rows)) if selection is None else selection
