"""Columnar kernels: branch-light selection-vector loops over ColumnBatches.

The engine's one compiled form of a WHERE conjunct.  This module compiles
the simple predicate shapes — column-vs-literal comparisons, BETWEEN, IN,
LIKE, IS [NOT] NULL, column-vs-column — into **kernels**: functions of
``(batch, selection) -> selection`` that test a whole
:class:`~repro.storage.colbatch.ColumnBatch` column in one tight loop and
return the surviving row positions.  A heap scan's batches are typed; any
other operator's row batch is filtered through an untyped view of it.  A
kernel never mutates its input batch (the ``columnar-mutation`` hazard-lint
rule); the selection vector is its only output.

Semantics contract: every kernel must agree row-for-row with
``is_true(evaluate(...))``.  The fast inner loops therefore only engage
when Python's native comparison is provably identical to
:func:`~repro.storage.types.compare_values` for the operand types at hand —
a non-bool numeric literal against an INT/FLOAT column, or a string literal
against a TEXT column (stored values are always coerced to the column
type, which is what makes this exact).  Any other pairing (booleans,
cross-type comparisons, an untyped view) falls back to a per-element
``compare_values`` loop — still columnar, just not branch-light.

Literal values are read *per call*, never captured at compile time, so
cached plans whose ``ParamLiteral`` nodes are re-bound between executions
stay correct.
"""

from __future__ import annotations

import operator as _operator
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
from repro.storage.colbatch import Column, ColumnBatch
from repro.storage.expression import like_regex, slot_of
from repro.storage.types import DataType, compare_values

#: A kernel maps ``(batch, selection | None)`` to the surviving positions.
Kernel = Callable[[ColumnBatch, "list[int] | None"], "list[int]"]

_DIRECT_TESTS = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
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


def _indices(batch: ColumnBatch, selection):
    return range(len(batch.rows)) if selection is None else selection


def _is_plain_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _direct_comparable(column: Column, literal_value) -> bool:
    """True when ``stored <op> literal`` in native Python reproduces
    ``compare_values`` for every value this column can hold."""
    if _is_plain_number(literal_value):
        return column.dtype in _NUMERIC_TYPES
    if isinstance(literal_value, str):
        return column.dtype is DataType.TEXT
    return False


def _compare_select(column: Column, literal_value, op: str, indices) -> list[int]:
    """Positions where ``column <op> literal`` holds (NULL never passes)."""
    values = column.values
    if _direct_comparable(column, literal_value):
        test = _DIRECT_TESTS[op]
        return [
            i
            for i in indices
            if (value := values[i]) is not None and test(value, literal_value)
        ]
    test = _ORDERING_TESTS[op]
    out: list[int] = []
    for i in indices:
        ordering = compare_values(values[i], literal_value)
        if ordering is not None and test(ordering):
            out.append(i)
    return out


def _comparison_kernel(key: int, literal: Literal, op: str) -> Kernel:
    def kernel(batch, selection, _key=key, _literal=literal, _op=op):
        literal_value = _literal.value
        if literal_value is None:
            return []
        return _compare_select(
            batch.column(_key), literal_value, _op, _indices(batch, selection)
        )

    return kernel


def _column_comparison_kernel(left_key: int, right_key: int, op: str) -> Kernel:
    def kernel(batch, selection, _left=left_key, _right=right_key, _op=op):
        left, right = batch.column(_left), batch.column(_right)
        indices = _indices(batch, selection)
        both_numeric = left.dtype in _NUMERIC_TYPES and right.dtype in _NUMERIC_TYPES
        both_text = left.dtype is DataType.TEXT and right.dtype is DataType.TEXT
        left_values, right_values = left.values, right.values
        if both_numeric or both_text:
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


def _like_kernel(key: int, literal: Literal) -> Kernel:
    cache: dict[object, object] = {}

    def kernel(batch, selection, _key=key, _literal=literal, _cache=cache):
        pattern = _literal.value
        if pattern is None:
            return []
        regex = _cache.get(pattern)
        if regex is None:
            _cache.clear()  # one live pattern per (re-bindable) literal
            regex = like_regex(str(pattern))
            _cache[pattern] = regex
        column = batch.column(_key)
        values = column.values
        fullmatch = regex.fullmatch
        if column.dtype is DataType.TEXT:
            # Schema coercion stores TEXT as str, so the evaluator's
            # ``str(value)`` is an identity call this lane can skip.
            return [
                i
                for i in _indices(batch, selection)
                if (value := values[i]) is not None
                and fullmatch(value) is not None
            ]
        return [
            i
            for i in _indices(batch, selection)
            if (value := values[i]) is not None and fullmatch(str(value)) is not None
        ]

    return kernel


def _null_test_kernel(key: int, want_null: bool) -> Kernel:
    def kernel(batch, selection, _key=key, _want=want_null):
        values = batch.column(_key).values
        indices = _indices(batch, selection)
        if _want:
            return [i for i in indices if values[i] is None]
        return [i for i in indices if values[i] is not None]

    return kernel


def _between_kernel(key: int, low: Literal, high: Literal, negated: bool) -> Kernel:
    def kernel(batch, selection, _key=key, _low=low, _high=high, _negated=negated):
        low_value, high_value = _low.value, _high.value
        column = batch.column(_key)
        indices = _indices(batch, selection)
        if (
            low_value is not None
            and high_value is not None
            and _direct_comparable(column, low_value)
            and _direct_comparable(column, high_value)
        ):
            values = column.values
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
        values = column.values
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


def _in_list_kernel(key: int, literals: list[Literal], negated: bool) -> Kernel:
    def kernel(batch, selection, _key=key, _literals=literals, _negated=negated):
        column = batch.column(_key)
        indices = _indices(batch, selection)
        candidates = [literal.value for literal in _literals]
        saw_null = any(candidate is None for candidate in candidates)
        non_null = [candidate for candidate in candidates if candidate is not None]
        if not saw_null and all(
            _direct_comparable(column, candidate) for candidate in non_null
        ):
            members = set(non_null)
            values = column.values
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
        values = column.values
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
    kernel, or None when its shape has no kernel (the evaluator runs it)."""
    if isinstance(expr, BinaryOp) and expr.op in _ORDERING_TESTS:
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            key = slot_of(bindings, left)
            if key is None:
                return None
            return _comparison_kernel(key, right, expr.op)
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            key = slot_of(bindings, right)
            if key is None:
                return None
            return _comparison_kernel(key, left, _FLIPPED[expr.op])
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            left_key = slot_of(bindings, left)
            right_key = slot_of(bindings, right)
            if left_key is None or right_key is None:
                return None
            return _column_comparison_kernel(left_key, right_key, expr.op)
        return None
    if isinstance(expr, BinaryOp) and expr.op == "LIKE":
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            key = slot_of(bindings, expr.left)
            if key is None:
                return None
            return _like_kernel(key, expr.right)
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
            return _between_kernel(key, expr.low, expr.high, expr.negated)
        return None
    if isinstance(expr, InList):
        if isinstance(expr.expr, ColumnRef) and all(
            isinstance(value, Literal) for value in expr.values
        ):
            key = slot_of(bindings, expr.expr)
            if key is None:
                return None
            return _in_list_kernel(key, list(expr.values), expr.negated)
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


def apply_kernels(kernels, batch: ColumnBatch) -> list[int] | None:
    """Run a conjunct chain over one batch.

    Returns the surviving selection (possibly empty), or None meaning
    "everything survives" when the chain is empty and the batch carried no
    selection — callers pass the result straight to
    :meth:`~repro.storage.colbatch.ColumnBatch.narrowed`."""
    selection = batch.selection
    for kernel in kernels:
        selection = kernel(batch, selection)
        if not selection:
            return selection
    return selection


def resolve_columnar_columns(columns, bindings) -> list[int] | None:
    """Row positions for a list of ColumnRefs, or None unless all resolve."""
    keys: list[int] = []
    for column in columns:
        if not isinstance(column, ColumnRef):
            return None
        key = slot_of(bindings, column)
        if key is None:
            return None
        keys.append(key)
    return keys


def hash_group_keys(batch: ColumnBatch, keys: list[int]):
    """Bucket the live positions by group key.

    Returns ``(first-seen key order, {key: positions})``; a single-column
    key groups by the bare value (matching the row path's scalar key), a
    multi-column key by the value tuple.  Stored heap values are always
    hashable, so no ``hashable_value`` conversion is needed here — the
    same invariant the fused raw-aggregation path relies on.
    """
    indices = _indices(batch, batch.selection)
    buckets: dict = {}
    order: list = []
    if len(keys) == 1:
        values = batch.column(keys[0]).values
        for i in indices:
            key = values[i]
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
                order.append(key)
            bucket.append(i)
        return order, buckets
    columns = [batch.column(key).values for key in keys]
    for i in indices:
        key = tuple(values[i] for values in columns)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = bucket = []
            order.append(key)
        bucket.append(i)
    return order, buckets
