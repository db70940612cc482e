"""Predicate kernels: selection-vector loops over row batches.

Every WHERE / ON conjunct compiles to one **kernel**, a function of
``(columns, selection) -> selection`` returning the positions of a row
batch's rows that pass it.  A conjunct's semantics are its compiled
predicate (:func:`~repro.storage.expression.compile_expression`): the
generic kernel keeps the selected rows where that predicate is True.  Two
shapes — a column compared with a literal (the only filtering the benchmark
workloads do) and two typed columns compared — have a special kernel
testing the batch's columns in one tight loop.  It compares natively only where
that provably equals :func:`~repro.storage.types.compare_values` — a
non-bool number against an INT/FLOAT column, a string against a TEXT column
(stored values are coerced to the column type, the binder's
:class:`~repro.storage.binder.BoundColumn` ``data_type``); any other pairing
(a boolean, a cross-type pair, an untyped derived-table column) defers to
the conjunct's compiled predicate.  :func:`apply_kernels` runs a conjunct
chain over one batch in conjunct order, extracting each column once, on
first use.  Literal values are read *per call*, so re-binding a cached
plan's ``ParamLiteral`` nodes never stales a kernel.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from repro.sql.ast_nodes import BinaryOp, ColumnRef, Expression, Literal
from repro.storage.expression import NATIVE_TESTS, Compiled, Frame, compile_expression, slot_of
from repro.storage.types import DataType


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

#: Per operator, ``(values, literal, indices) -> the positions whose value
#: <op> the literal``, compared inline in native Python: no call per row.
#: NULL never passes (``None == literal`` is already false).  Faster than the
#: generic kernel in 10 of 10 runs (``i < 500``: 3.2x).
_DIRECT_SELECTS = {
    "=": lambda vs, lit, ix: [i for i in ix if vs[i] == lit],
    "<>": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v != lit],
    "<": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v < lit],
    "<=": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v <= lit],
    ">": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v > lit],
    ">=": lambda vs, lit, ix: [i for i in ix if (v := vs[i]) is not None and v >= lit],
}

_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}

_NUMERIC_TYPES = (DataType.INTEGER, DataType.FLOAT)

#: Column types two of which compare natively when of one kind.
_KINDS = {DataType.INTEGER: 0, DataType.FLOAT: 0, DataType.TEXT: 1}


def _indices(columns: Columns, selection):
    return range(len(columns.rows)) if selection is None else selection


def _direct_comparable(data_type: DataType | None, literal_value) -> bool:
    """True when ``stored <op> literal`` in native Python reproduces
    ``compare_values`` for every value a column of ``data_type`` can hold."""
    if isinstance(literal_value, (int, float)) and not isinstance(literal_value, bool):
        return data_type in _NUMERIC_TYPES
    if isinstance(literal_value, str):
        return data_type is DataType.TEXT
    return False


def _predicate_kernel(predicate: Compiled) -> Kernel:
    """The generic kernel: the positions where the compiled ``predicate``
    is True."""

    def kernel(columns, selection):
        rows = columns.rows
        return [i for i in _indices(columns, selection) if predicate(rows[i]) is True]

    return kernel


def _comparison_kernel(key: int, data_type, literal: Literal, op: str, deferred) -> Kernel:
    select = _DIRECT_SELECTS[op]

    def kernel(columns, selection):
        literal_value = literal.value
        if literal_value is None:
            return []
        if not _direct_comparable(data_type, literal_value):
            return deferred(columns, selection)
        return select(columns[key], literal_value, _indices(columns, selection))

    return kernel


def _column_comparison_kernel(left: int, right: int, op: str) -> Kernel:
    # Two typed columns of one kind (both numbers or both text).  Faster than
    # the generic kernel in 10 of 10 runs (``i < j``: 1.65x).
    test = NATIVE_TESTS[op]

    def kernel(columns, selection):
        left_values, right_values = columns[left], columns[right]
        return [
            i
            for i in _indices(columns, selection)
            if (lv := left_values[i]) is not None
            and (rv := right_values[i]) is not None
            and test(lv, rv)
        ]

    return kernel


def compile_columnar_predicate(expr: Expression, bindings, frame: Frame | None = None) -> Kernel:
    """Compile one WHERE conjunct over rows laid out by ``bindings`` into its
    kernel: a special kernel where its shape has one, typed by its bound
    columns' ``data_type``, else the generic kernel over its compiled
    predicate (``frame``: see :func:`compile_expression`)."""

    def generic() -> Kernel:
        return _predicate_kernel(compile_expression(expr, bindings, frame))

    def slot(column) -> int | None:
        return slot_of(bindings, column) if isinstance(column, ColumnRef) else None

    if isinstance(expr, BinaryOp) and expr.op in _DIRECT_SELECTS:
        left, right = expr.left, expr.right
        if slot(left) is not None and isinstance(right, Literal):
            return _comparison_kernel(slot(left), left.data_type, right, expr.op, generic())
        if slot(right) is not None and isinstance(left, Literal):
            op = _FLIPPED[expr.op]
            return _comparison_kernel(slot(right), right.data_type, left, op, generic())
        if slot(left) is not None and slot(right) is not None:
            kinds = {_KINDS.get(left.data_type), _KINDS.get(right.data_type)}
            if len(kinds) == 1 and None not in kinds:
                return _column_comparison_kernel(slot(left), slot(right), expr.op)
    return generic()


def compile_columnar_conjuncts(predicates, bindings, frame: Frame | None = None) -> list[Kernel]:
    """One kernel per conjunct, in conjunct order: a row batch narrows
    through them as the conjunction short-circuits row by row, so a
    conjunct runs on exactly the rows every earlier one kept."""
    return [compile_columnar_predicate(predicate, bindings, frame) for predicate in predicates]


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
