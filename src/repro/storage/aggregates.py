"""Incremental aggregate accumulators and aggregate-spec collection.

The vectorized aggregation path (``HashAggregate`` / ``SortedGroupAggregate``
in :mod:`repro.storage.operators`) replaces the executor's historical
materialize-then-rewalk grouping: instead of buffering every input row into
per-group lists and re-evaluating each aggregate reference in SELECT, HAVING,
and ORDER BY against those lists, each distinct aggregate expression becomes
one *accumulator* per group that every input row updates exactly once.

* :func:`collect_aggregate_specs` walks a SELECT statement and returns the
  deduplicated :class:`AggregateSpec` list plus a map from every aggregate
  AST node to its spec's slot.  It returns None when the statement uses a
  shape the incremental path does not reproduce bit-for-bit (aggregates
  nested inside CASE/function arguments, argument-less SUM/AVG/MIN/MAX, ...);
  the executor then falls back to the historical path, which raises exactly
  the errors those shapes always raised.
* Accumulators expose ``update_batch(values)`` / ``finish()``.
* The columnar lane (:mod:`repro.storage.kernels`) adds
  ``update_column(values, positions)``: the same fold over a full column
  list plus a selection vector of live positions, so a ColumnBatch group
  update never gathers a per-group value list first.  Each variant must
  visit positions in ascending order — it reproduces ``update_batch`` over
  the gathered values exactly (same left-fold, same first-seen ties).

Numeric care: ``SUM``/``AVG`` fold batches with ``sum(values, start=total)``,
which reproduces the historical single ``sum(all_values)`` left-fold
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sql.ast_nodes import (
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    SelectStatement,
    Star,
    UnaryOp,
)
from repro.sql.formatter import format_expression
from repro.storage.types import sort_key


def hashable_value(value: object) -> object:
    """A hashable stand-in for a SQL value (lists/dicts become tuples)."""
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


# ---------------------------------------------------------------------------
# Accumulators
# ---------------------------------------------------------------------------


class CountStarAccumulator:
    """``COUNT(*)``: counts rows; ``update_batch`` receives the row list."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update_batch(self, rows) -> None:
        self.count += len(rows)

    def update_column(self, values, positions) -> None:
        self.count += len(positions)  # COUNT(*) needs no column at all

    def finish(self):
        return self.count


class CountAccumulator:
    """``COUNT(expr)``: counts non-NULL argument values."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update_batch(self, values) -> None:
        self.count += sum(1 for value in values if value is not None)

    def update_column(self, values, positions) -> None:
        self.count += sum(1 for i in positions if values[i] is not None)

    def finish(self):
        return self.count


class SumAccumulator:
    """``SUM(expr)``: running total over non-NULL values (NULL when none).

    ``sum(batch, start=total)`` continues the exact left-fold the historical
    one-shot ``sum(values)`` performed, so sequential results are
    byte-identical even for floats.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = None

    def update_batch(self, values) -> None:
        present = [value for value in values if value is not None]
        if present:
            self.total = sum(present) if self.total is None else sum(present, self.total)

    def update_column(self, values, positions) -> None:
        present = [value for i in positions if (value := values[i]) is not None]
        if present:
            self.total = sum(present) if self.total is None else sum(present, self.total)

    def finish(self):
        return self.total


class AvgAccumulator:
    """``AVG(expr)``: running total and count (NULL when no non-NULL input)."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = None
        self.count = 0

    def update_batch(self, values) -> None:
        present = [value for value in values if value is not None]
        if present:
            self.total = sum(present) if self.total is None else sum(present, self.total)
            self.count += len(present)

    def update_column(self, values, positions) -> None:
        present = [value for i in positions if (value := values[i]) is not None]
        if present:
            self.total = sum(present) if self.total is None else sum(present, self.total)
            self.count += len(present)

    def finish(self):
        if self.count == 0:
            return None
        return self.total / self.count


class _ExtremeAccumulator:
    """Shared MIN/MAX machinery: keeps the first-seen extreme value.

    Ties keep the earliest occurrence (a strict comparison against the held
    value), matching ``min``/``max`` over the full value list.
    """

    __slots__ = ("best", "has_value")

    def __init__(self) -> None:
        self.best = None
        self.has_value = False

    def _consider(self, candidate) -> None:
        raise NotImplementedError

    def update_batch(self, values) -> None:
        for value in values:
            if value is None:
                continue
            if not self.has_value:
                self.best = value
                self.has_value = True
            else:
                self._consider(value)

    def update_column(self, values, positions) -> None:
        for i in positions:
            value = values[i]
            if value is None:
                continue
            if not self.has_value:
                self.best = value
                self.has_value = True
            else:
                self._consider(value)

    def finish(self):
        return self.best if self.has_value else None


class MinAccumulator(_ExtremeAccumulator):
    __slots__ = ()

    def _consider(self, candidate) -> None:
        if sort_key(candidate) < sort_key(self.best):
            self.best = candidate


class MaxAccumulator(_ExtremeAccumulator):
    __slots__ = ()

    def _consider(self, candidate) -> None:
        if sort_key(candidate) > sort_key(self.best):
            self.best = candidate


class _DistinctAccumulator:
    """Shared DISTINCT machinery: first-seen-ordered unique non-NULL values.

    The ordered dict keyed by :func:`hashable_value` reproduces the historical
    first-occurrence dedup, so ``SUM(DISTINCT ...)`` folds values in exactly
    the order the one-shot path did.
    """

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen: dict = {}

    def update_batch(self, values) -> None:
        seen = self.seen
        for value in values:
            if value is None:
                continue
            key = hashable_value(value)
            if key not in seen:
                seen[key] = value

    def update_column(self, values, positions) -> None:
        seen = self.seen
        for i in positions:
            value = values[i]
            if value is None:
                continue
            key = hashable_value(value)
            if key not in seen:
                seen[key] = value


class CountDistinctAccumulator(_DistinctAccumulator):
    __slots__ = ()

    def finish(self):
        return len(self.seen)


class SumDistinctAccumulator(_DistinctAccumulator):
    __slots__ = ()

    def finish(self):
        if not self.seen:
            return None
        return sum(self.seen.values())


class AvgDistinctAccumulator(_DistinctAccumulator):
    __slots__ = ()

    def finish(self):
        if not self.seen:
            return None
        return sum(self.seen.values()) / len(self.seen)


#: Accumulator factory per (aggregate name, distinct) pair.  MIN/MAX ignore
#: DISTINCT — deduplication cannot change an extreme, and both variants keep
#: the first occurrence on ties.
_ACCUMULATORS = {
    ("COUNT", False): CountAccumulator,
    ("COUNT", True): CountDistinctAccumulator,
    ("SUM", False): SumAccumulator,
    ("SUM", True): SumDistinctAccumulator,
    ("AVG", False): AvgAccumulator,
    ("AVG", True): AvgDistinctAccumulator,
    ("MIN", False): MinAccumulator,
    ("MIN", True): MinAccumulator,
    ("MAX", False): MaxAccumulator,
    ("MAX", True): MaxAccumulator,
}


# ---------------------------------------------------------------------------
# Spec collection
# ---------------------------------------------------------------------------


@dataclass
class AggregateSpec:
    """One distinct aggregate computation within a grouped SELECT.

    ``argument`` is the argument expression, or None for ``COUNT(*)`` /
    bare ``COUNT()`` (whose accumulator receives the row list itself).
    """

    name: str
    argument: Expression | None
    distinct: bool

    def make(self):
        """A fresh accumulator for one group."""
        return _ACCUMULATORS[(self.name, self.distinct)]()


@dataclass
class AggregateCollection:
    """The deduplicated specs of a statement plus the node → slot map.

    ``slots`` maps ``id(FunctionCall node)`` to the index of the spec that
    computes it, so HAVING / projection / ORDER BY evaluation reads finished
    accumulator states instead of recomputing over buffered rows.  Keying by
    node identity is safe across plan-cache re-binding: cached plans re-use
    the same template statement objects.
    """

    specs: list[AggregateSpec]
    slots: dict[int, int]


def collect_aggregate_specs(statement: SelectStatement) -> AggregateCollection | None:
    """Collect the statement's aggregates for the incremental path.

    Returns None when any aggregate appears in a shape the accumulator path
    does not support — nested inside CASE or non-aggregate function arguments
    (the historical path raises its placement error), argument-less
    SUM/AVG/MIN/MAX or ``SUM(*)`` (the historical path raises its
    requires-an-argument / evaluation error), or an aggregate inside another
    aggregate's argument.  The executor falls back to the historical
    evaluation, preserving those errors verbatim.
    """
    specs: list[AggregateSpec] = []
    slots: dict[int, int] = {}
    keys: dict[object, int] = {}

    def register(call: FunctionCall) -> bool:
        name = call.name.upper()
        star = not call.args or isinstance(call.args[0], Star)
        if star and name != "COUNT":
            return False
        argument = None if star else call.args[0]
        if argument is not None and has_aggregate(argument):
            return False
        key = _spec_key(name, argument, call.distinct)
        slot = keys.get(key)
        if slot is None:
            slot = len(specs)
            keys[key] = slot
            specs.append(
                AggregateSpec(
                    name=name,
                    argument=argument,
                    distinct=bool(call.distinct) and argument is not None,
                )
            )
        slots[id(call)] = slot
        return True

    def visit(expr: Expression) -> bool:
        if isinstance(expr, FunctionCall) and expr.is_aggregate:
            return register(expr)
        if isinstance(expr, BinaryOp):
            return visit(expr.left) and visit(expr.right)
        if isinstance(expr, UnaryOp):
            return visit(expr.operand)
        # Any aggregate buried deeper (CASE, function arguments, subqueries)
        # is a placement error on the historical path — fall back to it.
        return not has_aggregate(expr)

    for item in statement.select_items:
        if isinstance(item.expression, Star):
            continue
        if not visit(item.expression):
            return None
    if statement.having is not None and not visit(statement.having):
        return None
    for order_item in statement.order_by:
        if not visit(order_item.expression):
            return None
    return AggregateCollection(specs=specs, slots=slots)


def _spec_key(name: str, argument: Expression | None, distinct: bool):
    """Dedup key for a spec: structural for pure-column arguments, identity
    otherwise.

    Literal-bearing arguments format identically once parameterized
    (``SUM(x + ?)``) even when their parameters carry different constants, so
    only literal-free column expressions are deduplicated by text; anything
    else keeps one spec per AST node.
    """
    if argument is None:
        return (name, "*", False)
    if _plain_columns_only(argument):
        return (name, bool(distinct), format_expression(argument).lower())
    return (name, bool(distinct), id(argument))


def _plain_columns_only(expr: Expression) -> bool:
    if isinstance(expr, ColumnRef):
        return True
    if isinstance(expr, BinaryOp):
        return _plain_columns_only(expr.left) and _plain_columns_only(expr.right)
    if isinstance(expr, UnaryOp):
        return _plain_columns_only(expr.operand)
    return False


# ---------------------------------------------------------------------------
# Aggregate detection (canonical home; the planner re-exports these)
# ---------------------------------------------------------------------------


def statement_has_aggregates(statement: SelectStatement) -> bool:
    expressions = [item.expression for item in statement.select_items]
    if statement.having is not None:
        expressions.append(statement.having)
    expressions.extend(item.expression for item in statement.order_by)
    return any(has_aggregate(expr) for expr in expressions)


def has_aggregate(expr: Expression) -> bool:
    if isinstance(expr, FunctionCall) and expr.is_aggregate:
        return True
    if isinstance(expr, BinaryOp):
        return has_aggregate(expr.left) or has_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return has_aggregate(expr.operand)
    if isinstance(expr, FunctionCall):
        return any(has_aggregate(arg) for arg in expr.args)
    if isinstance(expr, CaseExpression):
        return any(
            has_aggregate(condition) or has_aggregate(value)
            for condition, value in expr.whens
        ) or (expr.default is not None and has_aggregate(expr.default))
    return False
