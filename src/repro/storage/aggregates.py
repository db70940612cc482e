"""Incremental aggregate accumulators and aggregate-spec collection.

The aggregation stage (``HashAggregate`` in :mod:`repro.storage.operators`)
never buffers input rows per group: each distinct aggregate expression of a
statement becomes one *accumulator* per group that every input row updates
exactly once, and SELECT, HAVING and ORDER BY read the finished accumulator
states.

* :func:`collect_aggregate_specs` walks a SELECT statement and returns the
  deduplicated :class:`AggregateSpec` list plus a map from every aggregate
  AST node to its spec's slot.  It is also the one place that decides whether
  an aggregate statement is well-formed: a shape the accumulators cannot
  answer (an aggregate nested inside CASE / BETWEEN / IN / a function
  argument, argument-less SUM/AVG/MIN/MAX, ``SUM(*)``, an aggregate inside
  another aggregate's argument) raises :class:`~repro.errors.ExecutionError`
  at plan time, whether or not the tables hold any rows.
* Accumulators expose ``update(values, positions)`` / ``finish()``:
  ``values`` is one batch's argument column and ``positions`` the group's
  rows in it, in ascending order, so a group update never gathers a
  per-group value list first (``COUNT(*)`` gets no column and counts the
  positions).  Folding a batch's positions in order is the same left fold,
  with the same first-seen ties, as folding the group's values one by one.

Numeric care: ``SUM``/``AVG`` are one left fold in heap order
(``0 + v1 + v2 + ...``, continued batch after batch), so a float result does
not depend on where the batch boundaries fall.  ``sum()`` is not used: since
Python 3.12 it compensates float rounding within one call, so a batch of 256
would differ in its last bits from 256 batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    SelectStatement,
    Star,
    UnaryOp,
    contains_aggregate,
    iter_expressions,
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
    """``COUNT(*)``: counts the group's positions (it needs no column)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update(self, values, positions) -> None:
        self.count += len(positions)

    def finish(self):
        return self.count


class CountAccumulator:
    """``COUNT(expr)``: counts non-NULL argument values."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update(self, values, positions) -> None:
        self.count += sum(1 for i in positions if values[i] is not None)

    def finish(self):
        return self.count


def _fold(total, present):
    """``total + present[0] + present[1] + ...`` from 0 when ``total`` is NULL.

    A plain loop: ``functools.reduce(operator.add, ...)`` is the same fold but
    slower per call (the loop's float add is specialised by the interpreter).
    """
    if total is None:
        total = 0
    for value in present:
        total += value
    return total


class SumAccumulator:
    """``SUM(expr)``: running total over non-NULL values (NULL when none).

    Each batch continues one left fold in heap order (:func:`_fold`), so
    results are byte-identical across batch sizes even for floats.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = None

    def update(self, values, positions) -> None:
        present = [value for i in positions if (value := values[i]) is not None]
        if present:
            self.total = _fold(self.total, present)

    def finish(self):
        return self.total


class AvgAccumulator:
    """``AVG(expr)``: running total and count (NULL when no non-NULL input)."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = None
        self.count = 0

    def update(self, values, positions) -> None:
        present = [value for i in positions if (value := values[i]) is not None]
        if present:
            self.total = _fold(self.total, present)
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

    def update(self, values, positions) -> None:
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

    The ordered dict keyed by :func:`hashable_value` keeps the first
    occurrence of each value, so ``SUM(DISTINCT ...)`` folds values in
    first-seen order whatever the batch boundaries.
    """

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen: dict = {}

    def update(self, values, positions) -> None:
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
        return _fold(None, self.seen.values())


class AvgDistinctAccumulator(_DistinctAccumulator):
    __slots__ = ()

    def finish(self):
        if not self.seen:
            return None
        return _fold(None, self.seen.values()) / len(self.seen)


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
    bare ``COUNT()`` (whose accumulator counts positions).
    """

    name: str
    argument: Expression | None
    distinct: bool

    def make(self):
        """A fresh accumulator for one group."""
        if self.argument is None:
            return CountStarAccumulator()
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


def reject_aggregates(expr: Expression) -> None:
    """Raise for an aggregate in a per-row clause (WHERE, JOIN ... ON,
    GROUP BY, another aggregate's argument).

    Subquery statements are not descended into: they aggregate on their own.
    """
    for node in iter_expressions(expr):
        if isinstance(node, FunctionCall) and node.is_aggregate:
            raise ExecutionError(
                f"aggregate {node.name.upper()} used outside of an aggregation context"
            )


def collect_aggregate_specs(statement: SelectStatement) -> AggregateCollection:
    """Collect and validate the aggregates of SELECT / HAVING / ORDER BY.

    Raises :class:`~repro.errors.ExecutionError` for any aggregate the
    accumulators do not support — nested inside CASE, BETWEEN, IN or a
    non-aggregate function's arguments, argument-less SUM/AVG/MIN/MAX,
    ``SUM(*)``, or inside another aggregate's argument — so a malformed
    statement fails when it is planned, not when its first group is finished.
    """
    specs: list[AggregateSpec] = []
    slots: dict[int, int] = {}
    keys: dict[object, int] = {}

    def register(call: FunctionCall) -> None:
        name = call.name.upper()
        argument = call.args[0] if call.args else None
        if name == "COUNT" and (argument is None or isinstance(argument, Star)):
            argument = None  # COUNT(*) / COUNT(): the accumulator counts rows
        elif argument is None:
            raise ExecutionError(f"aggregate {name} requires an argument")
        elif isinstance(argument, Star):
            raise ExecutionError("'*' is only allowed in the select list or COUNT(*)")
        else:
            reject_aggregates(argument)
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

    def visit(expr: Expression) -> None:
        if isinstance(expr, FunctionCall) and expr.is_aggregate:
            register(expr)
        elif isinstance(expr, BinaryOp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, UnaryOp):
            visit(expr.operand)
        elif contains_aggregate(expr):
            # Finished values are substituted through arithmetic/boolean
            # operators only; anything deeper never sees its group.
            raise ExecutionError(
                "aggregates may only appear at the top level of an expression "
                "or inside simple arithmetic/boolean combinations"
            )

    for item in statement.select_items:
        if not isinstance(item.expression, Star):
            visit(item.expression)
    if statement.having is not None:
        visit(statement.having)
    for order_item in statement.order_by:
        visit(order_item.expression)
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
# Aggregate detection
# ---------------------------------------------------------------------------


def statement_has_aggregates(statement: SelectStatement) -> bool:
    expressions = [item.expression for item in statement.select_items]
    if statement.having is not None:
        expressions.append(statement.having)
    expressions.extend(item.expression for item in statement.order_by)
    return any(contains_aggregate(expr) for expr in expressions)
