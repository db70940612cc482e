"""Structural verifier for physical plans.

Every :class:`~repro.storage.planner.SelectPlan` /
:class:`~repro.storage.planner.DmlPlan` the planner emits promises the
executor a set of contracts that nothing used to check:

* **binding shape** — an operator's ``bindings`` must be exactly what its
  children produce (joins concatenate, filters and aggregates pass through,
  leaf scans expose their table's schema), because ``bindings`` flattened *is*
  the layout of the operator's row tuples and compiled getters read positions
  resolved against it; and one relation may not bind a name twice, because a
  qualified reference would resolve to the first and ``alias.*`` to either;
* **column resolution** — every ``ColumnRef`` an operator evaluates must
  have been bound (:mod:`repro.storage.binder`) to a column of the bindings
  flowing into it (build keys against the build side, probe keys against the
  probe side, residuals against the joined row);
* **batch contract** — aggregate operators are consumed through
  ``groups(ctx)`` and may only sit at the very top of the pipeline
  (``plan.aggregate``), never inside the streamed ``root`` tree;
* **parameter reachability** — every ``ParamLiteral`` in the statement must
  be reachable from the operator tree (or the post-pipeline clauses the
  executor evaluates from the statement), otherwise positional re-binding of
  a cached plan would silently execute with a stale constant.

The verifier is wired into the executor behind
``ExecutionSettings.verify_plans`` and runs over a generated plan corpus in
CI (:mod:`repro.analysis.corpus`).
"""

from __future__ import annotations

from repro.sql.ast_nodes import (
    ColumnRef,
    Expression,
    SelectStatement,
    iter_expressions,
    iter_subqueries,
)
from repro.sql.canonicalize import ParamLiteral, collect_parameters
from repro.storage.operators import (
    EmptyRow,
    Filter,
    HashAggregate,
    HashJoin,
    IndexLookupJoin,
    IndexScan,
    Operator,
    SeqScan,
    SubqueryScan,
)
from repro.storage.binder import BoundColumn
from repro.storage.expression import slot_of
from repro.storage.planner import DmlPlan, SelectPlan

from repro.analysis.framework import Diagnostic, Rule, Severity

BINDING_SHAPE = Rule(
    "plan-binding-shape", Severity.ERROR, "operator bindings diverge from children"
)
COLUMN_RESOLUTION = Rule(
    "plan-column-resolution", Severity.ERROR, "column unresolvable at its operator"
)
BATCH_CONTRACT = Rule(
    "plan-batch-contract", Severity.ERROR, "aggregate operator inside the batch pipeline"
)
PARAM_BINDING = Rule(
    "plan-param-binding", Severity.ERROR, "parameter unreachable for plan-cache re-binding"
)

RULES: tuple[Rule, ...] = (
    BINDING_SHAPE,
    COLUMN_RESOLUTION,
    BATCH_CONTRACT,
    PARAM_BINDING,
)


def _walk(operator: Operator):
    yield operator
    for child in operator.children:
        yield from _walk(child)


def _reads(ref: ColumnRef, bindings: list[tuple[str, list[str]]]) -> bool:
    """Whether the binder's record puts ``ref`` on a column of ``bindings``."""
    if not isinstance(ref, BoundColumn) or ref.depth:
        return False
    slot = slot_of(bindings, ref)
    columns = [column for _, columns in bindings for column in columns]
    return slot is not None and slot < len(columns) and columns[slot] == ref.column


class PlanVerifier:
    """Checks one plan against the executor's structural contracts.

    ``allow_outer=True`` relaxes column resolution for plans executed with an
    outer scope (correlated subqueries): a reference the binder did not place
    on this operator's input may read the enclosing query's row there.
    """

    def verify(self, plan, allow_outer: bool = False) -> list[Diagnostic]:
        if isinstance(plan, SelectPlan):
            return self.verify_select(plan, allow_outer=allow_outer)
        if isinstance(plan, DmlPlan):
            return self.verify_dml(plan)
        raise TypeError(f"cannot verify {type(plan).__name__}")

    # -- SELECT ---------------------------------------------------------------

    def verify_select(self, plan: SelectPlan, allow_outer: bool = False) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        top = plan.aggregate if plan.aggregate is not None else plan.root
        for operator in _walk(top):
            self._check_binding_shape(operator, diagnostics)
            self._check_columns(operator, allow_outer, diagnostics)
            if isinstance(operator, SubqueryScan):
                diagnostics.extend(
                    self.verify_select(operator.plan, allow_outer=allow_outer)
                )
        self._check_unique_bindings(plan.root, diagnostics)
        self._check_batch_contract(plan, diagnostics)
        self._check_params(plan, top, diagnostics)
        return diagnostics

    # -- DML ------------------------------------------------------------------

    def verify_dml(self, plan: DmlPlan) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for operator in _walk(plan.root):
            self._check_binding_shape(operator, diagnostics)
            self._check_columns(operator, False, diagnostics)
            if isinstance(operator, HashAggregate):
                diagnostics.append(
                    BATCH_CONTRACT.at(
                        operator.label(), "aggregate operator inside a DML plan"
                    )
                )
        return diagnostics

    # -- individual checks ----------------------------------------------------

    def _check_binding_shape(
        self, operator: Operator, diagnostics: list[Diagnostic]
    ) -> None:
        expected: list[tuple[str, list[str]]] | None = None
        if isinstance(operator, (Filter, HashAggregate)):
            expected = operator.child.bindings
        elif isinstance(operator, (HashJoin, IndexLookupJoin)):
            expected = [binding for child in operator.children for binding in child.bindings]
        elif isinstance(operator, (SeqScan, IndexScan)):
            table_columns = list(operator.table.schema.column_names)
            if len(operator.bindings) != 1 or list(operator.bindings[0][1]) != table_columns:
                diagnostics.append(
                    BINDING_SHAPE.at(
                        operator.label(),
                        "scan bindings do not expose the table schema",
                    )
                )
            return
        elif isinstance(operator, SubqueryScan):
            if len(operator.bindings) != 1 or list(operator.bindings[0][1]) != list(
                operator.plan.output_columns
            ):
                diagnostics.append(
                    BINDING_SHAPE.at(
                        operator.label(),
                        "subquery scan bindings diverge from the subplan's output",
                    )
                )
            return
        elif isinstance(operator, EmptyRow):
            if operator.bindings:
                diagnostics.append(
                    BINDING_SHAPE.at(operator.label(), "EmptyRow must bind nothing")
                )
            return
        if expected is not None and list(operator.bindings) != list(expected):
            diagnostics.append(
                BINDING_SHAPE.at(
                    operator.label(),
                    "operator bindings are not the concatenation of its children's",
                )
            )

    def _check_unique_bindings(
        self, root: Operator, diagnostics: list[Diagnostic]
    ) -> None:
        seen: set[str] = set()
        for name, _ in root.bindings:
            if name.lower() in seen:
                diagnostics.append(
                    BINDING_SHAPE.at(
                        root.label(), f"table name {name!r} specified more than once"
                    )
                )
            seen.add(name.lower())

    def _operator_expressions(self, operator: Operator):
        """``(expression, input bindings)`` pairs the operator will evaluate."""
        if isinstance(operator, Filter):
            for predicate in operator.predicates:
                yield predicate, operator.child.bindings
        elif isinstance(operator, HashJoin):
            for left_key, right_key in operator.pairs:
                yield left_key, operator.left.bindings
                yield right_key, operator.right.bindings
            for predicate in operator.residual:
                yield predicate, operator.bindings
        elif isinstance(operator, IndexLookupJoin):
            yield operator.outer_key, operator.outer.bindings
            for predicate in operator.residual:
                yield predicate, operator.bindings
        elif isinstance(operator, HashAggregate):
            for expr in operator.group_exprs:
                yield expr, operator.child.bindings
            if operator.having is not None:
                # HAVING may reference both group keys and aggregate results;
                # only plain column references are checkable here.
                yield operator.having, operator.child.bindings
        elif isinstance(operator, IndexScan) and operator.probe:
            # The probe expression is evaluated against the *outer* row of the
            # driving IndexLookupJoin; that join yields it as outer_key.
            return

    def _check_columns(
        self, operator: Operator, allow_outer: bool, diagnostics: list[Diagnostic]
    ) -> None:
        for expr, bindings in self._operator_expressions(operator):
            for node in iter_expressions(expr):
                if not isinstance(node, ColumnRef):
                    continue
                if _reads(node, bindings):
                    continue
                if allow_outer:
                    continue  # may resolve against the enclosing query's row
                diagnostics.append(
                    COLUMN_RESOLUTION.at(
                        operator.label(),
                        f"column {node.table + '.' if node.table else ''}{node.name} "
                        f"is not resolvable from this operator's input",
                    )
                )

    def _check_batch_contract(self, plan: SelectPlan, diagnostics: list[Diagnostic]) -> None:
        for operator in _walk(plan.root):
            if isinstance(operator, HashAggregate):
                diagnostics.append(
                    BATCH_CONTRACT.at(
                        operator.label(),
                        "aggregate operator inside the streamed pipeline: it is "
                        "consumed via groups() and must be plan.aggregate",
                    )
                )
        if plan.aggregate is not None:
            if not isinstance(plan.aggregate, HashAggregate):
                diagnostics.append(
                    BATCH_CONTRACT.at(
                        plan.aggregate.label(),
                        "plan.aggregate is not an aggregate operator",
                    )
                )
            elif plan.aggregate.child is not plan.root:
                diagnostics.append(
                    BATCH_CONTRACT.at(
                        plan.aggregate.label(),
                        "plan.aggregate must consume plan.root directly",
                    )
                )

    def _check_params(
        self, plan: SelectPlan, top: Operator, diagnostics: list[Diagnostic]
    ) -> None:
        parameters = collect_parameters(plan.statement)
        if not parameters:
            return
        reachable: set[int] = set()

        def mark(expr: Expression | None) -> None:
            if expr is None:
                return
            stack = [expr]
            while stack:
                current = stack.pop()
                for node in iter_expressions(current):
                    if isinstance(node, ParamLiteral):
                        reachable.add(id(node))
                for subquery in iter_subqueries(current):
                    _mark_statement(subquery)

        def _mark_statement(statement: SelectStatement) -> None:
            mark(statement.where)
            mark(statement.having)
            for item in statement.select_items:
                mark(item.expression)
            for expr in statement.group_by:
                mark(expr)
            for item in statement.order_by:
                mark(item.expression)

        for operator in _walk(top):
            for expr, _ in self._operator_expressions(operator):
                mark(expr)
            if isinstance(operator, IndexScan):
                mark(operator.value_expr)
            elif isinstance(operator, SubqueryScan):
                _mark_statement(operator.plan.statement)
        # Post-pipeline clauses the executor evaluates from the statement.
        statement = plan.statement
        for item in statement.select_items:
            mark(item.expression)
        for expr in statement.group_by:
            mark(expr)
        mark(statement.having)
        for item in statement.order_by:
            mark(item.expression)
        for parameter in parameters:
            if id(parameter) not in reachable:
                diagnostics.append(
                    PARAM_BINDING.at(
                        top.label(),
                        f"parameter (value {parameter.value!r}) is unreachable from "
                        f"the operator tree; re-binding a cached plan would use a "
                        f"stale constant",
                    )
                )
