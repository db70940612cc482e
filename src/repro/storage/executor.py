"""SQL executor.

Executes parsed statements against the tables owned by a
:class:`~repro.storage.database.Database`.  Since the planner/executor split,
the SELECT pipeline has three real layers:

* **parse** — :mod:`repro.sql.parser` produces the AST,
* **plan** — :class:`~repro.storage.planner.Planner` performs predicate
  pushdown, chooses per-table access paths (``IndexScan`` vs ``SeqScan``),
  orders joins by estimated cardinality, and picks physical joins (hash join
  with cost-chosen build side, index nested-loop join),
* **execute** — this module streams rows through the Volcano-style operator
  tree (:mod:`repro.storage.operators`) and applies projection, grouping and
  aggregation (COUNT/SUM/AVG/MIN/MAX, DISTINCT), HAVING, ORDER BY (including
  select-list aliases), DISTINCT, LIMIT/OFFSET, and correlated and
  uncorrelated subqueries (IN / EXISTS / scalar).

When a query has no ORDER BY and no aggregate, output rows stream straight
out of the operator pipeline and LIMIT short-circuits the scan.

Since the batched-execution refactor the executor consumes the operator tree
batch-at-a-time (``root.batches(ctx)``, lists of flat tuples laid out by
``root.bindings``): projection runs over whole batches, and the planner has
already turned every select item and ORDER BY key that reads a column (or an
output column) into a position and compiled every other one
(:func:`~repro.storage.expression.compile_expression`), so simple select
lists (columns and ``*``) are one ``itemgetter`` mapped over the batch and a
computed item is its closure mapped over it.  On streaming plans with a LIMIT the
context's batch size tracks the remaining row budget, so a short-circuited
scan touches exactly as many heap rows as the row-at-a-time engine did when
the scan feeds the limit directly (and at most one shrunken batch more when
a filter sits in between).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.errors import ExecutionError
from repro.obs.metrics import engine_timer
from repro.storage.aggregates import hashable_value
from repro.storage.exec_settings import DEFAULT_SETTINGS
from repro.storage.expression import Scope
from repro.storage.operators import (
    ExecutionContext,
    Filter,
    HashJoin,
    IndexScan,
    NodeStats,
    SeqScan,
    row_width,
)
from repro.storage.planner import Planner, SelectPlan
from repro.storage.types import sort_key
from repro.sql.ast_nodes import SelectStatement


@dataclass
class ExecutionStats:
    """Runtime statistics of one executed statement.

    The one per-statement counter record: operators and the executor
    increment it while the statement runs (``ExecutionContext.metrics``), the
    :class:`~repro.storage.database.Database` facade adds what only it knows
    (statement kind, cache hits, elapsed time) and hands the same object out
    as ``QueryResult.stats``.  ``rows_scanned`` counts rows actually fetched
    by the chosen access paths (an index lookup charges only the matching
    rows, a sequential scan charges every row), so profiler numbers stay
    honest across plan changes.
    """

    elapsed_seconds: float = 0.0
    rows_scanned: int = 0
    rows_joined: int = 0
    result_cardinality: int = 0
    statement_kind: str = "select"
    index_lookups: int = 0
    #: True when the statement executed through a re-bound cached plan.
    plan_cache_hit: bool = False
    #: Batches the executor consumed from the plan root (batched pipeline).
    batches: int = 0
    #: True when the raw SQL text skipped the parser via the statement cache.
    statement_cache_hit: bool = False
    #: Groups formed by the aggregation stage (before HAVING filtering).
    groups_emitted: int = 0
    #: Wall time spent inside the aggregation stage (its input scan included).
    agg_seconds: float = 0.0


class Executor:
    """Executes statements against a table provider.

    ``table_provider`` must expose ``table(name) -> Table`` and
    ``catalog`` (used only for error messages here; DDL is handled by the
    Database facade, not the executor).
    """

    def __init__(self, table_provider, deadline: float | None = None):
        self._provider = table_provider
        self._settings = getattr(table_provider, "exec_settings", None) or DEFAULT_SETTINGS
        #: The one duration source for ExecutionStats seconds, operator
        #: instrumentation, and timeout deadlines: the provider's telemetry
        #: timer when one is attached, else the sanctioned engine timer.
        self._timer = getattr(table_provider, "statement_timer", None) or engine_timer
        #: Absolute ``_timer`` deadline of the statement's timeout budget.
        self._deadline = deadline
        self.metrics = ExecutionStats()

    # -- public entry points --------------------------------------------------

    def execute_plan(
        self,
        plan: SelectPlan,
        outer_scope: Scope | None = None,
        node_stats: dict[int, NodeStats] | None = None,
    ) -> tuple[list[str], list[tuple]]:
        """Run an already-planned SELECT (used by the Database's plan cache).

        ``node_stats`` — a dict the caller owns — switches on EXPLAIN ANALYZE
        instrumentation: every operator records its actual rows/batches/time
        under ``id(operator)``, and the executor stores the statement's output
        cardinality under the ``"output_rows"`` key.
        """
        self.metrics = ExecutionStats()
        return self._execute_plan(plan, outer_scope, node_stats)

    def _verify_plan(self, plan: SelectPlan, outer_scope: Scope | None) -> None:
        """Run the plan-invariant verifier (``ExecutionSettings.verify_plans``).

        Imported lazily: the analysis layer sits above the storage layer and
        only loads when the guardrail is switched on.  Plans executed with an
        outer scope are (possibly correlated) subqueries, so a column of the
        enclosing query's row is legal there.
        """
        from repro.analysis.framework import Severity
        from repro.analysis.plan_verify import PlanVerifier

        diagnostics = PlanVerifier().verify_select(
            plan, allow_outer=outer_scope is not None
        )
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        if errors:
            details = "; ".join(d.format() for d in errors)
            raise ExecutionError(f"plan failed verification: {details}")

    # -- SELECT pipeline --------------------------------------------------------

    def _select(
        self, statement: SelectStatement, outer_scope: Scope | None
    ) -> tuple[list[str], list[tuple]]:
        plan = Planner(self._provider).plan_select(statement)
        return self._execute_plan(plan, outer_scope)

    def _execute_plan(
        self,
        plan: SelectPlan,
        outer_scope: Scope | None,
        node_stats: dict[int, NodeStats] | None = None,
    ) -> tuple[list[str], list[tuple]]:
        if self._settings.verify_plans:
            self._verify_plan(plan, outer_scope)
        statement = plan.statement
        ctx = ExecutionContext(
            metrics=self.metrics,
            outer_scope=outer_scope,
            run_subquery=self._run_subquery,
            run_select=lambda subplan: self._execute_plan(
                subplan, outer_scope, node_stats
            ),
            batch_size=self._settings.batch_size,
            node_stats=node_stats,
            deadline=self._deadline,
            timer=self._timer,
        )
        plan.frame.enter(ctx)
        columns, project = plan.output_columns, plan.project
        if plan.aggregate is not None or statement.order_by:
            if plan.aggregate is not None:
                rows = _aggregated(plan, ctx)
            else:
                slots = _order_slots(plan)
                entries = []
                for batch in plan.root.batches(ctx):
                    self.metrics.batches += 1
                    entries += batch if slots is not None else zip(batch, project(batch))
                if slots is not None:
                    for slot, ascending in reversed(slots):
                        _sort_by_slot(entries, slot, ascending)
                    rows = project(entries)
                else:
                    _sort_entries(entries, _order_keys(plan))
                    rows = [output_row for _, output_row in entries]
            if statement.distinct:
                rows = _distinct(rows)
        else:
            # Pure streaming path: project batch by batch, stop once LIMIT
            # is met.  On single-table scan/filter pipelines the batch size
            # tracks the *remaining* LIMIT budget (scans re-read it after
            # every flush), so a short-circuited scan touches exactly as many
            # heap rows as the row-at-a-time engine when it feeds the limit
            # directly, and at most one shrunken batch more behind a
            # filter.  Join pipelines keep the configured batch size — their
            # build sides consume whole inputs regardless, and throttling them
            # to the LIMIT would re-introduce per-row batch overhead.
            needed = (
                statement.limit + (statement.offset or 0)
                if statement.limit is not None
                else None
            )
            budget = needed if _limit_budget_applies(plan.root) else None
            base_batch = ctx.batch_size
            if budget is not None:
                ctx.batch_size = max(min(budget, base_batch), 1)
            seen: set | None = set() if statement.distinct else None
            rows = []
            done = False
            # A join root emits a select list of positions itself.
            batches = type(plan.root) is HashJoin and plan.root.projected_batches(
                ctx, plan.projection
            )
            if batches:
                project = list
            for batch in batches or plan.root.batches(ctx):
                self.metrics.batches += 1
                values_batch = project(batch)
                if seen is None and needed is None:
                    # No DISTINCT and no LIMIT: the whole projected batch
                    # survives, so skip the per-row loop entirely.
                    rows.extend(values_batch)
                    continue
                for values in values_batch:
                    if seen is not None:
                        key = tuple(hashable_value(value) for value in values)
                        if key in seen:
                            continue
                        seen.add(key)
                    rows.append(values)
                    if needed is not None and len(rows) >= needed:
                        done = True
                        break
                if done:
                    break
                if budget is not None:
                    ctx.batch_size = max(min(budget - len(rows), base_batch), 1)
        rows = _apply_limit(rows, statement.limit, statement.offset)
        self.metrics.result_cardinality = len(rows)
        if node_stats is not None:
            node_stats["output_rows"] = len(rows)
        return columns, rows

    # -- subqueries -------------------------------------------------------------------

    def _run_subquery(self, subquery: SelectStatement, scope: Scope) -> list[tuple]:
        # Subqueries inherit the statement's timeout budget: a runaway
        # correlated subquery cancels at its own batch boundaries.
        nested = Executor(self._provider, deadline=self._deadline)
        _, rows = nested._select(subquery, scope)
        self.metrics.rows_scanned += nested.metrics.rows_scanned
        self.metrics.rows_joined += nested.metrics.rows_joined
        self.metrics.index_lookups += nested.metrics.index_lookups
        return rows


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _aggregated(plan: SelectPlan, ctx: ExecutionContext) -> list[tuple]:
    """The output rows of an aggregating plan.  The operator
    (:class:`~repro.storage.operators.HashAggregate`) streams
    ``(representative row, finished aggregate values)`` pairs; a group's row
    is the one followed by the other (an empty ungrouped input is one group
    with no representative: its columns read as NULL), and HAVING, the
    projection and ORDER BY are compiled over it."""
    blank = (None,) * row_width(plan.root.bindings)
    groups = [
        (blank if representative is None else representative) + tuple(finished)
        for representative, finished in plan.aggregate.groups(ctx)
    ]
    if plan.having is not None:
        groups = [group for group in groups if plan.having(group) is True]
    if not plan.statement.order_by:
        return plan.project(groups)
    entries = list(zip(groups, plan.project(groups)))
    _sort_entries(entries, _order_keys(plan))
    return [values for _, values in entries]


def _order_keys(plan: SelectPlan):
    """One ``(entry -> sort key, ascending)`` pair per ORDER BY item, over
    entries ``(source row, output row)``: where the planner decided the item
    reads (``plan.order_keys``), an output column, a position of the source
    row, or its compiled value of the source row."""
    keys = []
    for key, compiled in zip(plan.order_keys, plan.order_values):
        if key.output is not None:
            order = lambda entry, _index=key.output: sort_key(entry[1][_index])
        elif key.slot is not None:
            order = lambda entry, _slot=key.slot: sort_key(entry[0][_slot])
        else:
            order = lambda entry, _value=compiled: sort_key(_value(entry[0]))
        keys.append((order, key.ascending))
    return keys


def _limit_budget_applies(op) -> bool:
    """True when shrinking the batch size to the LIMIT budget is a pure win.

    That is the single-table streaming shape — filters over one sequential or
    index scan — where every batch the scan builds feeds the limit
    directly (filters only drop rows).  Joins and subquery scans are
    excluded: they consume entire inputs (build sides) regardless of the
    limit, so tiny batches would only re-introduce the per-row overhead
    batching removes.
    """
    while isinstance(op, Filter):
        op = op.child
    return isinstance(op, (SeqScan, IndexScan))


def _sort_entries(entries: list, keys) -> None:
    """Sort in place by :func:`_order_keys` pairs: one stable pass
    per key, last key first, so entries equal under every key keep their
    input order whatever mix of ASC and DESC the keys are."""
    for key, ascending in reversed(keys):
        entries.sort(key=key, reverse=not ascending)


def _order_slots(plan: SelectPlan) -> list[tuple[int, bool]] | None:
    """Each ORDER BY item's ``(source position, ascending)`` (an output column
    reads the position it projects), or None when an item is computed."""
    slots = []
    for key in plan.order_keys:
        slot = key.slot if key.output is None else plan.projection[key.output]
        if type(slot) is not int:
            return None
        slots.append((slot, key.ascending))
    return slots


def _sort_by_slot(rows: list[tuple], slot: int, ascending: bool) -> None:
    """One stable :func:`_sort_entries` pass over source rows by position
    ``slot``.  Non-NULL values all numbers or all text sort natively (the
    ``sort_key`` order), NULLs set aside and put back first (ASC) or last
    (DESC); any other mix of types sorts by ``sort_key``."""
    value, nulls = itemgetter(slot), []
    kinds = set(map(type, map(value, rows)))
    if type(None) in kinds:
        kinds.discard(type(None))
        nulls = [row for row in rows if row[slot] is None]
        rows[:] = [row for row in rows if row[slot] is not None]
    if kinds <= {int, float, bool} or kinds == {str}:
        rows.sort(key=value, reverse=not ascending)
    else:
        rows.sort(key=lambda row: sort_key(row[slot]), reverse=not ascending)
    at = 0 if ascending else len(rows)
    rows[at:at] = nulls


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen = set()
    unique = []
    for row in rows:
        key = tuple(hashable_value(value) for value in row)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def _apply_limit(rows: list[tuple], limit: int | None, offset: int | None) -> list[tuple]:
    start = offset or 0
    if limit is None:
        return rows[start:] if start else rows
    return rows[start : start + limit]
