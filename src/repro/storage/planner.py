"""Cost-based logical/physical planner for SELECT and DML statements.

The planner is the middle layer of the engine's parse → bind → plan → execute
pipeline.  Given a parsed :class:`~repro.sql.ast_nodes.SelectStatement` it

0. binds it (:class:`~repro.storage.binder.Binder`): every column reference
   learns its binding and column, or the statement fails here, before any
   row is read — everything below reads the bound references,
1. splits the WHERE clause into conjuncts and pushes single-table conjuncts
   down to their leaf,
2. chooses an *access path* per leaf — an :class:`~repro.storage.operators.IndexScan`
   when an equality conjunct matches a :class:`~repro.storage.indexes.HashIndex`,
   otherwise a :class:`~repro.storage.operators.SeqScan` (range predicates
   and ORDER BY are served by the Filter kernels and the executor's sort),
3. orders the joins greedily by estimated cardinality (table statistics when
   cached, cheap index/row-count estimates otherwise) and picks a physical
   join per step — an index nested-loop join when the inner table has a hash
   index on the join key and the outer side is estimated smaller than an
   inner scan, else a hash join with the estimated-smaller side as build side
   (with no key pair, a cross product); an outer join is one leaf of that
   tree, planned where it is written (:meth:`Planner._plan_outer`),
4. leaves conjuncts that cannot be placed (subqueries, enclosing-query
   columns) as a residual :class:`~repro.storage.operators.Filter` above the
   join tree.

UPDATE and DELETE go through the same access-path selection via
:meth:`Planner.plan_update` / :meth:`Planner.plan_delete`, which return a
:class:`DmlPlan` whose scan yields candidate ``(row_id, row)`` pairs — an
indexed WHERE prunes the heap instead of scanning it.

The result is a :class:`SelectPlan` whose operator tree the executor streams;
:meth:`SelectPlan.explain_lines` renders the plan for ``Database.explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter

from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    DeleteStatement,
    ExistsSubquery,
    Expression,
    FromItem,
    InList,
    InSubquery,
    Join,
    Literal,
    ScalarSubquery,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UpdateStatement,
    iter_expressions,
    replaced,
    walk,
)
from repro.sql.formatter import format_expression
from repro.storage.aggregates import (
    collect_aggregate_specs,
    statement_has_aggregates,
)
from repro.storage.binder import (
    Binder,
    BoundColumn,
    compute_output_columns,
    star_bindings,
    table_columns,
)
from repro.storage.expression import Compiled, Frame, compile_expression, layout_of, slot_of
from repro.storage.kernels import compile_columnar_conjuncts
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
    equality_probe_keys,
    row_width,
    slots_getter,
)
from repro.storage.statistics import group_count_estimate, join_key_overlap

#: Cardinality guess for derived tables (no statistics available at plan time).
DEFAULT_SUBQUERY_ESTIMATE = 100.0

#: Fallback selectivities when neither statistics nor indexes can help.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_SELECTIVITY = 0.33

#: Cost of faulting one heap page through the buffer pool (decode on miss,
#: LRU bookkeeping on hit).  Deliberately small relative to the per-row
#: constants — a page holds ~128 rows, so page I/O shades scan costs toward
#: page-frugal paths without flipping row-count-driven decisions.
PAGE_IO_COST = 0.05


@dataclass
class PlanExplanation:
    """The result of ``Database.explain``: a statement kind plus plan lines."""

    statement_kind: str
    lines: list[str] = field(default_factory=list)
    root: Operator | None = None
    #: True when the rendered plan was served from the plan cache (the lines
    #: then show the template form with ``'?'`` parameter placeholders).
    plan_cache_hit: bool = False
    #: True for EXPLAIN ANALYZE: the statement was executed and the lines
    #: carry per-node actual rows/batches/wall time plus a summary line.
    analyzed: bool = False
    #: The execution's statistics when ``analyzed`` (None otherwise).
    stats: object | None = None

    def text(self) -> str:
        return "\n".join(self.lines)

    def __str__(self) -> str:
        return self.text()

    def __contains__(self, needle: str) -> bool:
        return needle in self.text()


@dataclass(frozen=True)
class OrderKey:
    """Where one ORDER BY item reads its value, decided at plan time: output
    column ``output``, position ``slot`` of the source row, or else
    ``expression`` computed over the source row."""

    ascending: bool
    output: int | None = None
    slot: int | None = None
    expression: Expression | None = None


@dataclass
class SelectPlan:
    """A planned SELECT: the FROM/WHERE operator pipeline plus metadata.

    ``statement`` is the bound statement.  ``bindings`` lists the relation's
    bindings in FROM-clause order (the order ``SELECT *`` expands in),
    independent of the join order the planner chose; ``root.bindings`` lists
    the same bindings in FROM order where the join order allows, else in join
    order: the layout of the rows ``root`` streams.  No name appears twice.
    The executor's own expressions — computed select items, HAVING, computed
    ORDER BY keys — are compiled with the plan, over ``root``'s rows or, in
    an aggregating plan, over a group's row: its representative row followed
    by its finished aggregate values, where an aggregate call reads its own.
    """

    statement: SelectStatement
    root: Operator
    bindings: list[tuple[str, list[str]]]
    output_columns: list[str]
    #: Per output value, read against ``root.bindings``: a position of the
    #: source row, or the expression that computes it.
    projection: list = field(default_factory=list)
    #: One per ORDER BY item, read against ``root.bindings``.
    order_keys: list[OrderKey] = field(default_factory=list)
    #: Aggregation stage (:class:`~repro.storage.operators.HashAggregate`)
    #: whose child is ``root``; None iff the statement has no GROUP BY and no
    #: aggregate.
    aggregate: HashAggregate | None = None

    def __post_init__(self) -> None:
        finished, width = None, row_width(self.root.bindings)
        if self.aggregate is not None:
            finished = self.aggregate.finished_positions()
            width += len(self.aggregate.collection.specs)
        #: What the compiled expressions read besides their row; the executor
        #: fills it each time the plan runs.
        self.frame = Frame()

        def compile(expr: Expression) -> Compiled:
            return compile_expression(expr, self.root.bindings, self.frame, finished)

        #: ``rows -> output tuples`` (over groups' rows when aggregating).
        self.project = _projector(
            [part if type(part) is int else compile(part) for part in self.projection], width
        )
        #: Per ORDER BY item, its compiled expression, or None (it reads a position).
        self.order_values = [key.expression and compile(key.expression) for key in self.order_keys]
        #: The compiled HAVING, over a group's row; None without one.
        self.having = self.statement.having and compile(self.statement.having)

    def explain_lines(self, node_stats: dict | None = None) -> list[str]:
        """Render the plan tree; ``node_stats`` (EXPLAIN ANALYZE) annotates
        every operator with its actuals and the Project line with the
        statement's output cardinality."""
        lines: list[str] = []
        depth = 0
        statement = self.statement

        def push(text: str) -> None:
            nonlocal depth
            lines.append("  " * depth + text)
            depth += 1

        if statement.limit is not None or statement.offset:
            parts = []
            if statement.limit is not None:
                parts.append(f"limit={statement.limit}")
            if statement.offset:
                parts.append(f"offset={statement.offset}")
            push(f"Limit [{', '.join(parts)}]")
        if statement.distinct:
            push("Distinct")
        if statement.order_by:
            keys = ", ".join(
                format_expression(item.expression) + ("" if item.ascending else " DESC")
                for item in statement.order_by
            )
            push(f"Sort [{keys}]")
        if self.aggregate is not None:
            text = self.aggregate.label()
            if node_stats is not None:
                stats = node_stats.get(id(self.aggregate))
                text += (
                    f" ({stats.describe()})" if stats is not None else " (never executed)"
                )
            push(text)
        project = f"Project [{', '.join(self.output_columns)}]"
        if node_stats is not None and "output_rows" in node_stats:
            project += f" (actual rows={node_stats['output_rows']})"
        push(project)
        lines.extend(self.root.explain_lines(depth, node_stats))
        return lines

    def text(self) -> str:
        return "\n".join(self.explain_lines())


@dataclass
class DmlPlan:
    """A planned UPDATE or DELETE: the access path locating the target rows.

    ``scan`` is a :class:`~repro.storage.operators.SeqScan` or
    :class:`~repro.storage.operators.IndexScan` whose ``pairs(ctx)`` yields
    candidate ``(row_id, row)`` pairs; ``residual`` holds the WHERE conjuncts
    the access path does not already guarantee (checked per candidate row by
    the database before mutating, through ``kernels``).
    """

    kind: str  # "update" | "delete"
    table: object
    scan: Operator
    residual: list[Expression] = field(default_factory=list)
    #: UPDATE's bound ``(column, expression)`` SET pairs.
    assignments: tuple = ()

    def __post_init__(self) -> None:
        #: What the compiled residual and SET values read besides their row.
        self.frame = frame = Frame()
        #: One kernel per residual conjunct, in conjunct order.
        self.kernels = compile_columnar_conjuncts(self.residual, self.scan.bindings, frame)
        #: UPDATE's ``(column, compiled value)`` SET pairs.
        self.values = [
            (column, compile_expression(value, self.scan.bindings, frame))
            for column, value in self.assignments
        ]

    @property
    def root(self) -> Operator:
        """The full operator tree (residual filter included), for consumers
        walking the plan rather than reading its rendered lines."""
        if self.residual:
            return Filter(self.scan, self.residual, estimate=self.scan.estimate)
        return self.scan

    def explain_lines(self) -> list[str]:
        lines = [f"{self.kind.title()} [{self.table.name}]"]
        depth = 1
        if self.residual:
            predicates = " AND ".join(format_expression(p) for p in self.residual)
            lines.append("  " * depth + f"Filter ({predicates})")
            depth += 1
        lines.extend(self.scan.explain_lines(depth))
        return lines

    def text(self) -> str:
        return "\n".join(self.explain_lines())


@dataclass
class _Leaf:
    """One leaf of an inner-join tree while the planner is working on it: a
    base table, a derived table, or an outer join (both operands' bindings)."""

    bindings: list[tuple[str, list[str]]]  # in FROM order
    table: object | None = None          # Table for base tables
    subplan: SelectPlan | None = None    # the plan of a derived table
    outer: Join | None = None            # an outer join, over ``operands``:
    operands: tuple = ()                 # per side, its leaves and ON conjuncts
    predicates: list[Expression] = field(default_factory=list)
    operator: Operator | None = None
    estimate: float = 0.0
    seq_cost: float = 0.0                # cost of producing the leaf by scanning

    def __post_init__(self):
        #: The lower-cased binding names.
        self.names = {name.lower() for name, _ in self.bindings}

    @property
    def binding(self) -> str:
        """A base or derived table's one binding name."""
        return self.bindings[0][0]


class Planner:
    """Plans SELECT statements against a table provider.

    ``table_provider`` must expose ``table(name) -> Table``.  With
    ``use_indexes=False`` the planner only emits sequential scans and hash
    joins — used by benchmarks to quantify access-path quality.
    """

    def __init__(self, table_provider, use_indexes: bool = True):
        self._provider = table_provider
        self._binder = Binder(table_columns(table_provider))
        self._use_indexes = use_indexes

    # -- public entry point ----------------------------------------------------

    def plan_select(self, statement: SelectStatement) -> SelectPlan:
        statement = self._binder.select(statement)
        aggregating = bool(statement.group_by) or statement_has_aggregates(statement)
        conjuncts = _split_conjuncts(statement.where)
        leaves: list[_Leaf] = []
        if not statement.from_items:
            root: Operator = EmptyRow()
            if conjuncts:
                root = Filter(root, conjuncts, estimate=1.0)
            bindings: list[tuple[str, list[str]]] = []
        else:
            chain = reduce(_graft, statement.from_items)
            kinds = {getattr(node, "join_type", None) for node in walk(chain, False)}
            strict = not kinds.isdisjoint(("RIGHT", "FULL"))  # an ON reads only its operands
            leaves, on_conjuncts = self._flatten(chain, conjuncts, strict)
            conjuncts.extend(on_conjuncts)
            # SELECT * expands in FROM-clause order regardless of join order.
            bindings = [binding for leaf in leaves for binding in leaf.bindings]
            root = self._plan_joins(leaves, conjuncts)
        aggregate: HashAggregate | None = None
        if aggregating:
            aggregate = HashAggregate(
                root,
                statement.group_by,
                collect_aggregate_specs(statement),
                self._estimate_group_count(statement, leaves, root),
                having=statement.having,
            )
        return SelectPlan(
            statement=statement,
            root=root,
            bindings=bindings,
            output_columns=compute_output_columns(statement, bindings),
            projection=_projection(statement, bindings, root.bindings),
            order_keys=[
                _order_key(item, root.bindings) for item in statement.order_by
            ],
            aggregate=aggregate,
        )

    def _estimate_group_count(
        self, statement: SelectStatement, leaves: list[_Leaf], root: Operator
    ) -> float:
        """Estimated output groups: the product of per-key distinct counts
        (statistics/indexes when available), capped at the input estimate."""
        if not statement.group_by:
            return 1.0
        by_binding = {name: leaf for leaf in leaves for name, _ in leaf.bindings}
        distincts: list[float] = []
        for expr in statement.group_by:
            local = isinstance(expr, ColumnRef) and not expr.depth
            leaf = by_binding.get(expr.binding) if local else None
            distincts.append(
                1.0 / DEFAULT_EQ_SELECTIVITY
                if leaf is None
                else self._distinct_estimate(leaf, expr.column)
            )
        return group_count_estimate(distincts, max(root.estimate, 1.0))

    def plan_update(self, statement: UpdateStatement) -> DmlPlan:
        """Plan an UPDATE: choose the access path locating the target rows."""
        return self._plan_dml(self._binder.dml(statement), "update")

    def plan_delete(self, statement: DeleteStatement) -> DmlPlan:
        """Plan a DELETE: choose the access path locating the target rows."""
        return self._plan_dml(self._binder.dml(statement), "delete")

    def _plan_dml(self, statement: UpdateStatement | DeleteStatement, kind: str) -> DmlPlan:
        table_name = statement.table
        table = self._provider.table(table_name)
        leaf = _Leaf([(table_name, list(table.schema.column_names))], table=table)
        pushable: list[Expression] = []
        residual: list[Expression] = []
        for conjunct in _split_conjuncts(statement.where):
            if _covered(conjunct, leaf.names):
                pushable.append(conjunct)
            else:
                # Subqueries cannot drive an index; they are re-checked per
                # candidate row.
                residual.append(conjunct)
        leaf.predicates = pushable
        self._build_access_path(leaf)
        scan = leaf.operator
        filtered: list[Expression] = []
        while isinstance(scan, Filter):
            filtered.extend(scan.predicates)
            scan = scan.child
        return DmlPlan(
            kind=kind,
            table=table,
            scan=scan,
            residual=filtered + residual,
            assignments=getattr(statement, "assignments", ()),
        )

    # -- FROM flattening --------------------------------------------------------

    def _flatten(
        self, item: FromItem, hoisted: list[Expression], strict: bool
    ) -> tuple[list[_Leaf], list[Expression]]:
        """The leaves of ``item``'s inner-join tree in FROM order, and its ON
        conjuncts.  An outer join is one leaf.  Unless ``strict``, an inner ON
        may name a table to its right, so an operand's conjunct that may read
        outside it is a WHERE conjunct, as in sqlite: it goes to ``hoisted``
        (the operand is a LEFT join's preserved side, so that is sound)."""
        if isinstance(item, Join) and item.join_type in ("INNER", "CROSS"):
            left_leaves, left_conjuncts = self._flatten(item.left, hoisted, strict)
            right_leaves, right_conjuncts = self._flatten(item.right, hoisted, strict)
            conjuncts = left_conjuncts + right_conjuncts
            conjuncts.extend(_split_conjuncts(item.condition))
            return left_leaves + right_leaves, conjuncts
        if isinstance(item, TableRef):
            table = self._provider.table(item.name)
            return [_Leaf([(item.binding, list(table.schema.column_names))], table=table)], []
        if isinstance(item, SubqueryRef):
            subplan = self.plan_select(item.subquery)
            return [_Leaf([(item.alias, list(subplan.output_columns))], subplan=subplan)], []
        if isinstance(item, Join):
            operands = []
            for operand in (item.left, item.right):
                leaves, conjuncts = self._flatten(operand, hoisted, strict)
                names = {name for leaf in leaves for name in leaf.names}
                local = []
                for conjunct in conjuncts:
                    inside = strict or _covered(conjunct, names)
                    (local if inside else hoisted).append(conjunct)
                operands.append((leaves, local))
            bindings = [b for leaves, _ in operands for leaf in leaves for b in leaf.bindings]
            return [_Leaf(bindings, outer=item, operands=tuple(operands))], []
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _plan_outer(self, leaf: _Leaf) -> None:
        """An outer-join leaf: a HashJoin of its type over its operands' own
        inner-join trees, keyed on its ON's equi pairs.  A conjunct pushed to
        the leaf moves into an operand only when that operand is preserved,
        else it stays above the join: none moves below a null-supplying side."""
        join = leaf.outer
        names = [set().union(*(inner.names for inner in side)) for side, _ in leaf.operands]
        preserved = {"LEFT": 0, "RIGHT": 1}.get(join.join_type)
        pushed: tuple[list, list] = ([], [])
        above: list[Expression] = []
        for conjunct in leaf.predicates:
            if preserved is not None and _covered(conjunct, names[preserved]):
                pushed[preserved].append(conjunct)
            else:
                above.append(conjunct)
        left, right = (
            self._plan_joins(leaves, into + conjuncts)
            for (leaves, conjuncts), into in zip(leaf.operands, pushed)
        )
        on = _split_conjuncts(join.condition)
        equi = _find_equi_joins(on, *names)
        keys = {id(conjunct) for conjunct, _, _ in equi}
        # A keyed join finds about one partner per row of the larger side.
        left_est, right_est = max(left.estimate, 1.0), max(right.estimate, 1.0)
        estimate = max(left_est, right_est) if equi else left_est * right_est
        pairs = [(left_key, right_key) for _, left_key, right_key in equi]
        residual = [conjunct for conjunct in on if id(conjunct) not in keys]
        # The null-supplying side is built: right for LEFT and FULL.
        op: Operator = HashJoin(
            left, right, pairs, estimate, join.join_type == "RIGHT", join.join_type, residual
        )
        if above:
            op = Filter(op, above, estimate=estimate)
        leaf.operator, leaf.estimate, leaf.seq_cost = op, estimate, estimate

    # -- join planning -----------------------------------------------------------

    def _plan_joins(self, leaves: list[_Leaf], conjuncts: list[Expression]) -> Operator:
        """The inner-join tree of ``leaves`` with every conjunct applied."""
        leaf_by_binding = {name: leaf for leaf in leaves for name in leaf.names}

        # Push conjuncts reading one leaf down to it; conjuncts whose binding
        # set is undecidable (subqueries, enclosing-query columns), empty, or
        # not within one leaf stay in the shared pool.
        remaining: list[Expression] = []
        per_leaf: dict[int, list[Expression]] = {}
        for conjunct in conjuncts:
            bindings = _conjunct_bindings(conjunct)
            leaf = leaf_by_binding.get(next(iter(bindings))) if bindings else None
            if leaf is not None and bindings <= leaf.names:
                per_leaf.setdefault(id(leaf), []).append(conjunct)
            else:
                remaining.append(conjunct)
        for leaf in leaves:
            leaf.predicates = per_leaf.get(id(leaf), [])
            self._build_access_path(leaf)

        # Greedy join order: start from the smallest estimated leaf, then
        # repeatedly attach the smallest leaf connected by an equi-join
        # (falling back to the smallest remaining leaf as a cross join).
        start_index = min(
            range(len(leaves)), key=lambda i: (leaves[i].estimate, i)
        )
        first = leaves[start_index]
        current: Operator = first.operator
        current_est = first.estimate
        current_bindings = set(first.names)
        pending = [(i, leaf) for i, leaf in enumerate(leaves) if i != start_index]
        foremost = start_index  # the first FROM position joined so far
        unjoined = remaining
        while pending:
            best_key = None
            best_index = 0
            best_equi: list[tuple[Expression, ColumnRef, ColumnRef]] = []
            for index, (_, leaf) in enumerate(pending):
                equi = _find_equi_joins(unjoined, current_bindings, leaf.names)
                key = (0 if equi else 1, leaf.estimate, index)
                if best_key is None or key < best_key:
                    best_key, best_index, best_equi = key, index, equi
            position, leaf = pending.pop(best_index)
            current, current_est = self._join(
                current, current_est, leaf, best_equi, leaf_by_binding, position < foremost
            )
            foremost = min(foremost, position)
            used = {id(conjunct) for conjunct, _, _ in best_equi}
            unjoined = [c for c in unjoined if id(c) not in used]
            current_bindings |= leaf.names
            # Apply any conjunct now fully covered by the joined bindings.
            applicable = [c for c in unjoined if _covered(c, current_bindings)]
            if applicable:
                current = Filter(current, applicable, estimate=current_est)
                done = {id(conjunct) for conjunct in applicable}
                unjoined = [c for c in unjoined if id(c) not in done]
        if unjoined:
            current = Filter(current, unjoined, estimate=current.estimate)
        return current

    def _join(
        self,
        current: Operator,
        current_est: float,
        leaf: _Leaf,
        equi: list[tuple[Expression, ColumnRef, ColumnRef]],
        leaf_by_binding: dict[str, "_Leaf"],
        leaf_first: bool,
    ) -> tuple[Operator, float]:
        """Attach ``leaf`` to ``current``, choosing the physical join.  A hash
        join's left input is ``leaf`` if ``leaf_first`` in FROM order, so its
        row keeps FROM order; the estimates alone choose what it builds."""
        if equi:
            joined_est = self._equi_join_estimate(current_est, leaf, equi[0], leaf_by_binding)
            indexed = self._indexed_join_key(leaf, equi)
            if indexed is not None and current_est < leaf.seq_cost:
                _, outer_key, leaf_key = indexed
                residual = [conjunct for conjunct, _, key in equi if key is not leaf_key]
                residual.extend(leaf.predicates)
                probe = IndexScan(
                    leaf.table,
                    leaf.binding,
                    leaf_key.column,
                    outer_key,
                    estimate=max(
                        leaf.seq_cost / self._distinct_estimate(leaf, leaf_key.column),
                        1.0,
                    ),
                    probe=True,
                )
                return IndexLookupJoin(current, probe, outer_key, residual, joined_est), joined_est
            pairs = [(left, right) for _, left, right in equi]
            build_left = current_est <= leaf.estimate
        else:
            joined_est = max(current_est, 1.0) * max(leaf.estimate, 1.0)
            pairs, build_left = [], False
        if leaf_first:
            swapped = [(right, left) for left, right in pairs]
            return HashJoin(leaf.operator, current, swapped, joined_est, not build_left), joined_est
        return HashJoin(current, leaf.operator, pairs, joined_est, build_left), joined_est

    def _equi_join_estimate(
        self,
        current_est: float,
        leaf: _Leaf,
        equi: tuple[Expression, ColumnRef, ColumnRef],
        leaf_by_binding: dict[str, "_Leaf"],
    ) -> float:
        """Calibrated equi-join fanout: ``|L|·|R| / max(d_L, d_R)`` over the
        *overlapping* part of the two key domains.

        Distinct counts come from both join columns (classical containment
        assumption), not just the inner side; when both columns carry cached
        histograms, each side's cardinality and distinct count are scaled to
        the fraction of its rows whose key falls inside the intersection of
        the two value ranges (:func:`~repro.storage.statistics.join_key_overlap`),
        so joins between partially or non-overlapping key domains stop being
        costed as if every key matched.
        """
        _, outer_column, leaf_column = equi
        outer_leaf = leaf_by_binding.get(outer_column.binding.lower())
        inner_distinct = self._distinct_estimate(leaf, leaf_column.column)
        outer_distinct = (
            self._distinct_estimate(outer_leaf, outer_column.column)
            if outer_leaf is not None
            else 1.0
        )
        outer_fraction, inner_fraction = join_key_overlap(
            self._column_statistics(outer_leaf, outer_column.column),
            self._column_statistics(leaf, leaf_column.column),
        )
        denominator = max(
            outer_distinct * outer_fraction, inner_distinct * inner_fraction, 1.0
        )
        return max(
            1.0,
            (current_est * outer_fraction)
            * (max(leaf.estimate, 1.0) * inner_fraction)
            / denominator,
        )

    def _column_statistics(self, leaf: "_Leaf | None", column_name: str):
        """The cached ColumnStatistics of a leaf column, or None."""
        if leaf is None or leaf.table is None:
            return None
        stats = leaf.table.cached_statistics
        if stats is None:
            return None
        return stats.columns.get(column_name.lower())

    def _indexed_join_key(
        self, leaf: _Leaf, equi: list[tuple[Expression, ColumnRef, ColumnRef]]
    ) -> tuple[Expression, ColumnRef, ColumnRef] | None:
        """The first equi pair whose leaf-side column has a hash index."""
        if not self._use_indexes or leaf.table is None:
            return None
        for conjunct, outer_key, leaf_key in equi:
            if leaf.table.index_for(leaf_key.column) is not None:
                return conjunct, outer_key, leaf_key
        return None

    # -- access paths -------------------------------------------------------------

    def _build_access_path(self, leaf: _Leaf) -> None:
        """Choose the leaf's operator and estimates (sets fields in place)."""
        if leaf.outer is not None:
            self._plan_outer(leaf)
            return
        if leaf.table is None:
            leaf.seq_cost = DEFAULT_SUBQUERY_ESTIMATE
            estimate = DEFAULT_SUBQUERY_ESTIMATE
            op: Operator = SubqueryScan(leaf.subplan, leaf.binding, estimate)
            if leaf.predicates:
                estimate *= DEFAULT_SELECTIVITY ** len(leaf.predicates)
                op = Filter(op, leaf.predicates, estimate=estimate)
            leaf.operator, leaf.estimate = op, estimate
            return
        table = leaf.table
        row_count = float(len(table))
        # A full scan faults every heap page through the buffer pool; an
        # index pick below overwrites seq_cost with its (page-frugal)
        # estimate, so the page term also nudges choices toward indexes.
        leaf.seq_cost = max(row_count, 1.0) + table.page_count * PAGE_IO_COST
        index_pick = self._pick_index_conjunct(table, leaf.predicates)
        if index_pick is not None:
            conjunct, column, value_expr, selectivity = index_pick
            estimate = max(row_count * selectivity, 0.0)
            op = IndexScan(table, leaf.binding, column, value_expr, estimate)
            leaf.seq_cost = max(estimate, 1.0)
            rest = [p for p in leaf.predicates if p is not conjunct]
        else:
            estimate = row_count
            op = SeqScan(table, leaf.binding, estimate)
            rest = list(leaf.predicates)
        if rest:
            for predicate in rest:
                estimate *= self._predicate_selectivity(table, predicate)
            op = Filter(op, rest, estimate=estimate)
        leaf.operator, leaf.estimate = op, estimate

    def _pick_index_conjunct(
        self, table, predicates: list[Expression]
    ) -> tuple[Expression, str, Expression, float] | None:
        """The most selective ``column = constant`` conjunct with a hash index."""
        if not self._use_indexes:
            return None
        best = None
        for predicate in predicates:
            match = _constant_equality(predicate)
            if match is None:
                continue
            column, value_expr = match
            canonical = column.column
            if table.index_for(canonical) is None:
                continue
            if isinstance(value_expr, Literal) and (
                equality_probe_keys(
                    value_expr.value, table.schema.column(canonical).data_type
                )
                is None
            ):
                # The comparison semantics need a compare_values scan; do not
                # promise an IndexScan the runtime would degrade anyway.
                continue
            selectivity = self._predicate_selectivity(table, predicate)
            candidate = (predicate, canonical, value_expr, selectivity)
            if best is None or selectivity < best[3]:
                best = candidate
        return best

    # -- estimation ----------------------------------------------------------------

    def _predicate_selectivity(self, table, predicate: Expression) -> float:
        comparison = _simple_comparison(predicate)
        if comparison is None:
            return DEFAULT_SELECTIVITY
        column, op, value = comparison
        stats = table.cached_statistics
        if stats is not None:
            return stats.selectivity(column.column, op, value)
        if op == "=":
            index = table.index_for(column.column)
            if index is not None and index.distinct_values():
                return 1.0 / index.distinct_values()
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def _distinct_estimate(self, leaf: _Leaf, column_name: str) -> float:
        """Estimated distinct count of a leaf column (join-size denominator)."""
        if leaf.table is None:
            return max(leaf.estimate, 1.0)
        index = leaf.table.index_for(column_name)
        if index is not None and index.distinct_values():
            return float(index.distinct_values())
        column_stats = self._column_statistics(leaf, column_name)
        if column_stats is not None:
            return float(max(column_stats.distinct_count, 1))
        return float(max(len(leaf.table), 1))


# ---------------------------------------------------------------------------
# Reading the binder's answer
# ---------------------------------------------------------------------------


def _projection(
    statement: SelectStatement,
    bindings: list[tuple[str, list[str]]],
    layout: list[tuple[str, list[str]]],
) -> list:
    """Per output value of a bound select list, where it comes from in rows
    laid out by ``layout``: a position (a column, or ``*`` expanded over the
    FROM-ordered ``bindings``), else the expression computing it."""
    offsets = layout_of(layout)
    parts: list = []
    for item in statement.select_items:
        expr = item.expression
        if isinstance(expr, Star):
            for binding, columns in star_bindings(expr, bindings):
                parts.extend(range(offsets[binding], offsets[binding] + len(columns)))
            continue
        slot = slot_of(layout, expr) if isinstance(expr, ColumnRef) else None
        parts.append(expr if slot is None else slot)
    return parts


def _projector(parts: list, width: int):
    """The ``rows -> output tuples`` callable of a projection over rows
    ``width`` wide: nothing at all when the select list *is* the row
    (``SELECT *`` in layout order), one ``itemgetter`` mapped over the rows
    when every part is a position, else each part's getter or closure
    mapped over them."""
    if all(type(part) is int for part in parts):
        if parts == list(range(width)):
            return lambda rows: rows
        getter = slots_getter(parts)
        return lambda rows: list(map(getter, rows))
    getters = [itemgetter(part) if type(part) is int else part for part in parts]
    return lambda rows: list(zip(*[map(get, rows) for get in getters]))


def _order_key(item, layout: list[tuple[str, list[str]]]) -> OrderKey:
    """Where a bound ORDER BY item reads its value in rows laid out by
    ``layout``: an output column, a source position, or its expression."""
    expr = item.expression
    if isinstance(expr, BoundColumn) and expr.output is not None:
        return OrderKey(item.ascending, output=expr.output)
    slot = slot_of(layout, expr) if isinstance(expr, ColumnRef) else None
    if slot is not None:
        return OrderKey(item.ascending, slot=slot)
    return OrderKey(item.ascending, expression=expr)


# ---------------------------------------------------------------------------
# Conjunct analysis
# ---------------------------------------------------------------------------


def _graft(chain: FromItem, item: FromItem) -> FromItem:
    """``item`` with ``chain`` CROSS JOINed to its leftmost table: folded over
    a FROM list, one left-deep chain, as sqlite reads a comma."""
    if isinstance(item, Join):
        return replaced(item, left=_graft(chain, item.left))
    return Join("CROSS", chain, item)


def _split_conjuncts(expr: Expression | None) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _conjunct_bindings(expr: Expression) -> set[str] | None:
    """The (lower-cased) bindings a bound conjunct reads, or None when its
    placement is undecidable: it holds a subquery or reads an enclosing
    query's column, and is evaluated only after the full join."""
    bindings: set[str] = set()
    for node in iter_expressions(expr):
        if isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
            return None
        if isinstance(node, ColumnRef):
            if node.depth:
                return None
            bindings.add(node.binding.lower())
    return bindings


def _covered(conjunct: Expression, names: set[str]) -> bool:
    """Whether a bound conjunct reads only the bindings ``names`` (one whose
    placement is undecidable never does)."""
    bindings = _conjunct_bindings(conjunct)
    return bindings is not None and bindings <= names


def _find_equi_joins(
    conjuncts: list[Expression], left_bindings: set[str], right_bindings: set[str]
) -> list[tuple[Expression, ColumnRef, ColumnRef]]:
    """Equality conjuncts connecting the two binding sets, as (expr, left, right).

    A pair becomes a hash-join (or index-probe) key, so equality of the two
    raw values must be the engine's ``=``
    (:func:`~repro.storage.types.compare_values`): a pair is kept only when
    both columns' declared types hash alike ({INTEGER, FLOAT}, {TEXT},
    {BOOLEAN}); any other pair stays an ordinary conjunct, applied by the
    Filter above the join.  A derived-table column has no declared type: such
    a pair is kept.
    """
    matches = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            continue
        left, right = conjunct.left, conjunct.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            continue
        if left.depth or right.depth:
            continue
        left_type, right_type = left.data_type, right.data_type
        if (
            left_type is not None
            and right_type is not None
            and left_type is not right_type
            and not (left_type.is_numeric and right_type.is_numeric)
        ):
            continue
        first, second = left.binding.lower(), right.binding.lower()
        if first in left_bindings and second in right_bindings:
            matches.append((conjunct, left, right))
        elif second in left_bindings and first in right_bindings:
            matches.append((conjunct, right, left))
    return matches


def _constant_equality(expr: Expression) -> tuple[ColumnRef, Expression] | None:
    """Match ``column = constant-expression`` in either orientation."""
    if not isinstance(expr, BinaryOp) or expr.op != "=":
        return None
    for column, value in ((expr.left, expr.right), (expr.right, expr.left)):
        if isinstance(column, ColumnRef) and _is_constant(value):
            return column, value
    return None


def _is_constant(expr: Expression) -> bool:
    """True when the expression references no columns and no subqueries."""
    for node in iter_expressions(expr):
        if isinstance(node, (ColumnRef, Star, InSubquery, ExistsSubquery, ScalarSubquery)):
            return False
    return True


_FLIPPED_OPS = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}


def _simple_comparison(expr: Expression) -> tuple[ColumnRef, str, object] | None:
    """Match ``column op literal`` (either orientation) for selectivity lookup."""
    if isinstance(expr, BinaryOp) and expr.op in _FLIPPED_OPS:
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            return expr.left, expr.op, expr.right.value
        if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
            return expr.right, _FLIPPED_OPS[expr.op], expr.left.value
    if isinstance(expr, InList) and isinstance(expr.expr, ColumnRef) and not expr.negated:
        values = [v.value for v in expr.values if isinstance(v, Literal)]
        if len(values) == len(expr.values):
            return expr.expr, "IN", values
    return None
