"""Batched Volcano-style physical operators for the SELECT pipeline.

Each operator is one node of a physical plan produced by
:mod:`repro.storage.planner`.  The engine moves data **batch-at-a-time**:
``batches(ctx)`` lazily yields lists of **flat tuples** (``ctx.batch_size``
rows per list), so one ``next()`` call pushes a whole batch through a filter
or join instead of paying a generator round-trip per row.  A row's positions
are the operator's ``bindings`` flattened in order — the *layout*: a scan's
row is its table's columns in schema order, a join's row is its left child's
row followed by its right child's.  Every column reference an operator holds
was bound at plan time (:mod:`repro.storage.binder`), so :func:`slot_of`
turns it into a position in the operator's layout once per compile and every
column getter is an ``operator.itemgetter``.  ``batches(ctx)`` is the one
operator protocol.  Every other expression an operator evaluates is
compiled once, when the operator is built, to a ``row -> value`` closure
(:func:`~repro.storage.expression.compile_expression`) over the same row
tuple; the operator's :class:`~repro.storage.expression.Frame` hands it the
enclosing rows and the subquery callback each time the operator starts.

Two more things fall out of the batch refactor:

* **Compiled predicates** — filters, join residuals and UPDATE/DELETE
  residuals compile every conjunct into a selection-vector kernel of
  :mod:`repro.storage.kernels`, run over plain row batches in conjunct
  order (:func:`~repro.storage.kernels.apply_kernels`).  A conjunct's
  compiled predicate is its semantics: a special kernel either agrees with
  it or defers to it.
* **Per-node observability** — when :class:`ExecutionContext.node_stats` is a
  dict (EXPLAIN ANALYZE), every operator transparently records the actual
  rows, batches, loops, and wall time it produced, and ``explain_lines``
  renders those actuals next to the optimizer's estimates.

Access paths:

* :class:`SeqScan` — full scan of a heap table,
* :class:`IndexScan` — equality probe of a :class:`~repro.storage.indexes.HashIndex`,
  either against a constant or, inside an :class:`IndexLookupJoin`, against the
  join key of each outer row (an index nested-loop join).

A stored heap row is a tuple in schema order, which is exactly a scan's row
(its one binding's columns, in order): scans hand on what the heap holds,
and a full-width :class:`SeqScan` yields the heap's page chunks as they are.
Every scan also exposes ``pairs(ctx)`` yielding ``(row_id, row)`` so UPDATE
and DELETE reuse the same access paths to locate their target rows.

All operators charge their work to :class:`ExecutionContext.metrics` so
``rows_scanned`` reflects the rows actually touched by the chosen access path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, islice
from operator import add, itemgetter
from typing import Callable, Iterator

from repro.errors import QueryTimeoutError, SchemaError
from repro.obs.metrics import engine_timer
from repro.sql.ast_nodes import ColumnRef, Expression
from repro.sql.formatter import format_expression
from repro.storage.aggregates import AggregateCollection
from repro.storage.exec_settings import DEFAULT_BATCH_SIZE
from repro.storage.expression import Frame, Scope, compile_expression, slot_of
from repro.storage.kernels import Columns, apply_kernels, compile_columnar_conjuncts
from repro.storage.table import Kept
from repro.storage.types import DataType, coerce_value, compare_values

#: Sentinel: "no more".
_UNSET = object()

#: An operator's output relation: (binding name, ordered column names) pairs.
#: Flattened in order it is the layout of the operator's rows.
Bindings = list[tuple[str, list[str]]]

#: One streamed row: the values of the operator's ``bindings``, flattened.
Row = tuple

#: One streamed batch: up to ``ctx.batch_size`` rows.
RowBatch = list[Row]


@dataclass
class NodeStats:
    """Actual per-operator execution counters (EXPLAIN ANALYZE).

    ``rows``/``batches`` count what the node *produced*; ``loops`` counts how
    often it was (re)started — 1 for a streamed node, once per outer row for
    the probe side of an :class:`IndexLookupJoin`.  ``wall_seconds`` is
    inclusive wall time spent inside the node's generator (children included),
    measured with :data:`~repro.obs.metrics.engine_timer` regardless of the database's
    injectable clock.  ``reused``: the :class:`HashJoin` side a kept entry built.
    ``kept``: the node read a table's :class:`~repro.storage.table.Kept` lists.
    """

    rows: int = 0
    batches: int = 0
    loops: int = 0
    wall_seconds: float = 0.0
    reused: str = ""
    kept: bool = False

    def describe(self) -> str:
        parts = [f"rows={self.rows}"]
        if self.batches:
            parts.append(f"batches={self.batches}")
        if self.loops > 1:
            parts.append(f"loops={self.loops}")
        if self.reused:
            parts.append(f"reused={self.reused}")
        if self.kept:
            parts.append("kept")
        if self.batches:
            parts.append(f"time={self.wall_seconds * 1000.0:.3f}ms")
        return "actual " + " ".join(parts)


@dataclass
class ExecutionContext:
    """Runtime services shared by every operator of one executing plan.

    ``run_subquery`` evaluates expression-level subqueries (IN / EXISTS /
    scalar); ``run_select`` executes a nested :class:`~repro.storage.planner.SelectPlan`
    (derived tables) through the full SELECT pipeline of the owning executor.
    ``batch_size`` is the target rows-per-batch (the executor caps it at the
    LIMIT row budget on streaming plans so short-circuited scans stay honest);
    ``node_stats`` maps ``id(operator)`` → :class:`NodeStats` when the
    execution is being observed for EXPLAIN ANALYZE, else None.
    """

    metrics: object
    outer_scope: Scope | None = None
    run_subquery: Callable | None = None
    run_select: Callable | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    node_stats: dict[int, NodeStats] | None = field(default=None)
    #: Absolute ``timer`` deadline of the statement's timeout budget, or None
    #: (no budget).  Scans call :meth:`tick` at every batch flush, so a
    #: runaway statement cancels at the next batch boundary — cooperative,
    #: never mid-mutation.
    deadline: float | None = None
    #: Duration source shared with the executor's instrumentation (the
    #: telemetry registry's timer when one is attached).
    timer: Callable[[], float] = engine_timer

    def tick(self) -> None:
        """Raise :class:`~repro.errors.QueryTimeoutError` past the deadline.

        Called at batch boundaries (scan flushes) and once per probe row of a
        row-at-a-time :class:`HashJoin`, which may pair a whole probe batch
        with the whole build side between two scan flushes: one ``None``
        check when no budget is set, one timer read when one is.
        """
        deadline = self.deadline
        if deadline is not None and self.timer() >= deadline:
            raise QueryTimeoutError(
                "statement exceeded its timeout budget and was cancelled "
                "at a batch boundary"
            )

    def observe(self, op: "Operator", kept: bool = False) -> NodeStats | None:
        """The operator's :class:`NodeStats` slot, or None when not analyzing;
        ``kept`` marks it as reading kept lists."""
        if self.node_stats is None:
            return None
        stats = self.node_stats.get(id(op))
        if stats is None:
            stats = NodeStats()
            self.node_stats[id(op)] = stats
        stats.kept |= kept
        return stats


class Operator:
    """Base class of physical plan nodes."""

    bindings: Bindings
    children: tuple["Operator", ...] = ()
    estimate: float = 0.0

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        raise NotImplementedError

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Stream output batches, transparently instrumented under ANALYZE."""
        if ctx.node_stats is None:
            return self._batches(ctx)
        return self._instrumented(self._batches(ctx), ctx)

    def _instrumented(self, source: Iterator, ctx: ExecutionContext, size=len):
        """``source`` with this node's actuals recorded, ``size(item)`` rows each."""
        stats = ctx.observe(self)
        stats.loops += 1
        while True:
            started = engine_timer()
            try:
                batch = next(source)
            except StopIteration:
                stats.wall_seconds += engine_timer() - started
                return
            stats.wall_seconds += engine_timer() - started
            stats.batches += 1
            stats.rows += size(batch)
            yield batch

    def label(self) -> str:
        raise NotImplementedError

    def explain_lines(
        self, depth: int = 0, node_stats: dict[int, NodeStats] | None = None
    ) -> list[str]:
        text = self.label()
        if node_stats is not None:
            stats = node_stats.get(id(self))
            text += f" ({stats.describe()})" if stats is not None else " (never executed)"
        lines = ["  " * depth + text]
        for child in self.children:
            lines.extend(child.explain_lines(depth + 1, node_stats))
        return lines


class EmptyRow(Operator):
    """The FROM-less relation: exactly one zero-width row (``SELECT 1``)."""

    def __init__(self):
        self.bindings = []
        self.estimate = 1.0

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        yield [()]

    def label(self) -> str:
        return "Result"


class SeqScan(Operator):
    """Full scan of a heap table under one binding name."""

    def __init__(self, table, binding: str, estimate: float):
        self.table = table
        self.binding = binding
        self.bindings = [(binding, list(table.schema.column_names))]
        self.estimate = estimate

    def pairs(self, ctx: ExecutionContext) -> Iterator[tuple[int, Row]]:
        for row_id, row in self.table.scan():
            ctx.metrics.rows_scanned += 1
            yield row_id, row

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        kept = self.table.kept(ctx.metrics)
        if kept is None:
            return _scan_chunks(self.table, ctx)
        ctx.observe(self, kept=True)
        return (columns.rows for columns in self.chunks(kept, ctx))

    def chunks(self, kept: Kept, ctx: ExecutionContext) -> Iterator[Columns]:
        """``kept.rows`` chunked as the page scan chunks its rows (and charged
        as it is), each chunk the :class:`Columns` slicing ``kept.columns``."""
        start, rows = 0, kept.rows
        while start < len(rows):
            chunk = slice(start, min(len(rows), start + max(1, ctx.batch_size)))
            ctx.tick()
            ctx.metrics.rows_scanned += chunk.stop - start
            yield Columns(rows[chunk], kept.columns, chunk)
            start = chunk.stop

    def label(self) -> str:
        return f"SeqScan {_scan_target(self.table, self.binding)} [est={self.estimate:.0f}]"


class IndexScan(Operator):
    """Equality probe of a hash index.

    ``value_expr`` is either a constant expression (planner-selected equality
    conjunct) or a column of the outer side when the scan is driven by an
    :class:`IndexLookupJoin` (``probe=True``).
    """

    def __init__(
        self,
        table,
        binding: str,
        column: str,
        value_expr: Expression,
        estimate: float,
        probe: bool = False,
    ):
        self.table = table
        self.binding = binding
        self.column = column
        self.value_expr = value_expr
        self.bindings = [(binding, list(table.schema.column_names))]
        self.estimate = estimate
        self.probe = probe
        # A constant (no column, no subquery): an IndexLookupJoin's probe
        # reads its outer row's key instead.
        self._value = None if probe else compile_expression(value_expr, [])

    def lookup_pairs(self, value: object, ctx: ExecutionContext):
        """Fetch ``(row_id, row)`` pairs whose indexed column equals ``value``.

        Equality must mean exactly what the engine's ``=`` means
        (:func:`~repro.storage.types.compare_values`), so the probe value is
        translated into hash keys first; when the comparison cannot be
        expressed as hash lookups (e.g. a boolean probed against a numeric
        column) the scan degrades to a filtered heap scan with identical
        semantics.
        """
        if value is None:
            return
        index = self.table.index_for(self.column)
        keys = (
            equality_probe_keys(value, self.table.schema.column(self.column).data_type)
            if index is not None
            else None
        )
        if keys is None:
            position = self.table.schema.position(self.column)
            for row_id, row in self.table.scan():
                ctx.metrics.rows_scanned += 1
                if compare_values(row[position], value) == 0:
                    yield row_id, row
            return
        ctx.metrics.index_lookups += 1
        row_ids: set[int] = set()
        for key in keys:
            row_ids |= index.lookup(key)
        for row_id in sorted(row_ids):
            row = self.table.get(row_id)
            if row is None:
                continue
            ctx.metrics.rows_scanned += 1
            yield row_id, row

    def pairs(self, ctx: ExecutionContext) -> Iterator[tuple[int, Row]]:
        yield from self.lookup_pairs(self._value(()), ctx)

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        return _chunk(map(itemgetter(1), self.pairs(ctx)), ctx)

    def label(self) -> str:
        condition = f"{self.column} = {format_expression(self.value_expr)}"
        return (
            f"IndexScan {_scan_target(self.table, self.binding)} "
            f"({condition}) [est={self.estimate:.0f}]"
        )


class SubqueryScan(Operator):
    """A derived table ``(SELECT ...) alias``: the subplan runs through the
    executor (aggregation, ordering, ...) and its output tuples *are* this
    operator's rows — the alias only names them."""

    def __init__(self, plan, alias: str, estimate: float):
        self.plan = plan
        self.alias = alias
        self.bindings = [(alias, list(plan.output_columns))]
        self.children = (plan.root,)
        self.estimate = estimate

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        _, tuples = ctx.run_select(self.plan)
        yield from _chunk(tuples, ctx)

    def label(self) -> str:
        return f"SubqueryScan AS {self.alias} [est={self.estimate:.0f}]"


class Filter(Operator):
    """Batched conjunctive filter over a child operator: its conjuncts'
    kernels (:func:`~repro.storage.kernels.compile_columnar_conjuncts`)
    narrow whole batches, whatever its child, in conjunct order, so a
    conjunct runs only on the rows every earlier one kept.  Kernels compile
    once per operator and read literal values per call, so re-binding a
    cached plan's parameters never stales them.
    """

    def __init__(self, child: Operator, predicates: list[Expression], estimate: float):
        self.child = child
        self.predicates = list(predicates)
        self.bindings = child.bindings
        self.children = (child,)
        self.estimate = estimate
        self.frame = Frame()
        #: One kernel per conjunct, in conjunct order.
        self.kernels = compile_columnar_conjuncts(self.predicates, self.bindings, self.frame)

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        kept = self.kept_input()
        if kept is not None:
            ctx.observe(self, kept=True)
            for columns, chosen in self.selections(kept, ctx):
                yield list(map(columns.rows.__getitem__, chosen))
            return
        self.frame.enter(ctx)
        for batch in self.child.batches(ctx):
            kept = [batch[i] for i in apply_kernels(self.kernels, batch)]
            if kept:
                yield kept

    def kept_input(self) -> Kept | None:
        """Over a bare :class:`SeqScan`: its table's kept lists, if any."""
        if type(self.child) is SeqScan:
            return self.child.table.kept()
        return None

    def selections(self, kept: Kept, ctx: ExecutionContext):
        """Per chunk with a survivor, ``(its Columns, the surviving positions)``."""
        self.frame.enter(ctx)
        for columns in _bypassing(self.child, self.child.chunks(kept, ctx), ctx):
            if chosen := apply_kernels(self.kernels, columns.rows, columns):
                yield columns, chosen

    def label(self) -> str:
        predicates = " AND ".join(format_expression(p) for p in self.predicates)
        return f"Filter ({predicates})"


class HashJoin(Operator):
    """An INNER, LEFT, RIGHT or FULL join on the equi ``pairs`` of its ON,
    the other ON conjuncts its ``residual``: the build side is materialized,
    the other side streams through it, and an output row is the left row
    followed by the right row.  An inner equi join probes a whole batch at a
    time.  Any other join takes one probe row at a time (one timeout check
    each): its candidates are the build rows with its key — all of them with
    no pairs — that pass the residual, else the row padded with NULLs if its
    side is preserved.  An outer join must build its null-supplying side
    (``build_left`` for RIGHT only), so only FULL tracks matched rows."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        pairs: list[tuple[ColumnRef, ColumnRef]],
        estimate: float,
        build_left: bool = False,
        join_type: str = "INNER",
        residual: list[Expression] = (),
    ):
        self.left = left
        self.right = right
        self.pairs = list(pairs)
        self.build_left = build_left
        self.join_type = join_type
        self.residual = list(residual)
        self.bindings = left.bindings + right.bindings
        self.children = (left, right)
        self.estimate = estimate
        # Each key is a bound column of its own side: a one-column key is the
        # bare value, a longer one a tuple, and with no pairs every key is ().
        self._slots = (
            tuple(slot_of(left.bindings, key) for key, _ in self.pairs),
            tuple(slot_of(right.bindings, key) for _, key in self.pairs),
        )
        self._keys = tuple(
            itemgetter(*slots) if slots else itemgetter(slice(0)) for slots in self._slots
        )
        self.frame = Frame()
        #: One kernel per residual conjunct, in conjunct order.
        self.residual_kernels = compile_columnar_conjuncts(
            self.residual, self.bindings, self.frame
        )

    def _sides(self, build_left: bool):
        """``(build, probe, build key, probe key)``, left built if ``build_left``."""
        left_key, right_key = self._keys
        if build_left:
            return self.left, self.right, left_key, right_key
        return self.right, self.left, right_key, left_key

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if self.join_type == "INNER" and self.pairs and not self.residual:
            return self._equi_batches(ctx, None)
        return self._probe_rows(ctx)

    def projected_batches(self, ctx: ExecutionContext, output: list):
        """An inner equi join's :meth:`batches` cut to the ``output`` positions
        (a streaming SELECT's select list), else None (not positions, or all)."""
        if self.join_type != "INNER" or not self.pairs or self.residual:
            return None
        if any(type(p) is not int for p in output) or output == list(range(row_width(self.bindings))):
            return None
        source = self._equi_batches(ctx, tuple(output))
        return source if ctx.node_stats is None else self._instrumented(source, ctx)

    def _hash_table(self, rows: list[Row], key_of, grouped: bool) -> tuple[dict, bool]:
        """``(table, unique)``: the build ``rows`` by their key, less the rows
        whose key holds a NULL (it matches nothing, so the probe side needs
        no NULL test).  Unless ``grouped``, unique keys (the usual case) map
        each key to its one row, so no pair and no container is built per
        build row; otherwise a key maps to the list of its rows."""
        keys = list(map(key_of, rows))
        table: dict = {}
        table.update(zip(keys, rows))
        if len(self.pairs) == 1:  # a bare key
            null_keys = [None] if None in table else []
            null_rows = keys.count(None) if null_keys else 0
        else:
            null_keys = [key for key in table if None in key]
            null_rows = sum(None in key for key in keys) if null_keys else 0
        unique = not grouped and len(table) - len(null_keys) + null_rows == len(rows)
        if not unique:
            table = {}
            for key, row in zip(keys, rows):
                table.setdefault(key, []).append(row)
        for key in null_keys:
            del table[key]
        return table, unique

    def _kept_build(self, ctx: ExecutionContext) -> tuple[bool, tuple[dict, bool] | None]:
        """``(build_left, (table, unique))`` from a bare :class:`SeqScan` input's
        :meth:`Table.join_entry`, the planned build side asked first; else
        the planned side and None."""
        for build_left in (self.build_left, not self.build_left):
            scan, _, key, _ = self._sides(build_left)
            if type(scan) is not SeqScan:
                continue
            entry = scan.table.join_entry(
                self._slots[0 if build_left else 1],
                lambda: self._hash_table(_materialized(scan, ctx), key, grouped=False),
                ctx.metrics,
            )
            if entry is not None:
                stats = ctx.observe(self)
                if stats is not None and id(scan) not in ctx.node_stats:
                    stats.reused = "left" if build_left else "right"
                return build_left, entry
        return self.build_left, None

    def _equi_batches(self, ctx: ExecutionContext, output) -> Iterator[RowBatch]:
        build_left, entry = self._kept_build(ctx)
        build, probe, build_key, probe_key = self._sides(build_left)
        kept = None if entry is None else _kept_probe(probe, ctx)
        if kept is not None:  # each kept probe row's match, probed once per entry
            ctx.observe(self, kept=True)
            kept, chunks = kept
            lists = kept.matches.setdefault(build.table.kept(), {})
            positions = self._slots if build_left else self._slots[::-1]
            if positions not in lists:
                lists[positions] = list(map(entry[0].get, map(probe_key, kept.rows)))
            found = lists[positions]
            probes = ((columns, found[columns.chunk], chosen) for columns, chosen in chunks)
        else:
            if entry is None:
                entry = self._hash_table(_materialized(build, ctx), build_key, grouped=False)
            probes = (
                (Columns(batch), list(map(entry[0].get, map(probe_key, batch))), None)
                for batch in probe.batches(ctx)
            )
        batch_size = max(1, ctx.batch_size)
        out: RowBatch = []
        for joined in self._joined(probes, entry[1], build_left, output):
            ctx.metrics.rows_joined += len(joined)
            out += joined
            cut = len(out) - len(out) % batch_size  # whole batches go out now
            for start in range(0, cut, batch_size):
                yield out[start : start + batch_size]
            del out[:cut]
        if out:
            yield out

    def _joined(self, probes, unique: bool, build_left: bool, output):
        """Per probe chunk ``(its Columns, each row's match: a row, a list of
        rows unless ``unique``, or None; the positions of the rows to join or
        None)``, the joined rows, or their ``output`` positions, zipped from
        probe columns and build-row getters."""
        left, readers = row_width(self.left.bindings), None
        if output is not None:  # a probe column's position, or a build-row getter
            readers = [
                (p - left if build_left else p) if (p >= left) == build_left
                else itemgetter(p if build_left else p - left)
                for p in output
            ]
        for columns, found, chosen in probes:
            if chosen is not None:
                found = list(map(found.__getitem__, chosen))
            if not unique:
                positions = chosen or range(len(found))
                chosen = [i for i, group in zip(positions, found) if group for _ in group]
                found = [row for group in found if group for row in group]
            elif not all(found):  # a row is a non-empty tuple, no match None
                chosen = list(compress(chosen or range(len(found)), found))
                found = list(filter(None, found))

            def pick(values):
                return values if chosen is None else list(map(values.__getitem__, chosen))

            if readers is not None:
                joined = list(zip(*[
                    pick(columns[reader]) if type(reader) is int else map(reader, found)
                    for reader in readers
                ]))
            elif build_left:
                joined = list(map(add, found, pick(columns.rows)))
            else:
                joined = list(map(add, pick(columns.rows), found))
            del found  # no list outlives the batch holding its build rows
            yield joined

    def _probe_rows(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """In batches: per probe row, the rows it joins into; then, for
        FULL, the unmatched build rows, padded."""
        build, probe, build_key, probe_key = self._sides(self.build_left)
        rows = _materialized(build, ctx)
        table, _ = self._hash_table(rows, build_key, grouped=True)
        self.frame.enter(ctx)
        select = self.residual and partial(apply_kernels, self.residual_kernels)
        build_left = self.build_left
        null_build = (None,) * row_width(build.bindings)
        # FULL marks matched build rows by identity: rows that are one object
        # are equal, so they match the same probe rows.
        matched: set[int] = set()
        out: RowBatch = []
        for batch in probe.batches(ctx):
            for row in batch:
                ctx.tick()
                found = table.get(probe_key(row), ())
                if build_left:
                    joined = [built + row for built in found]
                else:
                    joined = [row + built for built in found]
                if select and joined:
                    kept = select(joined)
                    joined, found = [joined[i] for i in kept], [found[i] for i in kept]
                if self.join_type == "FULL":
                    matched.update(map(id, found))
                if not joined and self.join_type != "INNER":
                    joined = [null_build + row if build_left else row + null_build]
                ctx.metrics.rows_joined += len(joined)
                out += joined
                size = max(1, ctx.batch_size)
                cut = len(out) - len(out) % size  # whole batches go out now
                for start in range(0, cut, size):
                    yield out[start : start + size]
                del out[:cut]
        if self.join_type == "FULL":
            null_probe = (None,) * row_width(probe.bindings)
            padded = [null_probe + built for built in rows if id(built) not in matched]
            ctx.metrics.rows_joined += len(padded)
            out += padded
        yield from _chunk(out, ctx)

    def label(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self.pairs)
        kind = "" if self.join_type == "INNER" else f" {self.join_type}"
        text = f"HashJoin{kind} ({condition or 'cross'})"
        if self.residual:
            text += f" filter ({' AND '.join(map(format_expression, self.residual))})"
        return f"{text} [build={'left' if self.build_left else 'right'}, est={self.estimate:.0f}]"


class IndexLookupJoin(Operator):
    """Index nested-loop join: for each outer row, probe the inner table's
    hash index on the join key instead of scanning the inner table."""

    def __init__(
        self,
        outer: Operator,
        scan: IndexScan,
        outer_key: ColumnRef,
        residual: list[Expression],
        estimate: float,
    ):
        self.outer = outer
        self.scan = scan
        self.outer_key = outer_key
        self.residual = list(residual)
        self.bindings = outer.bindings + scan.bindings
        self.children = (outer, scan)
        self.estimate = estimate
        self._key_getter = compile_expression(outer_key, outer.bindings)
        self.frame = Frame()
        #: One kernel per residual conjunct, in conjunct order.
        self.residual_kernels = compile_columnar_conjuncts(
            self.residual, self.bindings, self.frame
        )

    def _joined(self, ctx: ExecutionContext) -> Iterator[Row]:
        """Each outer row followed by every inner row its key finds."""
        key_getter = self._key_getter
        # The probe-side scan never runs through batches(), so record its
        # ANALYZE actuals (rows fetched, probe loops) here.
        probe_stats = ctx.observe(self.scan)
        for batch in self.outer.batches(ctx):
            for outer_row in batch:
                value = key_getter(outer_row)
                if value is None:
                    continue
                if probe_stats is not None:
                    probe_stats.loops += 1
                for _, inner_row in self.scan.lookup_pairs(value, ctx):
                    if probe_stats is not None:
                        probe_stats.rows += 1
                    yield outer_row + inner_row

    def _batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        self.frame.enter(ctx)
        select = self.residual and partial(apply_kernels, self.residual_kernels)
        metrics = ctx.metrics
        batch_size = max(1, ctx.batch_size)
        joined = self._joined(ctx)
        out: RowBatch = []
        # Pull only as many joined rows as the batch still lacks: survivors
        # never outnumber candidates, so no row past a full batch is fetched.
        while chunk := list(islice(joined, batch_size - len(out))):
            if select:
                chunk = [chunk[i] for i in select(chunk)]
            metrics.rows_joined += len(chunk)
            out.extend(chunk)
            if len(out) >= batch_size:
                yield out
                out = []
        if out:
            yield out

    def label(self) -> str:
        parts = [
            f"IndexLoopJoin ({self.scan.binding}.{self.scan.column} = "
            f"{format_expression(self.outer_key)})"
        ]
        if self.residual:
            residual = " AND ".join(format_expression(p) for p in self.residual)
            parts.append(f"filter ({residual})")
        return " ".join(parts) + f" [est={self.estimate:.0f}]"


# ---------------------------------------------------------------------------
# Vectorized aggregation
# ---------------------------------------------------------------------------


class HashAggregate(Operator):
    """Hash-grouped vectorized aggregation, the one aggregate operator.

    It is consumed through :meth:`groups`, which yields
    ``(representative row, finished aggregate values)`` pairs in
    first-seen group order — the executor's HAVING / projection / ORDER BY
    read the finished accumulator states instead of re-walking buffered row
    lists.  ``batches()`` is deliberately unimplemented: the planner places an
    aggregate only at the top of the pipeline, never under joins.

    Consumes the child batch by batch: the batch's row *positions* are
    bucketed by group key, each aggregate spec's argument column is built
    once for the whole batch (its compiled argument mapped over the rows),
    and every group's accumulator folds that column over its positions with
    ``update(values, positions)`` — each input row is touched exactly once
    per spec, and no per-group row or value list is built.

    The group key and the arguments compile once, when the operator is
    built (a key of columns is one ``itemgetter``), and accumulators are
    created fresh per execution — which keeps a cached plan's parameter
    re-binding safe.
    """

    def __init__(
        self,
        child: Operator,
        group_exprs,
        collection: AggregateCollection,
        estimate: float,
        having: Expression | None = None,
    ):
        self.child = child
        self.group_exprs = list(group_exprs)
        self.collection = collection
        self.having = having
        self.bindings = child.bindings
        self.children = (child,)
        self.estimate = estimate  # estimated number of output groups
        self.frame = Frame()
        #: ``row -> group key`` (None: no GROUP BY).
        self.key_of = _group_key(self.group_exprs, self.bindings, self.frame)
        #: Per spec ``row -> argument value``; None for COUNT(*), which
        #: counts positions.
        self.arguments = [
            None if spec.argument is None
            else compile_expression(spec.argument, self.bindings, self.frame)
            for spec in collection.specs
        ]

    # -- consumption ---------------------------------------------------------

    def finished_positions(self) -> dict[int, int]:
        """``id(aggregate call) -> position`` of its finished value in a
        group's row: the representative row followed by the finished values."""
        width = row_width(self.bindings)
        return {node: width + slot for node, slot in self.collection.slots.items()}

    def groups(self, ctx: ExecutionContext):
        """Stream ``(representative, finished values)`` pairs, instrumented.

        Charges ``groups_emitted`` and the (inclusive, child included)
        aggregation wall time to ``ctx.metrics``; under EXPLAIN ANALYZE the
        operator's :class:`NodeStats` counts one row per emitted group.
        """
        stats = ctx.observe(self)
        if stats is not None:
            stats.loops += 1
            stats.batches += 1  # one logical batch of groups per execution
        metrics = ctx.metrics
        source = self._groups(ctx)
        while True:
            started = engine_timer()
            item = next(source, _UNSET)
            elapsed = engine_timer() - started
            metrics.agg_seconds += elapsed
            if stats is not None:
                stats.wall_seconds += elapsed
            if item is _UNSET:
                return
            metrics.groups_emitted += 1
            if stats is not None:
                stats.rows += 1
            yield item

    def label(self) -> str:
        parts = ["HashAggregate"]
        if self.group_exprs:
            keys = ", ".join(format_expression(expr) for expr in self.group_exprs)
            parts.append(f"[group by {keys}]")
        if self.having is not None:
            parts.append(f"having ({format_expression(self.having)})")
        parts.append(f"[est groups={self.estimate:.0f}]")
        return " ".join(parts)

    def _groups(self, ctx: ExecutionContext):
        specs, getters, key_of = self.collection.specs, self.arguments, self.key_of
        self.frame.enter(ctx)
        metrics = ctx.metrics
        states: dict = {}
        for batch in self.child.batches(ctx):
            metrics.batches += 1
            if key_of is None:
                buckets = {(): range(len(batch))}
            else:
                buckets = defaultdict(list)
                for position, key in enumerate(map(key_of, batch)):
                    buckets[key].append(position)
            columns = [
                None if get is None else list(map(get, batch)) for get in getters
            ]
            for key, positions in buckets.items():
                state = states.get(key)
                if state is None:
                    state = states[key] = (
                        batch[positions[0]],
                        [spec.make() for spec in specs],
                    )
                for accumulator, values in zip(state[1], columns):
                    accumulator.update(values, positions)
        if not states and key_of is None:
            # An empty ungrouped input is still one group: no representative
            # row, every aggregate over nothing.
            yield None, [spec.make().finish() for spec in specs]
            return
        for representative, accumulators in states.values():
            yield representative, [acc.finish() for acc in accumulators]


def _group_key(exprs, bindings: Bindings, frame: Frame):
    """``row -> group key`` for GROUP BY ``exprs``, None for none: one key
    groups by its bare value, several keys of columns by one ``itemgetter``,
    any other keys by the tuple of their values."""
    if not exprs:
        return None
    keys = [compile_expression(expr, bindings, frame) for expr in exprs]
    slots = [slot_of(bindings, expr) if isinstance(expr, ColumnRef) else None for expr in exprs]
    if len(keys) == 1:
        return keys[0]
    if None not in slots:
        return itemgetter(*slots)
    return lambda row: tuple([key(row) for key in keys])


# ---------------------------------------------------------------------------
# Row layout and compiled getters (the batch fast path)
# ---------------------------------------------------------------------------


def row_width(bindings: Bindings) -> int:
    """Number of positions in a row laid out by ``bindings``."""
    return sum(len(columns) for _, columns in bindings)


def slots_getter(slots: list[int]) -> Callable[[Row], tuple]:
    """``row -> the tuple of those positions``, always a tuple and always one
    C-level call: a contiguous run is a slice of the row — which is also how
    one position stays a 1-tuple (``itemgetter(slot)`` would return the bare
    item) and how no position at all is ``()``."""
    first = slots[0] if slots else 0
    if slots == list(range(first, first + len(slots))):
        return itemgetter(slice(first, first + len(slots)))
    return itemgetter(*slots)


# ---------------------------------------------------------------------------
# Probe-key translation (shared with the planner)
# ---------------------------------------------------------------------------


def equality_probe_keys(value: object, data_type: DataType) -> list | None:
    """Hash keys that reproduce ``compare_values`` equality for a column.

    Returns the keys to probe (possibly empty — provably no match), or None
    when the comparison semantics cannot be expressed as hash lookups and the
    caller must fall back to a ``compare_values`` scan.  Stored values are
    always coerced to ``data_type``, which is what makes the mapping exact.
    """
    if value is None:
        return []
    if isinstance(value, bool):
        # Against non-boolean columns, compare_values matches by truthiness —
        # that is a set of keys, not one.
        return [value] if data_type is DataType.BOOLEAN else None
    if isinstance(value, (int, float)):
        if data_type in (DataType.INTEGER, DataType.FLOAT):
            return [value]
        if data_type is DataType.TEXT:
            return [str(value)]  # compare_values falls back to str comparison
        return None
    if isinstance(value, str):
        if data_type is DataType.TEXT:
            return [value]
        if data_type is DataType.BOOLEAN:
            return [bool(value)]  # compare_values compares truthiness
        if data_type in (DataType.INTEGER, DataType.FLOAT):
            # compare_values compares str(stored) to the probe string, so the
            # probe matches only when it round-trips exactly ('2' does, '02'
            # and '2.00' do not).
            try:
                coerced = coerce_value(value, data_type)
            except SchemaError:
                return []
            return [coerced] if str(coerced) == value else []
    return None


def _bypassing(op: Operator, source: Iterator, ctx: ExecutionContext, size=None) -> Iterator:
    """``source``, read in place of ``op``'s batches(), as its ANALYZE actuals
    (``size(item)`` rows per item, by default a :class:`Columns`' rows)."""
    if ctx.observe(op, kept=True) is None:
        return source
    return op._instrumented(source, ctx, size or (lambda columns: len(columns.rows)))


def _kept_probe(op: Operator, ctx: ExecutionContext):
    """``(kept, per chunk (its Columns, the positions to join, None for all))``
    for a bare :class:`SeqScan` of a kept table or a kernel Filter over one."""
    if type(op) is SeqScan and (kept := op.table.kept()) is not None:
        return kept, ((c, None) for c in _bypassing(op, op.chunks(kept, ctx), ctx))
    if type(op) is Filter and (kept := op.kept_input()) is not None:
        return kept, _bypassing(op, op.selections(kept, ctx), ctx, lambda item: len(item[1]))
    return None


def _materialized(op: Operator, ctx: ExecutionContext) -> list[Row]:
    """Every row ``op`` streams, in one list."""
    return [row for batch in op.batches(ctx) for row in batch]


def _chunk(rows, ctx: ExecutionContext) -> Iterator[RowBatch]:
    """Group rows (any iterable) into batches of up to ``ctx.batch_size``.

    The size is re-read for every batch: the executor shrinks it to the
    remaining LIMIT budget on streaming plans, so a short-circuited scan
    never pulls more source rows than the row-at-a-time engine would have.
    """
    rows = iter(rows)
    while batch := list(islice(rows, max(1, ctx.batch_size))):
        ctx.tick()
        yield batch


def _scan_chunks(table, ctx: ExecutionContext) -> Iterator[RowBatch]:
    """A heap scan's stored rows in chunks of ``ctx.batch_size``, charging
    ``rows_scanned`` per chunk — :class:`SeqScan`'s batches (a stored row is
    already the scan's row).

    Like :func:`_chunk`, the size is re-read after every flush to honour the
    executor's shrinking LIMIT budget.  Rows arrive page-at-a-time through
    :meth:`~repro.storage.table.Table.scan_row_lists` (C-speed list builds
    and slices) rather than one generator resumption per row — at typical
    batch sizes the per-row feed is the scan's dominant cost.  Every chunk
    is a fresh list.
    """
    metrics = ctx.metrics
    batch_size = max(1, ctx.batch_size)
    buffer: RowBatch = []
    for page_rows in table.scan_row_lists():
        buffer.extend(page_rows)
        while len(buffer) >= batch_size:
            if len(buffer) == batch_size:
                chunk, buffer = buffer, []
            else:
                chunk = buffer[:batch_size]
                del buffer[:batch_size]
            ctx.tick()
            metrics.rows_scanned += len(chunk)
            yield chunk
            batch_size = max(1, ctx.batch_size)
    if buffer:
        ctx.tick()
        metrics.rows_scanned += len(buffer)
        yield buffer


def _scan_target(table, binding: str) -> str:
    if binding.lower() == table.name.lower():
        return table.name
    return f"{table.name} AS {binding}"
