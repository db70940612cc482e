"""Aggregation: accumulator semantics, plan-time validation (malformed
aggregates and misnamed columns, and the name readers outside the binder
agreeing with it), operator selection, EXPLAIN/ANALYZE surfacing, plan-cache
reuse, and agreement of every execution path — compiled or interpreted — with
stdlib ``sqlite3``."""

from __future__ import annotations

import functools
import gc
import re
import sqlite3
from contextlib import closing

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro import CQMS, SimulatedClock, build_database
from repro.analysis.corpus import DOMAINS, dml_statements, domain_statements
from repro.analysis.sql_lint import SchemaView, SqlLinter
from repro.errors import ExecutionError, SchemaError
from repro.sql import features
from repro.sql.ast_nodes import (
    ColumnRef,
    SelectStatement,
    from_bindings,
    iter_expressions,
    walk,
)
from repro.storage import Database, ExecutionSettings
from repro.storage.binder import Binder, table_columns
from repro.storage.aggregates import (
    AggregateSpec,
    AvgAccumulator,
    AvgDistinctAccumulator,
    CountStarAccumulator,
    MaxAccumulator,
    MinAccumulator,
    SumAccumulator,
    SumDistinctAccumulator,
    collect_aggregate_specs,
)
from repro.storage.executor import (
    ExecutionStats,
    Executor,
    _order_slots,
    _sort_by_slot,
    _sort_entries,
)
from repro.storage.kernels import compile_columnar_conjuncts
from repro.storage.operators import (
    ExecutionContext,
    Filter,
    HashJoin,
    IndexLookupJoin,
    IndexScan,
    SubqueryScan,
)
from repro.storage.planner import Planner
from repro.storage.statistics import group_count_estimate
from repro.storage.types import sort_key
from repro.sql.parser import parse

LAKE_ROWS = [
    {
        "lake_id": i,
        "name": f"lake{i}",
        "area": float((i * 37) % 101),
        "state": None if i % 11 == 0 else f"s{i % 7}",
        "depth": None if i % 13 == 0 else (i * 7) % 50,
    }
    for i in range(500)
]


def _make_db(exec_settings: ExecutionSettings | None = None) -> Database:
    db = Database(exec_settings=exec_settings)
    db.execute(
        "CREATE TABLE lakes (lake_id INTEGER, name TEXT, area FLOAT, state TEXT, depth INTEGER)"
    )
    db.insert_rows("lakes", LAKE_ROWS)
    return db


# Intentional dialect differences from sqlite; no statement compared with
# ``reference`` below may depend on one:
# * ``/`` on two integers is true division here and integer division in
#   sqlite (``SUM(lake_id) / COUNT(*)``).
# * Unaliased computed columns are named differently (``count`` / ``column2``
#   here, the expression text in sqlite), so only rows are compared.
# * Re-running ``CREATE INDEX i ON t (a)`` with the identical definition is
#   a no-op here (the Query Storage re-runs its index DDL on every reopen);
#   sqlite raises ``index i already exists``.  A name bound to another
#   definition raises in both.


def _sqlite_lakes() -> sqlite3.Connection:
    """sqlite holding the same 500 ``lakes`` rows: an engine that shares no
    code with this one."""
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE lakes (lake_id INTEGER, name TEXT, area REAL, state TEXT, depth INTEGER)"
    )
    connection.executemany(
        "INSERT INTO lakes VALUES (:lake_id, :name, :area, :state, :depth)", LAKE_ROWS
    )
    return connection


@pytest.fixture(scope="module")
def reference():
    """``sql -> rows`` answered by sqlite over the same ``lakes`` rows."""
    connection = _sqlite_lakes()
    yield lambda sql: connection.execute(sql).fetchall()
    connection.close()


def assert_same_rows(sql: str, actual: list[tuple], expected: list[tuple]) -> None:
    """Row-for-row when ORDER BY pins the order, as multisets otherwise."""
    if "ORDER BY" in sql:
        assert actual == expected
    else:
        assert sorted(actual, key=repr) == sorted(expected, key=repr)


#: Grouped statements every execution path must answer like sqlite does.
GROUPED_QUERIES = [
    "SELECT state, COUNT(*) FROM lakes GROUP BY state",
    "SELECT state, COUNT(*) AS n, SUM(area), AVG(area), MIN(area), MAX(area) "
    "FROM lakes GROUP BY state ORDER BY n DESC, state",
    "SELECT COUNT(*), COUNT(state), COUNT(DISTINCT state) FROM lakes",
    "SELECT state, SUM(DISTINCT area), AVG(DISTINCT area) FROM lakes GROUP BY state",
    "SELECT state, COUNT(*) FROM lakes WHERE area > 40 GROUP BY state",
    "SELECT state, COUNT(*) * 2 FROM lakes GROUP BY state HAVING COUNT(*) * 2 > 80",
    "SELECT state, MAX(area) - MIN(area) FROM lakes GROUP BY state ORDER BY state",
    "SELECT lake_id % 3, COUNT(*) FROM lakes GROUP BY lake_id % 3",
    "SELECT state, AVG(area + 1.0) FROM lakes GROUP BY state",
    "SELECT COUNT(*) FROM lakes WHERE area > 1000",
    "SELECT state, COUNT(*) AS n FROM lakes GROUP BY state ORDER BY n DESC, state LIMIT 3",
    "SELECT state, MIN(name), MAX(name) FROM lakes GROUP BY state",
    "SELECT state, COUNT(*) FROM lakes GROUP BY state "
    "HAVING COUNT(*) > 60 AND MAX(area) > 99",
    "SELECT state, SUM(area) AS total FROM lakes GROUP BY state "
    "ORDER BY total DESC LIMIT 3 OFFSET 2",
    "SELECT SUM(area), AVG(area), MIN(area) FROM lakes WHERE area < 0",
]


#: ``%`` as sqlite computes it: both operands truncated to integers, the
#: dividend's sign, REAL if either operand is, NULL for a zero divisor.
MODULO_QUERIES = [
    "SELECT 5 % -3, -5 % 3, -5.5 % 2, 5.5 % 2, 7 % 2.5, 5 % 0.5",
    "SELECT 5 % 0, 5.0 % 0, 0 % 3, -4.0 % 2, 1e30 % 7, 7 % 1e30, -1e30 % 7",
    "SELECT lake_id, lake_id % -3, (0 - lake_id) % 4, area % 3, depth % 2.5, "
    "(0 - area) % 7.5, lake_id % (depth - 7) FROM lakes",
    "SELECT (0 - lake_id) % 3, COUNT(*) FROM lakes GROUP BY (0 - lake_id) % 3",
    "SELECT lake_id FROM lakes WHERE (0 - depth) % 7 = -3",
]


#: ``WHERE a <op> b`` over two columns of one table — numeric pairs (INTEGER
#: with FLOAT, either with a nullable INTEGER) and a TEXT pair with NULLs.
#: (A number against a text compares as strings here: a dialect difference.)
COLUMN_COMPARISONS = [
    "SELECT lake_id FROM lakes WHERE lake_id < area",
    "SELECT lake_id FROM lakes WHERE area <= depth",
    "SELECT lake_id FROM lakes WHERE depth = lake_id",
    "SELECT lake_id, depth FROM lakes WHERE depth <> lake_id ORDER BY lake_id LIMIT 40",
    "SELECT lake_id FROM lakes WHERE name < state",
    "SELECT COUNT(*), SUM(area) FROM lakes WHERE state <> name AND depth >= area",
]


#: Range predicates and ORDER BY over one table, NULLs included.  Every such
#: statement runs as SeqScan -> Filter kernels -> sort, with or without a
#: hash index on the compared column; a unique last key makes each ORDER BY
#: a total order.
RANGE_ORDER_QUERIES = [
    "SELECT lake_id FROM lakes WHERE area > 50",
    "SELECT lake_id FROM lakes WHERE area >= 50 AND area < 70",
    "SELECT lake_id FROM lakes WHERE area > 20 AND area > 60 AND area <= 90",
    "SELECT lake_id FROM lakes WHERE depth BETWEEN 10 AND 20",
    "SELECT lake_id FROM lakes WHERE depth NOT BETWEEN 10 AND 40",
    "SELECT lake_id FROM lakes WHERE state >= 's3' AND state < 's5'",
    "SELECT lake_id, depth FROM lakes ORDER BY depth, lake_id",
    "SELECT lake_id, depth FROM lakes ORDER BY depth DESC, lake_id",
    "SELECT lake_id, depth FROM lakes WHERE depth > 40 "
    "ORDER BY depth DESC, lake_id DESC LIMIT 7",
    "SELECT name, state FROM lakes ORDER BY state, name LIMIT 20 OFFSET 5",
    "SELECT lake_id, area FROM lakes WHERE area < 10 ORDER BY area DESC, lake_id",
    "SELECT depth, COUNT(*) FROM lakes WHERE depth < 12 GROUP BY depth ORDER BY depth DESC",
    "SELECT state, MIN(area), MAX(area) FROM lakes WHERE area BETWEEN 30 AND 60 "
    "GROUP BY state ORDER BY state",
]


def _feed(accumulator, values):
    """One batch: ``values`` is the argument column, every position live."""
    accumulator.update(values, range(len(values)))


class TestAccumulators:
    def test_sum_matches_single_fold(self):
        acc = SumAccumulator()
        values = [0.1, 0.2, None, 0.3, 0.4, 0.5]
        _feed(acc, values[:3])
        _feed(acc, values[3:])
        present = [v for v in values if v is not None]
        assert acc.finish() == sum(present)

    #: Left fold in order: ``1e16 + 1.0`` rounds back to ``1e16``, so the
    #: fold ends at 1.0; a compensated sum (``sum()`` from Python 3.12) gives 2.0.
    CANCELLING = [1e16, None, 1.0, -1e16, 1.0]

    @pytest.mark.parametrize(
        "accumulator, expected", [(SumAccumulator, 1.0), (AvgAccumulator, 0.25)]
    )
    def test_float_total_is_one_left_fold_at_every_split(self, accumulator, expected):
        """Two batches split anywhere, or one batch's column read as two
        position runs: the same left fold."""
        values = self.CANCELLING
        for split in range(len(values) + 1):
            by_batch, by_positions = accumulator(), accumulator()
            _feed(by_batch, values[:split])
            _feed(by_batch, values[split:])
            by_positions.update(values, range(split))
            by_positions.update(values, range(split, len(values)))
            assert by_batch.finish() == by_positions.finish() == expected, split

    @pytest.mark.parametrize(
        "accumulator, expected",
        [(SumDistinctAccumulator, 0.0), (AvgDistinctAccumulator, 0.0)],
    )
    def test_distinct_total_folds_first_seen_values(self, accumulator, expected):
        """``1e16 + 1.0 - 1e16`` in first-seen order is 0.0 (the repeated 1.0
        is dropped); a compensated sum would give 1.0."""
        for split in range(len(self.CANCELLING) + 1):
            acc = accumulator()
            _feed(acc, self.CANCELLING[:split])
            acc.update(self.CANCELLING, range(split, len(self.CANCELLING)))
            assert acc.finish() == expected, split

    def test_only_listed_positions_are_folded(self):
        acc = SumAccumulator()
        acc.update([1.0, 100.0, 2.0, None, 4.0], [0, 2, 3, 4])
        assert acc.finish() == 7.0

    def test_sum_all_null_is_null(self):
        acc = SumAccumulator()
        _feed(acc, [None, None])
        assert acc.finish() is None

    def test_min_max_keep_first_tie(self):
        low, high = MinAccumulator(), MaxAccumulator()
        first, second = (1, "a"), (1, "b")
        for acc in (low, high):
            _feed(acc, [[first[0]], [second[0]]])
        assert low.finish() == [1]
        assert high.finish() == [1]

    def test_count_star_counts_positions(self):
        acc = CountStarAccumulator()
        acc.update(None, [0, 3])
        assert acc.finish() == 2

    def test_each_accumulator_has_one_feed_method(self):
        for name in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            for distinct in (False, True):
                acc = AggregateSpec(name, ColumnRef("x"), distinct).make()
                feeds = [attr for attr in dir(acc) if attr.startswith("update")]
                assert feeds == ["update"], (name, distinct)
        assert [a for a in dir(CountStarAccumulator()) if a.startswith("update")] == [
            "update"
        ]


class TestSpecCollection:
    def test_dedups_identical_aggregates(self):
        statement = parse(
            "SELECT state, COUNT(*), SUM(area) FROM lakes "
            "GROUP BY state HAVING SUM(area) > 10 ORDER BY SUM(area)"
        )
        collection = collect_aggregate_specs(statement)
        assert [spec.name for spec in collection.specs] == ["COUNT", "SUM"]

    def test_distinct_gets_its_own_spec(self):
        statement = parse("SELECT SUM(area), SUM(DISTINCT area) FROM lakes")
        collection = collect_aggregate_specs(statement)
        assert len(collection.specs) == 2

    def test_nested_aggregate_shapes_raise_at_collection(self):
        statement = parse(
            "SELECT CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'few' END FROM lakes"
        )
        with pytest.raises(ExecutionError, match="top level"):
            collect_aggregate_specs(statement)

    def test_group_count_estimate_caps_at_input(self):
        assert group_count_estimate([7.0, 3.0], 1000.0) == pytest.approx(21.0)
        assert group_count_estimate([500.0, 400.0], 1000.0) == pytest.approx(1000.0)
        assert group_count_estimate([], 1000.0) == pytest.approx(1.0)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("sql", GROUPED_QUERIES)
    def test_matches_sqlite(self, sql, exec_variant, reference):
        assert_same_rows(sql, _make_db(exec_variant).execute(sql).rows, reference(sql))

    @pytest.mark.parametrize("sql", MODULO_QUERIES)
    def test_modulo_matches_sqlite(self, sql, exec_variant, reference):
        assert_same_rows(sql, _make_db(exec_variant).execute(sql).rows, reference(sql))

    @pytest.mark.parametrize("sql", COLUMN_COMPARISONS)
    def test_column_vs_column_filter_matches_sqlite(self, sql, exec_variant, reference):
        expected = reference(sql)
        assert expected and expected != [(0, None)]  # the statement selects something
        assert_same_rows(sql, _make_db(exec_variant).execute(sql).rows, expected)

    @pytest.mark.parametrize("indexed", [False, True], ids=["heap", "hash-index"])
    @pytest.mark.parametrize("sql", RANGE_ORDER_QUERIES)
    def test_range_and_order_match_sqlite(self, sql, indexed, exec_variant, reference):
        db = _make_db(exec_variant)
        if indexed:
            for column in ("area", "depth", "state"):
                db.execute(f"CREATE INDEX lakes_{column} ON lakes ({column})")
        plan = db.explain(sql).text()
        assert "IndexScan" not in plan and "SeqScan lakes" in plan
        assert ("Sort [" in plan) == ("ORDER BY" in sql)
        expected = reference(sql)
        assert expected  # the statement selects something
        assert_same_rows(sql, db.execute(sql).rows, expected)

    def test_null_group_keys_form_one_group(self):
        db = _make_db()
        rows = dict(db.execute("SELECT state, COUNT(*) FROM lakes GROUP BY state").rows)
        assert rows[None] == len([i for i in range(500) if i % 11 == 0])

    def test_global_aggregate_on_empty_table_yields_one_row(self):
        db = Database()
        db.execute("CREATE TABLE empty (x INTEGER)")
        result = db.execute("SELECT COUNT(*), SUM(x), MIN(x), AVG(x) FROM empty")
        assert result.rows == [(0, None, None, None)]

    def test_group_by_on_empty_table_yields_no_rows(self):
        db = Database()
        db.execute("CREATE TABLE empty (x INTEGER)")
        assert db.execute("SELECT x, COUNT(*) FROM empty GROUP BY x").rows == []

    def test_having_alias_still_unknown_column(self):
        db = _make_db()
        with pytest.raises(ExecutionError, match="unknown column"):
            db.execute("SELECT state, COUNT(*) AS n FROM lakes GROUP BY state HAVING n > 1")

    def test_order_by_aggregate_alias(self):
        db = _make_db()
        result = db.execute(
            "SELECT state, COUNT(*) AS n FROM lakes GROUP BY state ORDER BY n, state"
        )
        counts = [n for _, n in result.rows]
        assert counts == sorted(counts)

    def test_aggregate_inside_case_raises_placement_error(self):
        db = _make_db()
        with pytest.raises(ExecutionError, match="top level"):
            db.execute(
                "SELECT CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'few' END FROM lakes"
            )


#: Malformed aggregates and the message each must raise — at plan time, so
#: identically whether or not the table holds a row to evaluate them on.
MALFORMED_AGGREGATES = [
    ("SELECT SUM(*) FROM t", "only allowed in the select list or COUNT"),
    ("SELECT SUM(COUNT(*)) FROM t", "COUNT used outside of an aggregation context"),
    ("SELECT SUM() FROM t", "SUM requires an argument"),
    (
        "SELECT a, CASE WHEN COUNT(*) > 1 THEN 1 ELSE 0 END FROM t GROUP BY a",
        "top level",
    ),
    ("SELECT LOWER(MAX(a)) FROM t", "top level"),
    ("SELECT COUNT(*) BETWEEN 1 AND 3 FROM t", "top level"),
    ("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) IN (1, 2)", "top level"),
    ("SELECT a FROM t WHERE SUM(a) > 1", "SUM used outside of an aggregation context"),
    ("SELECT a FROM t GROUP BY SUM(a)", "SUM used outside of an aggregation context"),
    (
        "SELECT t.a FROM t JOIN t u ON MAX(t.a) = u.a",
        "MAX used outside of an aggregation context",
    ),
]


#: Misnamed column references and the message each must raise — at plan time,
#: by the binder, so identically whether or not a row would reach them.  The
#: tables are ``t(a, b)`` and ``u(a, c)`` with an index on ``u.a``.
MISNAMED_NAMES = [
    ("SELECT nosuch FROM t", "unknown column 'nosuch'"),
    ("SELECT a FROM t WHERE nosuch = 1", "unknown column 'nosuch'"),
    ("SELECT a FROM t GROUP BY nosuch", "unknown column 'nosuch'"),
    ("SELECT a FROM t ORDER BY nosuch", "unknown column 'nosuch'"),
    ("SELECT t.nosuch FROM t", "column 'nosuch' not found in 't'"),
    ("SELECT x.a FROM t", "unknown table alias 'x'"),
    ("SELECT a FROM t, u", "ambiguous column reference 'a'"),
    # A hash-join key, then an index-join key (the probe side is u.a).
    ("SELECT t.b FROM t JOIN u ON t.b = u.nosuch", "column 'nosuch' not found in 'u'"),
    ("SELECT t.b FROM t JOIN u ON t.nosuch = u.a", "column 'nosuch' not found in 't'"),
    ("SELECT a FROM t WHERE a IN (SELECT nosuch FROM u)", "unknown column 'nosuch'"),
    (
        "SELECT b FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.c = t.nosuch)",
        "column 'nosuch' not found in 't'",
    ),
    ("SELECT d.a FROM (SELECT nosuch FROM t) d", "unknown column 'nosuch'"),
    ("DELETE FROM t WHERE nosuch = 1", "unknown column 'nosuch'"),
    ("UPDATE t SET a = nosuch", "unknown column 'nosuch'"),
    ("INSERT INTO t VALUES (nosuch, 1.0)", "unknown column 'nosuch'"),
]

#: Misnamed columns an UPDATE sets or an INSERT lists: the schema's error,
#: raised by the binder at plan time — so also by an INSERT ... SELECT whose
#: source yields no row.
MISNAMED_TARGETS = [
    "UPDATE t SET nosuch = 1",
    "INSERT INTO t (a, nosuch) VALUES (1, 2.0)",
    "INSERT INTO t (a, nosuch) SELECT a, c FROM u WHERE c > 5",
]


class TestPlanTimeValidation:
    @staticmethod
    def _cqms(populated: bool) -> CQMS:
        clock = SimulatedClock()
        db = Database(clock=clock)
        db.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
        db.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        db.execute("CREATE INDEX u_a ON u (a)")
        if populated:
            db.insert_rows("t", [{"a": 1, "b": 2.0}, {"a": 2, "b": None}])
            db.insert_rows("u", [{"a": 1, "c": 2}, {"a": 3, "c": None}])
        cqms = CQMS(db, clock=clock)
        cqms.register_user("ana", group="lab")
        return cqms

    @pytest.mark.parametrize("sql, message", MALFORMED_AGGREGATES)
    def test_malformed_aggregate_raises_without_data(self, sql, message):
        errors = []
        for populated in (False, True):
            cqms = self._cqms(populated)
            with pytest.raises(ExecutionError, match=message) as raised:
                cqms.database.execute(sql)
            with pytest.raises(ExecutionError, match=message):
                cqms.database.explain(sql)
            execution = cqms.submit("ana", sql)
            assert not execution.succeeded
            assert execution.error == str(raised.value)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("sql, message", MISNAMED_NAMES)
    def test_misnamed_name_raises_without_data(self, sql, message):
        for populated in (False, True):
            cqms = self._cqms(populated)
            with pytest.raises(ExecutionError) as raised:
                cqms.database.execute(sql)
            assert str(raised.value) == message
            with pytest.raises(ExecutionError, match=re.escape(message)):
                cqms.database.explain(sql)
            execution = cqms.submit("ana", sql)
            assert not execution.succeeded
            assert execution.error == message
        # sqlite rejects it too: the statement is an error, whatever the wording.
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (a INTEGER, b REAL)")
        connection.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        with pytest.raises(sqlite3.OperationalError):
            connection.execute(sql)
        connection.close()

    @pytest.mark.parametrize("sql", MISNAMED_TARGETS)
    def test_misnamed_target_column_raises_without_data(self, sql):
        message = "table 't' has no column 'nosuch'"
        for populated in (False, True):
            cqms = self._cqms(populated)
            with pytest.raises(SchemaError) as raised:
                cqms.database.execute(sql)
            assert str(raised.value) == message
            with pytest.raises(SchemaError, match=re.escape(message)):
                cqms.database.explain(sql)
            execution = cqms.submit("ana", sql)
            assert not execution.succeeded
            assert execution.error == message
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (a INTEGER, b REAL)")
        connection.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        with pytest.raises(sqlite3.OperationalError):
            connection.execute(sql)
        connection.close()

    def test_legal_shapes_still_plan(self):
        for populated in (False, True):
            db = self._cqms(populated).database
            # A subquery aggregates on its own: WHERE may compare against it.
            above_average = db.execute("SELECT a FROM t WHERE b >= (SELECT AVG(b) FROM t)")
            null_sums = db.execute("SELECT a, SUM(b) FROM t GROUP BY a HAVING SUM(b) IS NULL")
            assert above_average.rows == ([(1,)] if populated else [])
            assert null_sums.rows == ([(2, None)] if populated else [])

    def test_every_aggregate_statement_plans_an_aggregate_stage(self):
        db = _make_db()
        for sql in GROUPED_QUERIES + ["SELECT state FROM lakes GROUP BY state"]:
            assert Planner(db).plan_select(parse(sql)).aggregate is not None, sql
        for sql in ("SELECT state FROM lakes", "SELECT (SELECT MAX(area) FROM lakes)"):
            assert Planner(db).plan_select(parse(sql)).aggregate is None, sql


class TestResolversAgree:
    """The binder is the engine's one name rule; the two name readers left
    outside it — the feature extractor's lenient resolver and the linter's
    name rules — must agree with it wherever both answer."""

    def test_feature_resolver_matches_the_binder_on_the_paper_log(self, paper_env):
        database = paper_env.cqms.database
        binder = Binder(table_columns(database))
        schema = database.schema_columns()
        compared = 0
        for query in paper_env.store.all_queries():
            statement = parse(query.text)
            if not isinstance(statement, SelectStatement):
                continue
            try:
                bound = binder.select(statement)
            except ExecutionError:
                continue
            # ``statement`` and every SELECT nested in it: derived tables and
            # expression subqueries.
            for level in walk(bound):
                if not isinstance(level, SelectStatement):
                    continue
                bindings = from_bindings(level.from_items)
                resolver = features._ColumnResolver(bindings, schema, bindings.values())
                for ref in iter_expressions(level):
                    if not isinstance(ref, ColumnRef):
                        continue
                    if ref.output is not None:
                        continue  # an ORDER BY output column: no base table
                    relation = (ref.relation or ref.binding).lower()
                    assert resolver.resolve(ref) == (ref.column.lower(), relation), (
                        query.text
                    )
                    compared += 1
        assert compared > 1000

    def test_lint_name_errors_fire_exactly_where_planning_fails(self):
        misnamed = [sql for sql, _ in MISNAMED_NAMES] + MISNAMED_TARGETS + ["SELECT a FROM t, t"]
        cases = [(TestPlanTimeValidation._cqms(False).database, misnamed)]
        for domain in DOMAINS:
            database = build_database(domain, scale=1)
            cases.append((database, domain_statements(domain) + dml_statements(database)))
        rejected = 0
        for database, statements in cases:
            linter = SqlLinter(SchemaView.from_database(database))
            for sql in statements:
                flagged = any(
                    diagnostic.rule
                    in ("unknown-column", "ambiguous-column", "duplicate-table")
                    for diagnostic in linter.lint_sql(sql)
                )
                try:
                    database.explain(sql)
                    fails = False
                except (ExecutionError, SchemaError):
                    fails = True
                assert flagged == fails, sql
                rejected += fails
        assert rejected == len(misnamed)


def _is(op, kind) -> bool:
    """Whether ``op`` is of ``kind``: an operator class, or a HashJoin's join
    type (``CROSS``: an inner HashJoin without key pairs)."""
    if isinstance(kind, type):
        return isinstance(op, kind)
    if not isinstance(op, HashJoin):
        return False
    return ("CROSS" if op.join_type == "INNER" and not op.pairs else op.join_type) == kind


def _find(op, kind):
    """The first operator of ``kind`` (see :func:`_is`) in the tree under
    ``op``, or None."""
    if _is(op, kind):
        return op
    for child in op.children:
        found = _find(child, kind)
        if found is not None:
            return found
    return None


#: One statement per place the engine once interpreted an expression because
#: its *shape* had no compiled form, with the compiled kernel, getter or
#: closure the plan now holds for it.
INTERPRETED_SHAPES = [
    pytest.param(
        "SELECT lake_id FROM lakes WHERE area + lake_id > 480",
        lambda plan: _find(plan.root, Filter).kernels,
        id="filter-arithmetic",
    ),
    pytest.param(
        "SELECT lake_id FROM lakes WHERE area > 99 OR state = 's3'",
        lambda plan: _find(plan.root, Filter).kernels,
        id="filter-or",
    ),
    pytest.param(
        "SELECT lake_id * 2, UPPER(name) FROM lakes WHERE area > 90",
        lambda plan: plan.project,
        id="computed-select-item",
    ),
    pytest.param(
        "SELECT a.lake_id, b.lake_id FROM lakes a JOIN lakes b ON a.depth = b.depth "
        "WHERE a.lake_id < 40 AND a.area + b.area > 190",
        lambda plan: plan.root.kernels if isinstance(plan.root, Filter) else "no Filter",
        id="filter-over-join",
    ),
    pytest.param(
        "SELECT a.lake_id * 1000 + b.lake_id, LOWER(b.state) FROM lakes a "
        "JOIN lakes b ON a.depth = b.depth WHERE a.lake_id < 10",
        lambda plan: plan.project,
        id="computed-select-item-over-join",
    ),
    pytest.param(
        "SELECT lake_id % 3, COUNT(*) FROM lakes GROUP BY lake_id % 3",
        lambda plan: plan.aggregate.key_of,
        id="computed-group-key",
    ),
    pytest.param(
        "SELECT state, AVG(area + 1.0) FROM lakes GROUP BY state",
        lambda plan: plan.aggregate.arguments[0],
        id="computed-aggregate-argument",
    ),
    pytest.param(
        "SELECT a.lake_id, b.name FROM lakes a JOIN lakes b ON a.lake_id = b.lake_id "
        "WHERE a.lake_id < 60 AND b.area + b.lake_id > 100",
        lambda plan: _find(plan.root, IndexLookupJoin).residual_kernels,
        id="index-join-computed-residual",
    ),
    pytest.param(
        "SELECT a.lake_id, b.lake_id FROM (SELECT lake_id FROM lakes WHERE lake_id < 40) a "
        "LEFT JOIN (SELECT lake_id FROM lakes WHERE lake_id < 25) b "
        "ON a.lake_id = b.lake_id * 2",
        # No equi pair: the whole ON is the join's residual.
        lambda plan: _find(plan.root, "LEFT").residual_kernels,
        id="outer-join",
    ),
]


class TestInterpreterByShape:
    @pytest.mark.parametrize("sql, compiled_memo", INTERPRETED_SHAPES)
    def test_interpreted_shape_matches_sqlite(
        self, sql, compiled_memo, exec_variant, reference
    ):
        db = _make_db(exec_variant)
        db.execute("CREATE INDEX lakes_id ON lakes (lake_id)")
        plan = Planner(db).plan_select(parse(sql))
        _, rows = Executor(db).execute_plan(plan)
        assert compiled_memo(plan) is not None  # compiled with the plan
        assert_same_rows(sql, rows, reference(sql))

    @pytest.mark.parametrize(
        "condition, side",
        [("a.nope = b.lake_id", 0), ("a.lake_id = b.nope", 1)],
        ids=["build-side", "probe-side"],
    )
    def test_misnamed_hash_join_key_reports_the_column(self, condition, side):
        db = _make_db()
        with pytest.raises(ExecutionError, match="column 'nope' not found"):
            Planner(db).plan_select(
                parse(f"SELECT a.lake_id FROM lakes a JOIN lakes b ON {condition}")
            )

    def test_misnamed_index_join_key_reports_the_column(self):
        db = _make_db()
        db.execute("CREATE INDEX lakes_id ON lakes (lake_id)")
        with pytest.raises(ExecutionError, match="column 'nope' not found in 'a'"):
            Planner(db).plan_select(
                parse(
                    "SELECT a.name FROM lakes a JOIN lakes b "
                    "ON a.nope = b.lake_id WHERE a.area > 99"
                )
            )


#: Every kernel shape over one binding ``{t}`` of ``lakes`` (``state`` and
#: ``depth`` hold NULLs): comparisons both ways round, LIKE, IS [NOT] NULL,
#: BETWEEN, IN with and without a NULL member, column against column.
KERNEL_SHAPES = [
    "{t}.area > 40.5",
    "30 >= {t}.depth",
    "{t}.area = 21.0",
    "{t}.state <> 's3'",
    "{t}.lake_id < 250",
    "{t}.area <= 12.0",
    "{t}.name LIKE 'lake1%'",
    "{t}.state LIKE 's_'",
    "{t}.depth IS NULL",
    "{t}.state IS NOT NULL",
    "{t}.depth BETWEEN 10 AND 30",
    "{t}.area NOT BETWEEN 20 AND 80",
    "{t}.state IN ('s1', 's4')",
    "{t}.depth NOT IN (7, 14, 21)",
    "{t}.depth IN (7, NULL)",
    "{t}.depth < {t}.area",
    "{t}.name < {t}.state",
]

#: Where each shape filters another operator's row batches, and the operator
#: the kernel-compiled Filter must sit on there.  A WHERE conjunct over one
#: binding is pushed down to its scan, so the join cases filter a derived
#: table over the join.
ROW_VIEW_FILTERS = [
    pytest.param(
        "SELECT lake_id FROM lakes WHERE state = 's2' AND {shape}",
        "lakes",
        IndexScan,
        id="over-index-scan",
    ),
    pytest.param(
        "SELECT j.lake_id, j.depth FROM (SELECT a.lake_id, a.name, b.area, b.state, "
        "b.depth FROM lakes a JOIN lakes b ON a.lake_id = b.depth) j WHERE {shape}",
        "j",
        SubqueryScan,
        id="over-hash-join",
    ),
    pytest.param(
        "SELECT j.lake_id, j.area FROM (SELECT a.lake_id, a.name, b.area, b.state, "
        "b.depth FROM lakes a, lakes b WHERE a.lake_id < 12 AND b.lake_id < 40) j "
        "WHERE {shape}",
        "j",
        SubqueryScan,
        id="over-nested-loop-join",
    ),
]

#: Column-vs-column conjuncts across the two sides of a join — the kernel
#: shape a Filter right above a join holds (``=`` would be a join key).
CROSS_SHAPES = [
    f"{left} {op} {right}"
    for left, right in (("a.depth", "b.depth"), ("a.area", "b.depth"), ("a.name", "b.name"))
    for op in ("<>", "<", "<=", ">", ">=")
] + ["a.depth < b.depth AND a.state <> b.name", "b.area >= a.depth AND a.name < b.state"]

CROSS_FILTERS = [
    pytest.param(
        "SELECT a.lake_id, b.lake_id FROM lakes a JOIN lakes b ON a.state = b.state "
        "WHERE a.lake_id < 40 AND b.lake_id < 40 AND {shape}",
        "INNER",
        id="hash-join",
    ),
    pytest.param(
        "SELECT a.lake_id, b.lake_id FROM lakes a, lakes b "
        "WHERE a.lake_id < 30 AND b.lake_id < 30 AND {shape}",
        "CROSS",
        id="cross-join",
    ),
]


@functools.cache
def _oracle_db(exec_settings: ExecutionSettings, indexed: bool) -> Database:
    """A read-only ``lakes`` database; ``indexed`` adds hash indexes on
    ``state`` and ``depth``."""
    db = _make_db(exec_settings)
    if indexed:
        db.execute("CREATE INDEX lakes_state ON lakes (state)")
        db.execute("CREATE INDEX lakes_depth ON lakes (depth)")
    return db


def _assert_row_view_filter(plan, below):
    """The plan has a kernel-compiled Filter over a child of kind ``below``
    (see :func:`_is`)."""
    node = _find(plan.root, Filter)
    while node is not None and not _is(node.child, below):
        node = _find(node.child, Filter)
    assert node is not None, f"no Filter over a {getattr(below, '__name__', below)}"
    assert node.kernels is not None


class TestRowViewKernels:
    """Every site that filters another operator's rows with the kernels —
    a Filter over a non-scan child, an index-join residual, an UPDATE or
    DELETE residual — answers like sqlite at every batch size."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("template, binding, below", ROW_VIEW_FILTERS)
    def test_filter_over_row_child(
        self, template, binding, below, shape, exec_variant, reference
    ):
        sql = template.format(shape=shape.format(t=binding))
        db = _oracle_db(exec_variant, indexed=below is IndexScan)
        _assert_row_view_filter(Planner(db).plan_select(parse(sql)), below)
        assert_same_rows(sql, db.execute(sql).rows, reference(sql))

    @pytest.mark.parametrize("shape", CROSS_SHAPES)
    @pytest.mark.parametrize("template, below", CROSS_FILTERS)
    def test_cross_binding_filter_over_join(
        self, template, below, shape, exec_variant, reference
    ):
        sql = template.format(shape=shape)
        db = _oracle_db(exec_variant, indexed=False)
        _assert_row_view_filter(Planner(db).plan_select(parse(sql)), below)
        assert_same_rows(sql, db.execute(sql).rows, reference(sql))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_index_join_residual(self, shape, exec_variant, reference):
        sql = (
            "SELECT a.lake_id, b.lake_id FROM lakes a JOIN lakes b "
            f"ON a.state = b.state WHERE a.lake_id = 3 AND {shape.format(t='b')}"
        )
        db = _oracle_db(exec_variant, indexed=True)
        join = _find(Planner(db).plan_select(parse(sql)).root, IndexLookupJoin)
        assert join is not None and join.scan.binding == "b"
        assert join.residual and join.residual_kernels is not None
        assert_same_rows(sql, db.execute(sql).rows, reference(sql))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize(
        "statement",
        ["DELETE FROM lakes WHERE {shape}", "UPDATE lakes SET name = 'hit' WHERE {shape}"],
        ids=["delete", "update"],
    )
    def test_dml_residual(self, statement, shape, exec_variant):
        sql = statement.format(shape=shape.format(t="lakes"))
        db = _make_db(exec_variant)
        planner = Planner(db)
        plan = (planner.plan_delete if sql.startswith("DELETE") else planner.plan_update)(
            parse(sql)
        )
        assert plan.residual
        assert compile_columnar_conjuncts(plan.residual, plan.scan.bindings) is not None
        with closing(_sqlite_lakes()) as connection:
            assert db.execute(sql).rowcount == connection.execute(sql).rowcount
            contents = "SELECT * FROM lakes ORDER BY lake_id"
            assert db.execute(contents).rows == connection.execute(contents).fetchall()


class TestPlannerIntegration:
    def test_explain_shows_hash_aggregate_with_estimate(self):
        db = _make_db()
        text = db.explain("SELECT state, COUNT(*) FROM lakes GROUP BY state").text()
        assert "HashAggregate [group by state]" in text
        assert "est groups=" in text

    def test_grouped_order_by_matches_sqlite(self, reference):
        db = _make_db()
        db.execute("CREATE INDEX lakes_state ON lakes (state)")
        sql = "SELECT state, COUNT(*), SUM(area) FROM lakes GROUP BY state ORDER BY state"
        assert "HashAggregate [group by state]" in db.explain(sql).text()
        # NULL keys sort first ascending and last descending in both engines.
        assert db.execute(sql).rows == reference(sql)
        assert db.execute(sql + " DESC").rows == reference(sql + " DESC")

    def test_estimate_uses_distinct_statistics(self):
        db = _make_db()
        db.execute("CREATE INDEX lakes_state ON lakes (state)")
        text = db.explain("SELECT state, COUNT(*) FROM lakes GROUP BY state").text()
        # The index's distinct count: s0..s6 (NULL is not indexed).
        assert "[est groups=7]" in text

    def test_aggregate_plan_hits_plan_cache(self):
        db = _make_db()
        first = db.execute("SELECT state, COUNT(*) FROM lakes WHERE area > 10 GROUP BY state")
        second = db.execute("SELECT state, COUNT(*) FROM lakes WHERE area > 90 GROUP BY state")
        assert not first.stats.plan_cache_hit
        assert second.stats.plan_cache_hit
        # Rebinding really took effect: the tighter filter sees fewer rows.
        assert sum(n for _, n in second.rows) < sum(n for _, n in first.rows)

    def test_explain_analyze_reports_groups_and_time(self):
        db = _make_db()
        explanation = db.explain(
            "SELECT state, COUNT(*) FROM lakes GROUP BY state", analyze=True
        )
        text = explanation.text()
        assert "HashAggregate" in text
        # 8 groups: NULL plus s0..s6.
        assert "(actual rows=8" in text
        assert "groups=8" in text
        assert explanation.stats.groups_emitted == 8
        assert explanation.stats.agg_seconds >= 0.0

    def test_query_result_surfaces_group_counters(self):
        db = _make_db()
        result = db.execute("SELECT state, COUNT(*) FROM lakes GROUP BY state")
        assert result.stats.groups_emitted == 8
        assert result.stats.agg_seconds > 0.0
        assert result.stats.rows_scanned == 500
        plain = db.execute("SELECT name FROM lakes LIMIT 5")
        assert plain.stats.groups_emitted == 0


class TestGroupedMetaQueries:
    def test_grouped_meta_queries_through_cqms(self):
        clock = SimulatedClock()
        db = build_database("limnology", scale=1, seed=7, clock=clock)
        cqms = CQMS(db, clock=clock)
        cqms.register_user("alice", group="lab1")
        cqms.register_user("bob", group="lab1")
        submissions = [
            ("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 18"),
            ("alice", "SELECT T.temp FROM WaterTemp T WHERE T.temp < 12"),
            ("bob", "SELECT * FROM CityLocations C WHERE C.population > 100000"),
        ]
        for user, sql in submissions:
            execution = cqms.submit(user, sql)
            assert execution.succeeded, execution.error
        store = cqms.store
        per_user = store.execute_meta_sql(
            "SELECT userName, COUNT(*) AS n FROM Queries GROUP BY userName ORDER BY n DESC, userName"
        )
        assert per_user.rows == [("alice", 2), ("bob", 1)]
        per_source = store.execute_meta_sql(
            "SELECT relName, COUNT(*) FROM DataSources GROUP BY relName ORDER BY relName"
        )
        counts = dict(per_source.rows)
        assert counts["watertemp"] == 2
        assert counts["citylocations"] == 1


# ---------------------------------------------------------------------------
# Joins and ORDER BY against sqlite
# ---------------------------------------------------------------------------

#: Three small tables with NULLs in join keys and values.  Floats are
#: multiples of 0.5 so that SUM / AVG are exact in any summation order.
JOIN_TABLES = {
    "a": (
        "id INTEGER, k INTEGER, v FLOAT, s TEXT",
        [
            (
                i,
                None if i % 5 == 0 else i % 4,
                None if i % 6 == 0 else (i * 3 % 7) / 2,
                None if i % 4 == 0 else f"s{i % 3}",
            )
            for i in range(1, 13)
        ],
    ),
    "b": (
        "id INTEGER, k INTEGER, w FLOAT, s TEXT",
        [
            (
                i,
                None if i % 4 == 0 else i % 5,
                None if i % 7 == 0 else (i * 5 % 9) / 2,
                None if i % 3 == 0 else f"s{i % 4}",
            )
            for i in range(1, 11)
        ],
    ),
    "c": (
        "k INTEGER, name TEXT",
        [(0, "zero"), (1, "one"), (2, None), (3, "three"), (None, "none"), (7, "seven")],
    ),
}

#: Join / ORDER BY statements every execution path must answer like sqlite
#: does, with and without hash indexes on the join keys.  Every ORDER BY is a
#: total order (or ties are identical rows), so ordered results compare
#: row for row.
JOIN_ORDER_QUERIES = [
    # FROM order differs from the join order the planner picks (smallest first).
    "SELECT * FROM a, b WHERE a.k = b.k",
    "SELECT * FROM a, b, c WHERE a.k = b.k AND c.k = a.k",
    "SELECT * FROM c JOIN b ON c.k = b.k JOIN a ON a.k = c.k WHERE a.id < 9",
    "SELECT a.*, c.name FROM a JOIN c ON a.k = c.k",
    "SELECT c.*, a.id FROM a JOIN c ON a.k = c.k",
    "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k AND a.s = b.s",
    "SELECT x.id, y.id FROM a x JOIN a y ON x.k = y.k WHERE x.id < y.id",
    "SELECT a.id, c.name FROM a, c",
    "SELECT * FROM c CROSS JOIN b WHERE b.id < 4",
    "SELECT c.name, COUNT(*), SUM(a.v), AVG(a.v) FROM a JOIN c ON a.k = c.k GROUP BY c.name",
    "SELECT COUNT(*), MIN(b.w), MAX(a.v), COUNT(a.s) FROM a JOIN b ON a.k = b.k",
    "SELECT a.k, b.s, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.k, b.s",
    "SELECT d.k, d.n, c.name FROM (SELECT k, COUNT(*) AS n FROM a GROUP BY k) d "
    "JOIN c ON d.k = c.k",
    "SELECT c.name, d.id FROM c JOIN (SELECT id, k FROM b WHERE w > 1) d ON d.k = c.k",
    "SELECT id FROM a WHERE k IN (SELECT k FROM c WHERE name LIKE '%e%')",
    "SELECT id FROM a WHERE k NOT IN (SELECT k FROM b WHERE w > 2 AND k IS NOT NULL)",
    "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.k = a.k AND b.w > a.v)",
    "SELECT a.id, c.name FROM a JOIN c ON a.k = c.k "
    "WHERE NOT EXISTS (SELECT 1 FROM b WHERE b.k = c.k AND b.id > a.id)",
    "SELECT a.id + b.id, a.v * 2, UPPER(b.s) FROM a JOIN b ON a.k = b.k "
    "ORDER BY a.id * 10 + b.id",
    "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k WHERE a.v > 2 OR b.w < 1",
    "SELECT a.id, b.id FROM a LEFT JOIN b ON a.k = b.k",
    "SELECT a.id, b.id, b.w FROM a LEFT JOIN b ON a.k = b.k AND b.w > 1",
    "SELECT a.id FROM a LEFT JOIN b ON a.k = b.k WHERE b.id IS NULL",
    "SELECT a.id, b.id FROM a RIGHT JOIN b ON a.k = b.k",
    "SELECT a.id, b.id FROM a RIGHT JOIN b ON a.k = b.k AND a.v < b.w WHERE b.id > 2",
    "SELECT a.id, b.id FROM a FULL JOIN b ON a.k = b.k",
    "SELECT * FROM c FULL OUTER JOIN b ON c.k = b.k AND b.w > 1 WHERE c.k IS NULL OR b.id < 6",
    "SELECT DISTINCT a.k, c.name FROM a JOIN c ON a.k = c.k",
    "SELECT DISTINCT b.s FROM a JOIN b ON a.k = b.k ORDER BY b.s DESC",
    "SELECT id, k, v FROM a ORDER BY k DESC, v, id DESC",
    "SELECT k, s, id FROM a ORDER BY s, k DESC, id",
    "SELECT id, s FROM a WHERE v > 0.5 ORDER BY s DESC, id",
    "SELECT s FROM a ORDER BY v DESC, id",
    "SELECT id AS k, k AS id FROM a ORDER BY k, id",
    "SELECT a.id, b.id AS bid FROM a JOIN b ON a.k = b.k ORDER BY a.id, bid DESC",
    "SELECT a.id AS x, b.id FROM a JOIN b ON a.k = b.k ORDER BY x DESC, b.id",
    "SELECT a.s, b.w FROM a JOIN b ON a.k = b.k ORDER BY b.w, a.id DESC, b.id",
    "SELECT id, v FROM a ORDER BY v DESC, id LIMIT 4 OFFSET 3",
    "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k ORDER BY a.id DESC, b.id LIMIT 5 OFFSET 2",
    "SELECT c.name, COUNT(*) AS n FROM a JOIN c ON a.k = c.k GROUP BY c.name "
    "ORDER BY n DESC, c.name LIMIT 2",
]


def _load_join_tables(execute, executemany) -> None:
    for name, (columns, rows) in JOIN_TABLES.items():
        execute(f"CREATE TABLE {name} ({columns})")
        executemany(name, [column.split()[0] for column in columns.split(", ")], rows)


def _make_join_db(exec_settings: ExecutionSettings | None, indexed: bool) -> Database:
    db = Database(exec_settings=exec_settings)
    _load_join_tables(
        db.execute,
        lambda name, columns, rows: db.insert_rows(
            name, [dict(zip(columns, row)) for row in rows]
        ),
    )
    if indexed:
        for name in JOIN_TABLES:
            db.execute(f"CREATE INDEX {name}_k ON {name} (k)")
    return db


@pytest.fixture(scope="module")
def join_reference():
    """``sql -> rows`` answered by sqlite over :data:`JOIN_TABLES`."""
    connection = sqlite3.connect(":memory:")
    _load_join_tables(
        connection.execute,
        lambda name, columns, rows: connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", rows
        ),
    )
    yield lambda sql: connection.execute(sql).fetchall()
    connection.close()


class TestJoinOrderOracle:
    @pytest.mark.parametrize("indexed", [False, True], ids=["heap", "indexed"])
    @pytest.mark.parametrize("sql", JOIN_ORDER_QUERIES)
    def test_matches_sqlite(self, sql, indexed, exec_variant, join_reference):
        expected = join_reference(sql)
        assert expected  # the statement selects something
        db = _make_join_db(exec_variant, indexed)
        assert_same_rows(sql, db.execute(sql).rows, expected)

    def test_both_physical_joins_are_reached(self):
        sql = JOIN_ORDER_QUERIES[0]
        heap = Planner(_make_join_db(None, indexed=False)).plan_select(parse(sql))
        assert _find(heap.root, HashJoin) and not _find(heap.root, IndexLookupJoin)
        indexed = Planner(_make_join_db(None, indexed=True)).plan_select(parse(sql))
        assert _find(indexed.root, IndexLookupJoin)
        # c is the smallest leaf and joins only a, so b is joined last: the
        # join order lays rows out (a, c, b), not in FROM order (a, b, c),
        # and SELECT * reorders them.
        three = Planner(_make_join_db(None, indexed=False)).plan_select(
            parse(JOIN_ORDER_QUERIES[1])
        )
        assert [name for name, _ in three.bindings] == ["a", "b", "c"]
        assert [name for name, _ in three.root.bindings] == ["a", "c", "b"]
        assert three.projection != list(range(len(three.projection)))


# ---------------------------------------------------------------------------
# The hash join's build table and the ORDER BY sort paths
# ---------------------------------------------------------------------------

#: Two tables whose join keys repeat on both sides and hold NULLs on both
#: sides; ``u`` is unique, ``n1`` and ``n2`` are unique but for one and two
#: NULLs, ``f`` holds the floats equal to some ``k``.
BUILD_TABLES = {
    "l": (
        "id INTEGER, k INTEGER, t TEXT",
        [
            (i, None if i % 7 == 0 else i % 6, None if i % 5 == 0 else f"t{i % 3}")
            for i in range(1, 41)
        ],
    ),
    "r": (
        "id INTEGER, k INTEGER, f FLOAT, t TEXT, u INTEGER, n1 INTEGER, n2 INTEGER",
        [
            (
                i,
                None if i % 6 == 0 else i % 8,
                None if i % 9 == 0 else float(i % 5),
                None if i % 4 == 0 else f"t{i % 2}",
                i,
                None if i == 5 else i,
                None if i in (4, 8) else i,
            )
            for i in range(1, 26)
        ],
    ),
}

#: Hash-join statements run with each side as the build side.
HASH_JOIN_QUERIES = [
    # Duplicate build keys and NULL keys on both sides.
    "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k",
    # Unique keys on both sides.
    "SELECT l.id, r.id, r.f FROM l JOIN r ON l.id = r.u",
    "SELECT * FROM r JOIN l ON r.u = l.id",
    # INTEGER against FLOAT keys: 1 and 1.0 are one dict key.
    "SELECT l.id, r.id FROM l JOIN r ON l.k = r.f",
    # 1 and 1.0 on the same side: distinct rows, one dict key, so a
    # unique-looking build side takes the grouped path.
    "SELECT d.id, r.id FROM (SELECT id, CASE WHEN id % 2 = 0 THEN id - 1 "
    "ELSE id * 1.0 END AS m FROM l) d JOIN r ON d.m = r.u",
    # A composite key.
    "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND l.t = r.t",
    # Unique keys but for one NULL, then two, on both sides: the NULL key is
    # dropped after the table is filled (a NULL probe key finds nothing),
    # and the rows it held do not count as repeats.
    "SELECT x.id, y.id FROM r x JOIN r y ON x.n1 = y.n1",
    "SELECT x.id, y.n2 FROM r x JOIN r y ON x.n2 = y.n2",
]


def _load_build_tables(execute, executemany) -> None:
    for name, (columns, rows) in BUILD_TABLES.items():
        execute(f"CREATE TABLE {name} ({columns})")
        executemany(name, [column.split()[0] for column in columns.split(", ")], rows)


def _make_build_db(exec_settings: ExecutionSettings | None = None) -> Database:
    db = Database(exec_settings=exec_settings)
    _load_build_tables(
        db.execute,
        lambda name, columns, rows: db.insert_rows(
            name, [dict(zip(columns, row)) for row in rows]
        ),
    )
    return db


@pytest.fixture(scope="module")
def build_reference():
    """``sql -> rows`` answered by sqlite over :data:`BUILD_TABLES`."""
    connection = sqlite3.connect(":memory:")
    _load_build_tables(
        connection.execute,
        lambda name, columns, rows: connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", rows
        ),
    )
    yield lambda sql: connection.execute(sql).fetchall()
    connection.close()


def _hash_join_plan(db: Database, sql: str, build_left: bool):
    """The statement's plan with its one hash join building ``build_left``."""
    plan = Planner(db).plan_select(parse(sql))
    join = _find(plan.root, HashJoin)
    assert join is not None
    join.build_left = build_left
    return plan, join


class TestHashJoinBuild:
    @pytest.mark.parametrize("build_left", [True, False], ids=["build-left", "build-right"])
    @pytest.mark.parametrize("sql", HASH_JOIN_QUERIES)
    def test_matches_sqlite(self, sql, build_left, exec_variant, build_reference):
        expected = build_reference(sql)
        assert expected
        db = _make_build_db(exec_variant)
        plan, join = _hash_join_plan(db, sql, build_left)
        _, rows = Executor(db).execute_plan(plan)
        assert_same_rows(sql, rows, expected)
        # Output batches are coalesced to the configured size.
        stats = ExecutionStats()
        batch_size = exec_variant.batch_size
        ctx = ExecutionContext(
            metrics=stats,
            run_select=Executor(db).execute_plan,
            batch_size=batch_size,
        )
        batches = list(join.batches(ctx))
        assert all(len(batch) == batch_size for batch in batches[:-1])
        assert 0 < len(batches[-1]) <= batch_size
        assert stats.rows_joined == sum(map(len, batches))

    def test_unique_key_build_keeps_no_list_per_row(self):
        """While a unique-key join runs, its table maps each key to the
        stored row itself: no tracked list holds a build row."""
        db = _make_build_db()
        plan, join = _hash_join_plan(db, HASH_JOIN_QUERIES[1], build_left=False)
        build = join.right.table
        build_rows = {id(row) for row in build.rows()}
        batches = plan.root.batches(ExecutionContext(metrics=ExecutionStats()))
        first = next(batches)
        assert first
        holders = [
            obj
            for obj in gc.get_objects()
            if type(obj) is list and any(id(item) in build_rows for item in obj)
        ]
        batches.close()
        assert holders == []

    def test_unique_key_build_keeps_no_pair_per_row(self):
        """While a unique-key join runs, no tracked tuple holds a build row:
        the table is filled from the keys and the rows, with no ``(key,
        row)`` pair per row, and no zip of probe rows and matches outlives
        its batch (every probe row, of r, matches a row of l).  The
        collector is off, so no collection can untrack such a tuple before
        the check."""
        db = _make_build_db()
        plan, join = _hash_join_plan(db, HASH_JOIN_QUERIES[1], build_left=True)
        build_rows = {id(row) for row in join.left.table.rows()}
        gc.disable()
        try:
            batches = plan.root.batches(ExecutionContext(metrics=ExecutionStats()))
            assert next(batches)
            holders = [
                obj
                for obj in gc.get_objects()
                if type(obj) is tuple and any(id(item) in build_rows for item in obj)
            ]
            batches.close()
        finally:
            gc.enable()
        assert holders == []

    @pytest.mark.parametrize(
        "sql", ["SELECT * FROM l JOIN r ON l.k = r.k", "SELECT * FROM r JOIN l ON r.k = l.k"]
    )
    def test_two_table_join_keeps_from_order(self, sql, build_reference):
        """The smaller table, r, is built whether it is the left input or the
        right: the join lays its row out in FROM order either way, so
        ``SELECT *`` projects nothing."""
        db = _make_build_db()
        plan = Planner(db).plan_select(parse(sql))
        join = plan.root
        assert isinstance(join, HashJoin)
        assert (join.left if join.build_left else join.right).table.name == "r"
        assert [name for name, _ in join.bindings] == [name for name, _ in plan.bindings]
        assert plan.projection == list(range(len(plan.projection)))
        batch = [()]
        assert plan.project(batch) is batch
        _, rows = Executor(db).execute_plan(plan)
        assert_same_rows(sql, rows, build_reference(sql))


#: Positions past 2**53, where distinct integers round to one float.
LARGE_INTEGERS = [(1, 2**53 + 1), (2, 2**53), (3, 2**53 + 3), (4, 2**53 + 2)]


class TestLargeIntegerOrder:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM big ORDER BY v",
            "SELECT id FROM big ORDER BY v DESC",
            "SELECT id FROM big ORDER BY v + 0",
            "SELECT v, COUNT(*) FROM big GROUP BY v ORDER BY v DESC",
            "SELECT MIN(v), MAX(v) FROM big",
        ],
    )
    def test_matches_sqlite(self, sql):
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE big (id INTEGER, v INTEGER)")
        connection.executemany("INSERT INTO big VALUES (?, ?)", LARGE_INTEGERS)
        db = Database()
        db.execute("CREATE TABLE big (id INTEGER, v INTEGER)")
        db.insert_rows("big", [{"id": i, "v": v} for i, v in LARGE_INTEGERS])
        assert db.execute(sql).rows == connection.execute(sql).fetchall()
        connection.close()


#: One row per id: an INTEGER, FLOAT, TEXT and BOOLEAN column with ties and
#: NULLs (sqlite holds the booleans as 0 and 1).
SORT_ROWS = [
    (
        i,
        None if i % 7 == 0 else i % 5,
        None if i % 6 == 0 else (i * 3 % 8) / 2,
        None if i % 4 == 0 else f"s{i % 3}",
        None if i % 9 == 0 else i % 2 == 0,
    )
    for i in range(1, 31)
]

#: ``(statement, its twin)``: the statement's ORDER BY items read positions
#: (the native sort), the twin's compute the same values (the ``sort_key``
#: sort), so both return the same rows.
SORT_TWINS = [
    ("SELECT id FROM o ORDER BY i", "SELECT id FROM o ORDER BY i + 0"),
    ("SELECT id FROM o ORDER BY i DESC", "SELECT id FROM o ORDER BY i + 0 DESC"),
    ("SELECT id, f FROM o ORDER BY f DESC, i", "SELECT id, f FROM o ORDER BY f * 1 DESC, i"),
    ("SELECT * FROM o ORDER BY s, f DESC", "SELECT * FROM o ORDER BY s, f * 1 DESC"),
    (
        "SELECT id, s FROM o ORDER BY s DESC, i, id",
        "SELECT id, s FROM o ORDER BY UPPER(s) DESC, i, id",
    ),
    ("SELECT id FROM o ORDER BY b DESC, i", "SELECT id FROM o ORDER BY b = TRUE DESC, i"),
    (
        "SELECT id, i AS n FROM o ORDER BY n, id DESC",
        "SELECT id, i + 0 AS n FROM o ORDER BY n, id DESC",
    ),
    ("SELECT DISTINCT i FROM o ORDER BY i DESC", "SELECT DISTINCT i FROM o ORDER BY i + 0 DESC"),
    (
        "SELECT id, f FROM o ORDER BY f, id LIMIT 6 OFFSET 4",
        "SELECT id, f FROM o ORDER BY f + 0, id LIMIT 6 OFFSET 4",
    ),
    (
        "SELECT id, m FROM (SELECT id, CASE WHEN id % 3 = 0 THEN i WHEN id % 3 = 1 "
        "THEN f ELSE b END AS m FROM o) x ORDER BY m, id",
        "SELECT id, m FROM (SELECT id, CASE WHEN id % 3 = 0 THEN i WHEN id % 3 = 1 "
        "THEN f ELSE b END AS m FROM o) x ORDER BY m * 1, id",
    ),
]


#: Per kind of column, the values a property-test row draws.
_SORT_VALUES = {
    "numbers": st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.integers(2**53 - 2, 2**53 + 2),
        st.floats(-3, 3, allow_nan=False),
    ),
    "text": st.one_of(st.none(), st.text(alphabet="aAb_", max_size=3)),
    "mixed": st.one_of(
        st.none(),
        st.integers(-3, 3),
        st.text(alphabet="12a", max_size=2),
        st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=1),
    ),
}


class TestSortPaths:
    @pytest.fixture(scope="class")
    def sort_sqlite(self):
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE o (id INTEGER, i INTEGER, f REAL, s TEXT, b INTEGER)")
        connection.executemany("INSERT INTO o VALUES (?, ?, ?, ?, ?)", SORT_ROWS)
        yield connection
        connection.close()

    @staticmethod
    def _db(exec_settings: ExecutionSettings | None = None) -> Database:
        db = Database(exec_settings=exec_settings)
        db.execute("CREATE TABLE o (id INTEGER, i INTEGER, f FLOAT, s TEXT, b BOOLEAN)")
        db.insert_rows(
            "o", [dict(zip(("id", "i", "f", "s", "b"), row)) for row in SORT_ROWS]
        )
        return db

    @pytest.mark.parametrize("native, computed", SORT_TWINS)
    def test_native_and_sort_key_paths_agree(self, native, computed, exec_variant, sort_sqlite):
        db = self._db(exec_variant)
        assert _order_slots(Planner(db).plan_select(parse(native))) is not None
        assert _order_slots(Planner(db).plan_select(parse(computed))) is None
        rows = db.execute(native).rows
        assert rows == db.execute(computed).rows
        if "id" in native.split("ORDER BY")[1] or "DISTINCT" in native:
            # A total order: sqlite's rows, row for row.
            assert rows == sort_sqlite.execute(native).fetchall()

    @given(
        kinds=st.lists(st.sampled_from(sorted(_SORT_VALUES)), min_size=1, max_size=3),
        data=st.data(),
    )
    @hsettings(max_examples=150, deadline=None)
    def test_sort_by_slot_is_sort_key_order(self, kinds, data):
        """Property: one stable pass per key, last key first, gives the rows
        ``sort_key`` gives, whatever the column's types."""
        values = data.draw(
            st.lists(st.tuples(*(_SORT_VALUES[kind] for kind in kinds)), max_size=40)
        )
        keys = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(kinds) - 1), st.booleans()),
                min_size=1,
                max_size=3,
            )
        )
        rows = [(*row, number) for number, row in enumerate(values)]
        native = list(rows)
        for slot, ascending in reversed(keys):
            _sort_by_slot(native, slot, ascending)
        reference = list(rows)
        _sort_entries(
            reference,
            [(lambda row, _slot=slot: sort_key(row[_slot]), asc) for slot, asc in keys],
        )
        assert [row[-1] for row in native] == [row[-1] for row in reference]

