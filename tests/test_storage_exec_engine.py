"""Batched execution engine: batch semantics, EXPLAIN ANALYZE,
the statement cache, and the calibrated join-fanout estimates."""

from __future__ import annotations

import dataclasses
import sqlite3
from contextlib import closing

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro import CQMSConfig
from repro.storage import Database, ExecutionSettings


def _named_rows(db: Database, table: str) -> list[dict]:
    """A table's stored rows keyed by column name."""
    stored = db.table(table)
    return [stored.schema.as_dict(row) for row in stored.rows()]


LAKES = [
    {"lake_id": i, "name": f"lake{i}", "area": float((i * 37) % 101), "state": f"s{i % 7}"}
    for i in range(200)
]
SAMPLES = [
    {"lake_id": i % 200, "depth": i % 30, "temp": 4.0 + (i % 17)} for i in range(1000)
]


def _make_db(exec_settings: ExecutionSettings | None = None, **kwargs) -> Database:
    db = Database(exec_settings=exec_settings, **kwargs)
    db.execute("CREATE TABLE lakes (lake_id INTEGER, name TEXT, area FLOAT, state TEXT)")
    db.execute("CREATE TABLE samples (lake_id INTEGER, depth INTEGER, temp FLOAT)")
    db.insert_rows("lakes", LAKES)
    db.insert_rows("samples", SAMPLES)
    return db


@pytest.fixture(scope="module")
def reference():
    """``sql -> rows`` answered by sqlite over the same ``lakes`` and
    ``samples`` rows."""
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE lakes (lake_id INTEGER, name TEXT, area REAL, state TEXT)")
    connection.execute("CREATE TABLE samples (lake_id INTEGER, depth INTEGER, temp REAL)")
    connection.executemany(
        "INSERT INTO lakes VALUES (:lake_id, :name, :area, :state)", LAKES
    )
    connection.executemany(
        "INSERT INTO samples VALUES (:lake_id, :depth, :temp)", SAMPLES
    )
    yield lambda sql: connection.execute(sql).fetchall()
    connection.close()


#: A mixed bag of statements exercising filters, joins, ordering, grouping,
#: DISTINCT, LIMIT, LIKE, IN, BETWEEN, and subqueries.
QUERIES = [
    "SELECT * FROM lakes",
    "SELECT name, area FROM lakes WHERE area > 50 AND state = 's3'",
    "SELECT name FROM lakes WHERE name LIKE 'lake1%' ORDER BY name",
    "SELECT name FROM lakes WHERE lake_id IN (1, 5, 7, 300)",
    "SELECT name FROM lakes WHERE area BETWEEN 10 AND 20 ORDER BY area, name",
    "SELECT l.name, s.depth FROM lakes l, samples s "
    "WHERE l.lake_id = s.lake_id AND s.depth < 3 ORDER BY l.name, s.depth",
    "SELECT DISTINCT state FROM lakes ORDER BY state",
    "SELECT state, COUNT(*), AVG(area) FROM lakes GROUP BY state ORDER BY state",
    "SELECT name FROM lakes ORDER BY area DESC LIMIT 7",
    "SELECT name FROM lakes WHERE area > (SELECT AVG(area) FROM lakes) ORDER BY name LIMIT 5",
    "SELECT l.state, COUNT(*) FROM lakes l LEFT JOIN samples s "
    "ON l.lake_id = s.lake_id GROUP BY l.state ORDER BY l.state",
]


def test_engine_option_surface_is_pinned():
    """A new engine knob doubles the configurations to test: adding one has to
    be a deliberate edit here, next to the reason it is needed."""
    assert {f.name for f in dataclasses.fields(ExecutionSettings)} == {
        "batch_size",
        "verify_plans",
        "buffer_pool_pages",
    }
    assert {
        f.name for f in dataclasses.fields(CQMSConfig) if f.name.startswith("exec_")
    } == set()


class TestBatchSemantics:
    def test_results_identical_across_variants(self, exec_variant, reference):
        db = _make_db(exec_variant)
        for sql in QUERIES:
            got, expected = db.execute(sql).rows, reference(sql)
            if "ORDER BY" not in sql:
                got, expected = sorted(got, key=repr), sorted(expected, key=repr)
            assert got == expected, sql

    @hsettings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.integers(-50, 50), st.none()), min_size=0, max_size=500
        ),
        batch_size=st.sampled_from([1, 2, 256]),
        threshold=st.integers(-40, 40),
    )
    def test_filter_property(self, values, batch_size, threshold):
        """Random tables: a filtered scan equals sqlite's, rows in heap
        order."""
        db = Database(exec_settings=ExecutionSettings(batch_size=batch_size))
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [{"v": value} for value in values])
        sql = f"SELECT v FROM t WHERE v >= {threshold}"
        with closing(sqlite3.connect(":memory:")) as plain:
            plain.execute("CREATE TABLE t (v INTEGER)")
            plain.executemany("INSERT INTO t VALUES (?)", [(value,) for value in values])
            assert db.execute(sql).rows == plain.execute(sql).fetchall()

    @hsettings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 4), st.none()),
                st.one_of(st.integers(0, 2), st.none()),
                st.one_of(st.integers(-50, 50), st.none()),
            ),
            min_size=0,
            max_size=300,
        ),
        batch_size=st.sampled_from([1, 2, 256]),
        threshold=st.integers(-40, 40),
    )
    def test_aggregate_property(self, rows, batch_size, threshold):
        """Random tables with NULL keys and values: grouped by one column,
        by two, and ungrouped, the one aggregate loop answers like sqlite."""
        db = Database(exec_settings=ExecutionSettings(batch_size=batch_size))
        db.execute("CREATE TABLE t (g INTEGER, h INTEGER, v INTEGER)")
        db.insert_rows("t", [dict(zip("ghv", row)) for row in rows])
        aggregates = "COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), COUNT(DISTINCT v)"
        where = f"WHERE v >= {threshold}"
        with closing(sqlite3.connect(":memory:")) as plain:
            plain.execute("CREATE TABLE t (g INTEGER, h INTEGER, v INTEGER)")
            plain.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            for sql in (
                f"SELECT g, {aggregates} FROM t {where} GROUP BY g",
                f"SELECT g, h, {aggregates} FROM t {where} GROUP BY g, h",
                f"SELECT {aggregates} FROM t {where} OR g IS NULL",
                f"SELECT h, SUM(v + 1), COUNT(*) FROM t GROUP BY h",
            ):
                got, expected = db.execute(sql).rows, plain.execute(sql).fetchall()
                assert sorted(got, key=repr) == sorted(expected, key=repr), sql

    def test_bare_column_reads_the_groups_first_row(self, exec_variant):
        """A select item that is neither grouped nor aggregated reads its
        group's first row in heap order, wherever the batches split."""
        db = Database(exec_settings=exec_variant)
        db.execute("CREATE TABLE t (g INTEGER, name TEXT)")
        db.insert_rows("t", [{"g": i % 2, "name": f"n{i}"} for i in range(6)])
        assert db.execute("SELECT g, name, COUNT(*) FROM t GROUP BY g").rows == [
            (0, "n0", 3),
            (1, "n1", 3),
        ]
        assert db.execute(
            "SELECT name, SUM(g + 1) FROM t WHERE name > 'n2' GROUP BY g % 2"
        ).rows == [("n3", 4), ("n4", 1)]

    @pytest.mark.parametrize("batch_size", [1, 2, 256])
    def test_one_column_rows_and_keys_are_one_tuples(self, batch_size):
        """``itemgetter`` with one argument returns the bare item: a
        one-column table and select list must still be 1-tuples, and a join
        on one column (keyed on the bare value) must still join them."""
        from repro.storage.executor import ExecutionStats
        from repro.storage.operators import ExecutionContext, HashJoin

        db = Database(exec_settings=ExecutionSettings(batch_size=batch_size))
        db.execute("CREATE TABLE one (v INTEGER)")
        db.execute("CREATE TABLE other (v INTEGER)")
        db.insert_rows("one", [{"v": v} for v in (0, 1, None, 3, 4)])
        db.insert_rows("other", [{"v": v} for v in (3, None, 1, 1)])
        expected = [(0,), (1,), (None,), (3,), (4,)]
        assert db.execute("SELECT * FROM one").rows == expected
        assert db.execute("SELECT v FROM one").rows == expected
        assert db.execute("SELECT v FROM one WHERE v >= 0").rows == [
            row for row in expected if row != (None,)
        ]
        join = "SELECT one.v FROM one, other WHERE one.v = other.v"
        assert sorted(db.execute(join).rows) == [(1,), (1,), (3,)]
        root = db.explain(join).root
        assert isinstance(root, HashJoin)
        ctx = ExecutionContext(metrics=ExecutionStats(), batch_size=batch_size)
        rows = [row for batch in root.batches(ctx) for row in batch]
        assert sorted(rows) == [(1, 1), (1, 1), (3, 3)]  # left row + right row
        assert {len(row) for batch in root.left.batches(ctx) for row in batch} == {1}

    def test_limit_short_circuit_still_honest(self):
        db = _make_db()
        result = db.execute("SELECT name FROM lakes LIMIT 3")
        assert len(result.rows) == 3
        # Batch size is capped at the LIMIT budget: only 3 heap rows fetched.
        assert result.stats.rows_scanned == 3
        # A sort reads every row first and still returns the top three.
        ordered = db.execute("SELECT name FROM lakes ORDER BY area DESC LIMIT 3")
        full = db.execute("SELECT name FROM lakes ORDER BY area DESC")
        assert ordered.rows == full.rows[:3]

    def test_large_limit_does_not_overscan(self):
        """The batch size tracks the remaining LIMIT budget, so limits larger
        than one batch still touch exactly LIMIT heap rows."""
        db = Database(exec_settings=ExecutionSettings(batch_size=256))
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [{"a": i} for i in range(1000)])
        result = db.execute("SELECT a FROM t LIMIT 300")
        assert len(result.rows) == 300
        assert result.stats.rows_scanned == 300

    def test_compiled_artifacts_memoized_across_executions(self):
        """A cached plan compiles its filter kernels once, and re-binding the
        plan's parameters stays visible to the memoized kernels."""
        from repro.storage.operators import Filter

        db = _make_db()
        first = db.execute("SELECT name FROM lakes WHERE state = 's1'")
        root = db.explain("SELECT name FROM lakes WHERE state = 's1'").root
        assert isinstance(root, Filter)
        kernels_after_first = root.kernels
        assert kernels_after_first is not None  # the conjunct compiled
        second = db.execute("SELECT name FROM lakes WHERE state = 's2'")
        assert second.stats.plan_cache_hit
        assert root.kernels is kernels_after_first  # compiled once, reused
        expected = [
            (row["name"],) for row in _named_rows(db, "lakes") if row["state"] == "s2"
        ]
        assert sorted(second.rows) == sorted(expected)
        assert first.rows != second.rows

    def test_batches_metric_reported(self):
        db = _make_db(ExecutionSettings(batch_size=64))
        result = db.execute("SELECT * FROM lakes")
        assert result.stats.batches == 200 // 64 + 1

    def test_limit_budget_skips_join_pipelines(self):
        """The LIMIT batch cap applies to scan/filter pipelines only — a join
        keeps full batches (its build side consumes everything anyway)."""
        from repro.storage.executor import _limit_budget_applies
        from repro.storage.operators import Filter as FilterOp

        db = _make_db(ExecutionSettings(batch_size=64))
        join_root = db.explain(
            "SELECT l.name FROM lakes l, samples s WHERE l.lake_id = s.lake_id LIMIT 1"
        ).root
        scan_root = db.explain("SELECT name FROM lakes WHERE area > 5 LIMIT 1").root
        assert not _limit_budget_applies(join_root)
        assert isinstance(scan_root, FilterOp) and _limit_budget_applies(scan_root)
        result = db.execute(
            "SELECT l.name FROM lakes l, samples s WHERE l.lake_id = s.lake_id LIMIT 1"
        )
        assert len(result.rows) == 1


class TestExplainAnalyze:
    def test_actual_rows_match_rows_scanned(self):
        db = _make_db()
        explanation = db.explain("SELECT * FROM lakes", analyze=True)
        assert explanation.analyzed
        assert explanation.stats is not None
        text = explanation.text()
        assert f"SeqScan lakes [est=200] (actual rows={explanation.stats.rows_scanned}" in text
        assert explanation.stats.rows_scanned == 200

    def test_filter_and_join_actuals(self):
        db = _make_db()
        explanation = db.explain(
            "SELECT l.name FROM lakes l, samples s "
            "WHERE l.lake_id = s.lake_id AND s.depth < 3",
            analyze=True,
        )
        expected = db.execute(
            "SELECT l.name FROM lakes l, samples s "
            "WHERE l.lake_id = s.lake_id AND s.depth < 3"
        )
        text = explanation.text()
        # The filter's actual output must equal the count of qualifying rows.
        matching = sum(1 for row in _named_rows(db, "samples") if row["depth"] < 3)
        assert f"(actual rows={matching}" in text
        assert f"Execution: {len(expected.rows)} rows" in text
        assert f"(actual rows={len(expected.rows)})" in text  # Project line

    def test_batches_and_time_reported(self):
        db = _make_db(ExecutionSettings(batch_size=64))
        text = db.explain("SELECT * FROM samples", analyze=True).text()
        assert "batches=16" in text
        assert "time=" in text

    def test_analyze_rejects_dml(self):
        db = _make_db()
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            db.explain("DELETE FROM lakes WHERE lake_id = 1", analyze=True)

    def test_analyze_of_cached_plan_is_marked(self):
        db = _make_db()
        db.execute("SELECT name FROM lakes WHERE state = 's1'")
        explanation = db.explain(
            "SELECT name FROM lakes WHERE state = 's2'", analyze=True
        )
        assert "(cached)" in explanation.text()
        assert explanation.plan_cache_hit
        # The re-bound constant must drive the actual execution.
        expected = sum(1 for row in _named_rows(db, "lakes") if row["state"] == "s2")
        assert f"Execution: {expected} rows" in explanation.text()

    def test_index_probe_loops_reported(self):
        db = _make_db()
        db.execute("CREATE INDEX samples_lake ON samples (lake_id)")
        text = db.explain(
            "SELECT l.name FROM lakes l, samples s WHERE l.lake_id = s.lake_id",
            analyze=True,
        ).text()
        assert "IndexLoopJoin" in text
        assert "loops=" in text

    def test_workbench_renders_analyzed_plan(self):
        from repro.client.render import render_plan

        db = _make_db()
        rendered = render_plan(db.explain("SELECT * FROM lakes", analyze=True))
        assert "(analyzed)" in rendered
        assert "actual rows=" in rendered


class TestStatementCache:
    def test_identical_text_skips_parser(self):
        db = _make_db()
        sql = "SELECT name FROM lakes WHERE state = 's1'"
        first = db.execute(sql)
        second = db.execute(sql)
        assert first.rows == second.rows
        assert not first.stats.statement_cache_hit
        assert second.stats.statement_cache_hit
        stats = db.plan_cache_stats()
        assert stats.statement_hits == 1
        assert stats.statement_misses == 1
        assert stats.statement_hit_rate == 0.5

    def test_different_constants_hit_the_token_template_and_the_plan_cache(self):
        """The first text of a token template is parsed; the second, with
        other constants, is tokenized and bound without a parse."""
        db = _make_db()
        first = db.execute("SELECT name FROM lakes WHERE state = 's1'")
        result = db.execute("SELECT name FROM lakes WHERE state = 's2'")
        assert not first.stats.statement_cache_hit
        assert result.stats.statement_cache_hit
        assert result.stats.plan_cache_hit
        stats = db.plan_cache_stats()
        assert (stats.statement_hits, stats.template_hits, stats.statement_misses) == (1, 1, 1)
        expected = [
            (row["name"],) for row in _named_rows(db, "lakes") if row["state"] == "s2"
        ]
        assert sorted(result.rows) == sorted(expected)

    def test_interleaved_templates_rebind_correctly(self):
        """A statement-cache hit must re-bind its own constants even after a
        different instance of the same template executed in between."""
        db = _make_db()
        sql_one = "SELECT COUNT(*) FROM lakes WHERE state = 's1'"
        sql_two = "SELECT COUNT(*) FROM lakes WHERE state = 's5'"
        count_one = db.execute(sql_one).scalar()
        count_two = db.execute(sql_two).scalar()
        assert count_one != count_two
        assert db.execute(sql_one).scalar() == count_one
        assert db.execute(sql_two).scalar() == count_two
        assert db.execute(sql_one).scalar() == count_one

    def test_dml_statement_cache_roundtrip(self):
        db = _make_db()
        sql = "UPDATE samples SET temp = 0.0 WHERE depth = 5"
        first = db.execute(sql)
        second = db.execute(sql)
        assert second.stats.statement_cache_hit
        assert second.rowcount == first.rowcount
        assert all(
            row["temp"] == 0.0 for row in _named_rows(db, "samples") if row["depth"] == 5
        )

    def test_ddl_not_statement_cached(self):
        db = _make_db()
        db.execute("CREATE TABLE extra (x INTEGER)")
        stats = db.plan_cache_stats()
        assert stats.statement_lookups == 0

    def test_disabled_plan_cache_disables_statement_cache(self):
        db = _make_db(plan_cache_size=0)
        sql = "SELECT COUNT(*) FROM lakes"
        db.execute(sql)
        result = db.execute(sql)
        assert not result.stats.statement_cache_hit


class TestJoinFanoutCalibration:
    def _db_with_ranges(self, left_range, right_range):
        db = Database()
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER)")
        db.insert_rows("l", [{"k": v} for v in left_range])
        db.insert_rows("r", [{"k": v} for v in right_range])
        db.statistics("l", refresh=True)
        db.statistics("r", refresh=True)
        return db

    def _join_estimate(self, db) -> float:
        explanation = db.explain("SELECT * FROM l, r WHERE l.k = r.k")
        assert explanation.root is not None
        return explanation.root.estimate

    def test_disjoint_key_ranges_estimate_near_zero(self):
        db = self._db_with_ranges(range(0, 500), range(1000, 1500))
        assert self._join_estimate(db) <= 2.0
        assert len(db.execute("SELECT * FROM l, r WHERE l.k = r.k").rows) == 0

    def test_overlapping_ranges_beat_distinct_only_estimate(self):
        # Keys overlap on [250, 500): the true join size is 250.
        db = self._db_with_ranges(range(0, 500), range(250, 750))
        estimate = self._join_estimate(db)
        actual = len(db.execute("SELECT * FROM l, r WHERE l.k = r.k").rows)
        assert actual == 250
        # The distinct-only formula says |L|*|R|/max(d) = 500; the histogram
        # overlap scaling must land meaningfully closer to the truth.
        distinct_only = 500.0 * 500.0 / 500.0
        assert abs(estimate - actual) < abs(distinct_only - actual)

    def test_identical_ranges_keep_classical_estimate(self):
        db = self._db_with_ranges(range(0, 300), range(0, 300))
        estimate = self._join_estimate(db)
        actual = len(db.execute("SELECT * FROM l, r WHERE l.k = r.k").rows)
        assert actual == 300
        assert 150.0 <= estimate <= 600.0


class TestStoredRowsNeedNoNames:
    """The heap's tuples are the rows every operator and every DML path
    works on: over a 2,000-row table no statement asks the schema for a
    name-keyed row (``TableSchema.as_dict``), resolves row names
    (``TableSchema.coerce_rows``) or calls ``dict`` anywhere in the engine."""

    #: ``(statement, operator its plan must use)``
    STATEMENTS = [
        ("SELECT * FROM big", "SeqScan big"),
        ("SELECT id FROM big WHERE w > 3 AND s LIKE 's1%'", "Filter (w > 3"),
        ("SELECT b.id, m.label FROM big b, small m WHERE b.w = m.k", "HashJoin"),
        ("SELECT b.id, m.label FROM small m, big b WHERE m.k = b.k", "IndexLoopJoin"),
        ("SELECT w, COUNT(*), SUM(v) FROM big WHERE w > 2 GROUP BY w", "HashAggregate"),
        ("SELECT w + 1, COUNT(*), SUM(v) FROM big GROUP BY w + 1", "HashAggregate"),
        ("SELECT * FROM big WHERE k = 5", "IndexScan big"),
        ("SELECT id FROM big WHERE v > 10.0 AND v < 20.0", "Filter (v > 10.0"),
        ("SELECT id FROM big ORDER BY v", "Sort [v]"),
        ("UPDATE big SET w = w + 1 WHERE k = 3", "IndexScan big"),
        ("UPDATE big SET s = 'z' WHERE w = 1", "SeqScan big"),
        ("DELETE FROM big WHERE w = 6", "SeqScan big"),
        ("INSERT INTO copy SELECT * FROM big WHERE w < 3", "Insert [copy]"),
        ("INSERT INTO copy (v, id) SELECT v, id FROM big", "Insert [copy]"),
    ]

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, w INTEGER, v FLOAT, s TEXT)")
        db.execute("CREATE TABLE small (k INTEGER, label TEXT)")
        db.execute("CREATE TABLE copy (id INTEGER, k INTEGER, w INTEGER, v FLOAT, s TEXT)")
        db.execute("CREATE INDEX big_k ON big (k)")
        db.insert_rows(
            "big",
            [
                {"id": i, "k": i % 50, "w": i % 7, "v": (i * 37 % 1000) / 10.0,
                 "s": None if i % 9 == 0 else f"s{i % 13}"}
                for i in range(2000)
            ],
        )
        db.insert_rows("small", [{"k": i, "label": f"l{i}"} for i in range(5)])
        return db

    @pytest.fixture
    def name_calls(self, monkeypatch):
        """Every name-keyed row the engine builds, recorded by its route."""
        from repro.storage import (
            aggregates, database, executor, expression, kernels, operators,
            planner, schema, table,
        )

        calls: list[str] = []

        def counting(name, function):
            def counted(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return counted

        class CountedDictType(type):
            """``dict`` for the engine's modules: calling it is counted,
            ``isinstance`` checks against it still mean ``dict``."""

            def __call__(cls, *args, **kwargs):
                calls.append("dict")
                return dict(*args, **kwargs)

            def __instancecheck__(cls, value):
                return isinstance(value, dict)

        counted_dict = CountedDictType("dict", (), {})
        for method in ("as_dict", "coerce_rows"):
            original = getattr(schema.TableSchema, method)
            monkeypatch.setattr(schema.TableSchema, method, counting(method, original))
        for module in (aggregates, database, executor, expression, kernels,
                       operators, planner, schema, table):
            monkeypatch.setattr(module, "dict", counted_dict, raising=False)
        return calls

    @pytest.mark.parametrize("sql, operator", STATEMENTS)
    def test_statement_builds_no_named_row(self, db, name_calls, sql, operator):
        assert operator in db.explain(sql).text()
        name_calls.clear()
        result = db.execute(sql)
        assert name_calls == []
        assert result.rowcount > 0

    def test_insert_select_places_listed_columns(self, db):
        db.execute("INSERT INTO copy (v, id) SELECT v, id FROM big WHERE id < 3")
        assert db.execute("SELECT * FROM copy ORDER BY id").rows == [
            (0, None, None, 0.0, None),
            (1, None, None, 3.7, None),
            (2, None, None, 7.4, None),
        ]
