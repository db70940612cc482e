"""Tests for the cost-based planner: access paths, join order, EXPLAIN."""

import re

import pytest

from repro.errors import ExecutionError
from repro.storage.database import Database
from repro.storage.operators import HashJoin
from repro.storage.planner import Planner
from repro.storage.types import compare_values, sort_key
from repro.sql.parser import parse


def _built(plan):
    """The input that the plan's root, a hash join, builds."""
    join = plan.root
    assert isinstance(join, HashJoin), plan.text()
    return join.left if join.build_left else join.right


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE lakes (id INTEGER PRIMARY KEY, name TEXT, state TEXT, area FLOAT)"
    )
    database.execute(
        "CREATE TABLE readings (lake_id INTEGER, temp FLOAT, depth FLOAT, month INTEGER)"
    )
    database.execute(
        "INSERT INTO lakes (id, name, state, area) VALUES "
        "(1, 'Washington', 'WA', 87.6), (2, 'Union', 'WA', 2.3), "
        "(3, 'Michigan', 'MI', 58000.0), (4, 'Chelan', 'WA', 135.0)"
    )
    database.execute(
        "INSERT INTO readings (lake_id, temp, depth, month) VALUES "
        "(1, 15.0, 5.0, 6), (1, 17.5, 10.0, 7), (1, 12.0, 20.0, 8), "
        "(2, 20.0, 3.0, 6), (2, 22.5, 4.0, 7), "
        "(3, 9.0, 30.0, 6), (4, 11.0, 12.0, 7)"
    )
    return database


class TestAccessPathSelection:
    def test_equality_on_indexed_column_uses_index_scan(self, db):
        plan = db.explain("SELECT name FROM lakes WHERE id = 2")
        assert "IndexScan lakes (id = 2)" in plan.text()
        assert "SeqScan" not in plan.text()

    def test_equality_on_unindexed_column_uses_seq_scan(self, db):
        plan = db.explain("SELECT name FROM lakes WHERE state = 'WA'")
        assert "SeqScan lakes" in plan.text()
        assert "Filter (state = 'WA')" in plan.text()

    def test_created_index_is_picked_up(self, db):
        before = db.explain("SELECT * FROM readings WHERE month = 7")
        assert "SeqScan readings" in before.text()
        db.execute("CREATE INDEX idx_month ON readings (month)")
        after = db.explain("SELECT * FROM readings WHERE month = 7")
        assert "IndexScan readings (month = 7)" in after.text()

    def test_non_equality_predicates_stay_as_filters(self, db):
        plan = db.explain("SELECT name FROM lakes WHERE id > 2")
        assert "SeqScan lakes" in plan.text()

    def test_remaining_predicates_filter_above_index_scan(self, db):
        plan = db.explain("SELECT name FROM lakes WHERE id = 2 AND area > 1")
        text = plan.text()
        assert "IndexScan lakes (id = 2)" in text
        assert "Filter (area > 1" in text

    def test_index_scan_results_match_seq_scan(self, db):
        statement = parse("SELECT name FROM lakes WHERE id = 3")
        indexed = Planner(db).plan_select(statement)
        seq_only = Planner(db, use_indexes=False).plan_select(statement)
        assert "IndexScan" in "\n".join(indexed.explain_lines())
        assert "IndexScan" not in "\n".join(seq_only.explain_lines())
        assert db.execute(statement).rows == [("Michigan",)]

    def test_index_probe_matches_engine_equality_semantics(self, db):
        # compare_values string-compares mixed number/text, so indexed and
        # unindexed execution must agree on cross-type equality.
        assert db.execute("SELECT name FROM lakes WHERE id = '2'").rows == [("Union",)]
        assert db.execute("SELECT name FROM lakes WHERE id = '02'").rows == []
        db.execute("CREATE INDEX idx_name ON lakes (name)")
        assert db.execute("SELECT id FROM lakes WHERE name = 'Union'").rows == [(2,)]
        # Numeric probe against the indexed TEXT column: str-comparison match.
        db.execute("INSERT INTO lakes (id, name, state, area) VALUES (7, '42', 'ZZ', 1.0)")
        assert db.execute("SELECT id FROM lakes WHERE name = 42").rows == [(7,)]

    def test_boolean_probe_on_numeric_index_falls_back_to_scan(self, db):
        # TRUE against an INTEGER column matches by truthiness (every nonzero
        # id); that cannot be one hash probe, so the planner must not claim an
        # IndexScan and execution must keep compare_values semantics.
        plan = db.explain("SELECT name FROM lakes WHERE id = TRUE")
        assert "IndexScan" not in plan.text()
        result = db.execute("SELECT name FROM lakes WHERE id = TRUE")
        assert len(result.rows) == 4

    def test_index_scan_scans_fewer_rows(self, db):
        by_index = db.execute("SELECT name FROM lakes WHERE id = 1")
        assert by_index.stats.rows_scanned == 1
        assert by_index.stats.index_lookups == 1
        by_scan = db.execute("SELECT name FROM lakes WHERE state = 'WA'")
        assert by_scan.stats.rows_scanned == 4
        assert by_scan.stats.index_lookups == 0


class TestRangePredicates:
    """Range predicates run as a Filter over a SeqScan and keep their rows."""

    def test_range_predicate_filters_a_seq_scan(self, db):
        plan = db.explain("SELECT name FROM lakes WHERE area > 50")
        assert "Filter (area > 50)" in plan.text(), plan.text()
        assert "SeqScan lakes" in plan.text()
        result = db.execute("SELECT name FROM lakes WHERE area > 50")
        assert set(result.column("name")) == {"Washington", "Michigan", "Chelan"}
        assert result.stats.index_lookups == 0
        assert result.stats.rows_scanned == 4

    def test_between(self, db):
        result = db.execute("SELECT name FROM lakes WHERE area BETWEEN 2 AND 200")
        assert set(result.column("name")) == {"Washington", "Union", "Chelan"}

    def test_bounds_on_same_column(self, db):
        result = db.execute(
            "SELECT name FROM lakes WHERE area > 2 AND area <= 200 AND area > 3"
        )
        assert set(result.column("name")) == {"Washington", "Chelan"}

    def test_range_results_match_seq_scan(self, db):
        db.execute("CREATE INDEX lakes_area ON lakes (area)")
        sql = "SELECT name FROM lakes WHERE area >= 2.3 AND area < 135"
        statement = parse(sql)
        indexed = db.execute(statement)
        seq_plan = Planner(db, use_indexes=False).plan_select(statement)
        from repro.storage.executor import Executor

        executor = Executor(db)
        _, seq_rows = executor._execute_plan(seq_plan, None)
        assert sorted(indexed.rows) == sorted(seq_rows)
        assert sorted(seq_rows) == [("Union",), ("Washington",)]

    def test_string_bound_on_numeric_column_compares_strings(self, db):
        # compare_values string-compares a numeric column against a string
        # bound: '2.3' and '135.0' sort below '50', '87.6' and '58000.0' not.
        result = db.execute("SELECT name FROM lakes WHERE area < '50'")
        assert set(result.column("name")) == {"Union", "Chelan"}

    def test_equality_pick_beats_range(self, db):
        plan = db.explain("SELECT name FROM lakes WHERE id = 2 AND area > 1")
        assert "IndexScan lakes (id = 2)" in plan.text()


class TestRangeComparisonSemantics:
    """``WHERE`` range bounds with ``ORDER BY v``, with and without a hash
    index on ``v``: the rows must be what the range predicate and the order
    say, also for a bound whose comparison is by string (a string against an
    INTEGER column compares decimal *strings*)."""

    VALUES = [5, None, 12, 7, 100, None, 7, 30]

    @pytest.fixture(params=[False, True], ids=["no-index", "hash-index"])
    def database(self, request):
        database = Database()
        database.execute("CREATE TABLE r (id INTEGER, v INTEGER)")
        database.insert_rows("r", [{"id": i, "v": v} for i, v in enumerate(self.VALUES)])
        if request.param:
            database.execute("CREATE INDEX r_v ON r (v)")
        return database

    @staticmethod
    def sql(low=None, high=None, low_inclusive=True, high_inclusive=True, descending=False):
        conditions = []
        if low is not None:
            conditions.append(f"v {'>=' if low_inclusive else '>'} {low!r}")
        if high is not None:
            conditions.append(f"v {'<=' if high_inclusive else '<'} {high!r}")
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT id FROM r{where} ORDER BY v{' DESC' if descending else ''}"

    @staticmethod
    def reference(table, low=None, high=None, low_inclusive=True, high_inclusive=True, descending=False):
        """Filter ``Table.scan`` by the range predicate, then ORDER BY v."""
        def keep(value):
            if low is not None:
                ordering = compare_values(value, low)
                if ordering is None or ordering < (0 if low_inclusive else 1):
                    return False
            if high is not None:
                ordering = compare_values(value, high)
                if ordering is None or ordering > (0 if high_inclusive else -1):
                    return False
            return True

        rows = [table.schema.as_dict(row) for _, row in table.scan()]
        rows = [row for row in rows if keep(row["v"])]
        present = sorted(
            (row for row in rows if row["v"] is not None),
            key=lambda row: sort_key(row["v"]),
            reverse=descending,
        )
        nulls = [row for row in rows if row["v"] is None]
        # NULLs sort first ascending and last descending.
        return [row["id"] for row in (present + nulls if descending else nulls + present)]

    @pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
    @pytest.mark.parametrize(
        "bounds",
        [
            {},
            {"low": 7},
            {"low": 7, "low_inclusive": False},
            {"high": 30},
            {"high": 30, "high_inclusive": False},
            {"low": 7, "high": 30},
            {"low": 7, "high": 30, "low_inclusive": False, "high_inclusive": False},
            {"low": 200},
            # By string: "3" <= str(v) keeps 5, 7, 7, 30 but not 12 or 100.
            {"low": "3"},
            {"low": "3", "high": "7", "high_inclusive": False},
        ],
        ids=str,
    )
    def test_matches_filtered_sorted_scan(self, database, bounds, descending):
        result = database.execute(self.sql(descending=descending, **bounds))
        ids = result.column("id")
        expected = self.reference(database.table("r"), descending=descending, **bounds)
        # Equal keys come back in either order; the ids are compared per key.
        values = [self.VALUES[i] for i in ids]
        assert values == [self.VALUES[i] for i in expected]
        assert sorted(ids) == sorted(expected)
        assert result.stats.rows_scanned == len(self.VALUES)
        assert result.stats.index_lookups == 0

    def test_null_bound_is_an_empty_range(self, database):
        assert database.execute("SELECT id FROM r WHERE v >= NULL").rows == []


class TestOrderBy:
    """ORDER BY is one sort over the filtered scan, whatever the indexes."""

    def test_order_by_column_sorts(self, db):
        plan = db.explain("SELECT name FROM lakes ORDER BY area")
        assert "Sort [area]" in plan.text(), plan.text()
        result = db.execute("SELECT name FROM lakes ORDER BY area")
        assert result.column("name") == ["Union", "Washington", "Chelan", "Michigan"]

    def test_order_by_desc(self, db):
        result = db.execute("SELECT name FROM lakes ORDER BY area DESC")
        assert result.column("name") == ["Michigan", "Chelan", "Washington", "Union"]

    def test_order_by_limit(self, db):
        result = db.execute("SELECT name FROM lakes ORDER BY area DESC LIMIT 2")
        assert result.column("name") == ["Michigan", "Chelan"]

    def test_range_predicate_and_matching_order(self, db):
        result = db.execute(
            "SELECT name FROM lakes WHERE area > 3 ORDER BY area DESC"
        )
        assert result.column("name") == ["Michigan", "Chelan", "Washington"]

    def test_order_by_alias_shadowing_column(self, db):
        # ORDER BY resolves select-list aliases first.
        plan = db.explain("SELECT name, id * -1 AS area FROM lakes ORDER BY area")
        assert "Sort [area]" in plan.text()
        result = db.execute("SELECT name, id * -1 AS area FROM lakes ORDER BY area")
        assert result.column("name") == ["Chelan", "Michigan", "Union", "Washington"]

    def test_multi_key_order(self, db):
        result = db.execute("SELECT name FROM lakes ORDER BY area, name")
        assert result.column("name") == ["Union", "Washington", "Chelan", "Michigan"]

    def test_multi_key_order_matches_a_python_sort(self):
        db = Database()
        db.execute("CREATE TABLE events (usr TEXT, ts INTEGER, seq INTEGER)")
        rows = [
            {"usr": f"u{(i * 7) % 5}", "ts": (i * 13) % 17, "seq": i}
            for i in range(120)
        ]
        db.insert_rows("events", rows)
        db.execute("CREATE INDEX events_usr ON events (usr)")
        result = db.execute("SELECT usr, ts, seq FROM events ORDER BY usr, ts DESC")
        # Stable: ts descending first, then usr ascending keeps ties in order.
        expected = sorted(rows, key=lambda row: row["ts"], reverse=True)
        expected.sort(key=lambda row: row["usr"])
        assert result.rows == [(r["usr"], r["ts"], r["seq"]) for r in expected]

    def test_multi_key_order_desc_first_key(self, db):
        result = db.execute("SELECT name FROM lakes ORDER BY area DESC, name")
        assert result.column("name") == ["Michigan", "Chelan", "Washington", "Union"]

    def test_multi_key_order_with_limit(self):
        db = Database()
        db.execute("CREATE TABLE events (usr TEXT, ts INTEGER)")
        db.insert_rows(
            "events",
            [{"usr": f"u{i % 4}", "ts": i} for i in range(2000)],
        )
        result = db.execute("SELECT usr, ts FROM events ORDER BY usr, ts LIMIT 5")
        assert result.rows == [("u0", ts) for ts in (0, 4, 8, 12, 16)]

    def test_join_keeps_sort(self, db):
        plan = db.explain(
            "SELECT L.name FROM lakes L, readings R WHERE L.id = R.lake_id ORDER BY L.area"
        )
        assert "Sort" in plan.text()


class TestDmlPlanning:
    def test_update_with_indexed_where_probes_index(self, db):
        plan = db.explain("UPDATE lakes SET area = 0.0 WHERE id = 2")
        text = plan.text()
        assert plan.statement_kind == "update"
        assert text.startswith("Update [lakes]")
        assert "IndexScan lakes (id = 2)" in text
        assert "SeqScan" not in text

    def test_delete_with_indexed_where_probes_index(self, db):
        plan = db.explain("DELETE FROM lakes WHERE id = 2")
        assert plan.statement_kind == "delete"
        assert "Delete [lakes]" in plan.text()
        assert "IndexScan lakes (id = 2)" in plan.text()

    def test_dml_range_predicate_filters_a_scan(self, db):
        plan = db.explain("DELETE FROM readings WHERE temp < 12")
        assert "Filter (temp < 12)" in plan.text(), plan.text()
        assert "SeqScan readings" in plan.text()
        result = db.execute("DELETE FROM readings WHERE temp < 12")
        assert result.rowcount == 2
        assert result.stats.rows_scanned == 7
        assert result.stats.index_lookups == 0

    def test_dml_without_usable_index_full_scans(self, db):
        plan = db.explain("UPDATE readings SET depth = 0.0 WHERE month = 7")
        assert "SeqScan readings" in plan.text()
        assert "Filter (month = 7)" in plan.text()

    def test_dml_without_where_full_scans(self, db):
        plan = db.explain("DELETE FROM readings")
        assert "SeqScan readings" in plan.text()
        assert "Filter" not in plan.text()

    def test_dml_subquery_predicate_stays_residual(self, db):
        plan = db.explain(
            "DELETE FROM readings WHERE lake_id IN (SELECT id FROM lakes WHERE state = 'MI')"
        )
        assert "Filter (lake_id IN" in plan.text()
        result = db.execute(
            "DELETE FROM readings WHERE lake_id IN (SELECT id FROM lakes WHERE state = 'MI')"
        )
        assert result.rowcount == 1

    def test_planned_update_matches_full_scan_semantics(self, db):
        db.execute("UPDATE lakes SET area = area + 1 WHERE id = 2")
        assert db.execute("SELECT area FROM lakes WHERE id = 2").scalar() == 3.3

    def test_update_of_the_probed_column_is_safe(self, db):
        # The access path drives through the index being rewritten: the
        # candidate list must be materialized before mutation.
        result = db.execute("UPDATE lakes SET id = id + 10 WHERE id > 0")
        assert result.rowcount == 4
        assert sorted(db.execute("SELECT id FROM lakes").column("id")) == [11, 12, 13, 14]


class TestJoinPlanning:
    def test_index_loop_join_probes_indexed_side(self, db):
        plan = db.explain(
            "SELECT L.name, R.temp FROM lakes L, readings R "
            "WHERE L.id = R.lake_id AND R.temp < 12"
        )
        text = plan.text()
        assert "IndexLoopJoin" in text
        assert "IndexScan lakes AS L (id = R.lake_id)" in text

    def test_hash_join_without_usable_index(self, db):
        db.execute("CREATE TABLE states (code TEXT, region TEXT)")
        db.execute("INSERT INTO states VALUES ('WA', 'west'), ('MI', 'midwest')")
        plan = db.explain("SELECT * FROM lakes L, states S WHERE L.state = S.code")
        assert "HashJoin" in plan.text()

    def test_join_order_starts_with_smaller_estimate(self, db):
        # With fresh statistics, the skew is visible to the planner: the
        # filtered readings side (temp < 10 matches one row) must drive the
        # join rather than the 4-row lakes table being scanned per row.
        db.statistics("lakes", refresh=True)
        db.statistics("readings", refresh=True)
        plan = db.explain(
            "SELECT L.name FROM lakes L, readings R "
            "WHERE L.id = R.lake_id AND R.temp < 10"
        )
        lines = plan.lines
        scan_lines = [l for l in lines if "Scan" in l]
        # The first access path in the tree is the driving (outer) side.
        assert "readings" in scan_lines[0]

    def test_join_order_with_skewed_statistics(self):
        db = Database()
        db.execute("CREATE TABLE big (k INTEGER, payload TEXT)")
        db.execute("CREATE TABLE small (k INTEGER, tag TEXT)")
        db.insert_rows("big", [{"k": i % 50, "payload": "x"} for i in range(400)])
        db.insert_rows("small", [{"k": i, "tag": "t"} for i in range(5)])
        db.statistics("big", refresh=True)
        db.statistics("small", refresh=True)
        plan = db.explain("SELECT * FROM big B, small S WHERE B.k = S.k")
        assert _built(plan).table.name == "small", plan.text()
        result = db.execute("SELECT COUNT(*) FROM big B, small S WHERE B.k = S.k")
        assert result.scalar() == 5 * 8

    def test_hash_join_build_side_is_smaller_input(self, db):
        db.execute("CREATE TABLE tiny (state TEXT)")
        db.execute("INSERT INTO tiny VALUES ('WA')")
        plan = db.explain("SELECT * FROM lakes L, tiny T WHERE L.state = T.state")
        assert _built(plan).table.name == "tiny", plan.text()
        # tiny is joined first but stays the right input: FROM order.
        assert [name for name, _ in plan.root.bindings] == ["L", "T"]

    def test_cross_join_is_nested_loop(self, db):
        plan = db.explain("SELECT * FROM lakes CROSS JOIN readings")
        assert "HashJoin (cross) [build=right" in plan.text()


class TestDuplicateBindings:
    """One FROM clause may not bind a name twice: rows are positions, but a
    qualified reference or ``alias.*`` would still mean either relation."""

    @pytest.fixture()
    def pair(self):
        database = Database()
        database.execute("CREATE TABLE a (k INTEGER, v INTEGER)")
        database.execute("CREATE TABLE b (k INTEGER, w INTEGER)")
        database.execute("INSERT INTO a VALUES (1, 1), (2, 2)")
        database.execute("INSERT INTO b VALUES (1, 10), (2, 20)")
        return database

    @pytest.mark.parametrize(
        "sql, name",
        [
            ("SELECT * FROM a, a", "a"),
            ("SELECT * FROM a x, b x WHERE x.k = x.k", "x"),
            ("SELECT * FROM a JOIN b A ON a.k = A.k", "A"),
            ("SELECT * FROM a LEFT JOIN b a ON 1 = 1", "a"),
            ("SELECT * FROM a x, (SELECT k FROM b) X", "X"),
            ("SELECT * FROM a WHERE k IN (SELECT b.k FROM b, b)", "b"),
        ],
    )
    def test_rejected_with_a_typed_error(self, pair, sql, name):
        with pytest.raises(ExecutionError, match=f"table name '{name}' specified more than once"):
            pair.execute(sql)

    def test_rejected_at_plan_time(self, pair):
        with pytest.raises(ExecutionError, match="specified more than once"):
            pair.explain("SELECT * FROM a, a WHERE 1 = 0")

    def test_two_aliases_of_one_table_still_work(self, pair):
        assert sorted(pair.execute("SELECT * FROM a x, a y").rows) == [
            (1, 1, 1, 1),
            (1, 1, 2, 2),
            (2, 2, 1, 1),
            (2, 2, 2, 2),
        ]
        # The same name in a subquery's own FROM clause is a different scope.
        assert pair.execute(
            "SELECT a.k FROM a WHERE EXISTS (SELECT 1 FROM a WHERE a.v = 2)"
        ).rows == [(1,), (2,)]


class TestHashJoinEquality:
    """A hash join compares raw values, so the planner hashes a pair only when
    that is the engine's ``=``; any other pair is an ordinary conjunct."""

    @pytest.fixture()
    def typed(self, exec_variant):
        database = Database(exec_settings=exec_variant)
        database.execute("CREATE TABLE a (k INTEGER, t BOOLEAN, f FLOAT)")
        database.execute("CREATE TABLE b (s TEXT, k INTEGER)")
        database.insert_rows(
            "a",
            [
                {"k": 1, "t": True, "f": 1.0},
                {"k": 2, "t": False, "f": 2.5},
                {"k": None, "t": None, "f": 0.0},
            ],
        )
        database.insert_rows(
            "b", [{"s": "1", "k": 2}, {"s": "2", "k": 0}, {"s": "02", "k": None}]
        )
        return database

    @pytest.mark.parametrize(
        "hashed, twin",
        [
            ("a.k = b.s", "a.k + 0 = b.s"),
            ("b.s = a.k", "b.s = a.k + 0"),
            ("a.t = b.k", "a.t = b.k + 0"),
            ("a.t = b.s", "a.t = UPPER(b.s)"),
        ],
    )
    def test_mismatched_pair_answers_like_its_unhashable_twin(self, typed, hashed, twin):
        select = "SELECT a.k, a.t, b.s, b.k FROM a, b WHERE "
        assert "HashJoin (cross)" in typed.explain(select + hashed).text()
        got = typed.execute(select + hashed).rows
        assert got and sorted(got, key=repr) == sorted(
            typed.execute(select + twin).rows, key=repr
        )

    def test_int_text_and_bool_int_rows(self, typed):
        assert sorted(
            typed.execute("SELECT a.k, b.s FROM a, b WHERE a.k = b.s").rows
        ) == [(1, "1"), (2, "2")]
        # TRUE = 2 by truthiness, FALSE = 0.
        assert sorted(
            typed.execute("SELECT a.t, b.k FROM a, b WHERE a.t = b.k").rows
        ) == [(False, 0), (True, 2)]

    def test_same_class_pairs_still_hash(self, typed):
        for condition in ("a.f = b.k", "a.k = b.k", "a.k = d.k"):
            sql = f"SELECT * FROM a, b, (SELECT k FROM b) d WHERE {condition}"
            assert re.search(r"HashJoin \((?!cross)", typed.explain(sql).text()), condition
        assert typed.execute("SELECT a.f, b.k FROM a, b WHERE a.f = b.k").rows == [
            (0.0, 0)
        ]


class TestExplain:
    def test_explain_is_stable_across_calls(self, db):
        sql = (
            "SELECT L.state, COUNT(*) AS n FROM lakes L, readings R "
            "WHERE L.id = R.lake_id AND R.temp < 20 "
            "GROUP BY L.state HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3"
        )
        first = db.explain(sql)
        second = db.explain(sql)
        assert first.lines == second.lines

    def test_explain_decorations(self, db):
        plan = db.explain(
            "SELECT DISTINCT state FROM lakes ORDER BY state LIMIT 2 OFFSET 1"
        )
        text = plan.text()
        for marker in ("Limit [limit=2, offset=1]", "Distinct", "Sort [state]", "Project [state]"):
            assert marker in text
        # Decorations nest top-down: Limit above Distinct above Sort.
        assert plan.lines[0].startswith("Limit")

    def test_explain_aggregate_node(self, db):
        plan = db.explain("SELECT state, COUNT(*) FROM lakes GROUP BY state")
        assert "Aggregate [group by state]" in plan.text()

    def test_explain_select_without_from(self, db):
        plan = db.explain("SELECT 1 + 2")
        assert "Result" in plan.text()

    def test_explain_does_not_execute(self, db):
        db.explain("SELECT * FROM lakes")
        # A plan is produced without touching row counts.
        assert db.explain("SELECT * FROM lakes").statement_kind == "select"

    def test_explain_dml_statements(self, db):
        assert "Insert [lakes]" in db.explain(
            "INSERT INTO lakes (id, name, state, area) VALUES (9, 'X', 'OR', 1.0)"
        ).text()
        assert db.explain("DELETE FROM readings WHERE temp > 50").statement_kind == "delete"

    def test_explain_subquery_scan(self, db):
        plan = db.explain(
            "SELECT big.name FROM (SELECT name, area FROM lakes WHERE area > 100) big"
        )
        assert "SubqueryScan AS big" in plan.text()

    def test_explain_outer_join(self, db):
        plan = db.explain(
            "SELECT L.name FROM lakes L LEFT JOIN readings R ON L.id = R.lake_id"
        )
        assert "HashJoin LEFT (L.id = R.lake_id) [build=right" in plan.text()


class TestPlannerSemantics:
    """The planner must not change results, only how they are produced."""

    QUERIES = [
        "SELECT * FROM lakes WHERE id = 2",
        "SELECT name FROM lakes WHERE id = 2 AND state = 'WA'",
        "SELECT L.name, R.temp FROM lakes L, readings R WHERE L.id = R.lake_id",
        "SELECT L.name FROM lakes L JOIN readings R ON L.id = R.lake_id WHERE R.month = 8",
        "SELECT lake_id, COUNT(*) FROM readings GROUP BY lake_id",
        "SELECT * FROM lakes WHERE id = (SELECT MAX(lake_id) FROM readings)",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_rows_with_and_without_indexes(self, db, sql):
        statement = parse(sql)
        from repro.storage.executor import Executor

        with_indexes = db.execute(statement)
        # Plan the same statement with indexes disabled and compare rows.
        executor = Executor(db)
        plan = Planner(db, use_indexes=False).plan_select(statement)
        columns, rows = executor._execute_plan(plan, None)
        assert sorted(map(repr, rows)) == sorted(map(repr, with_indexes.rows))
        assert columns == with_indexes.columns

    def test_select_star_order_follows_from_clause(self, db):
        # Even when the planner reorders the join, * expands in FROM order.
        result = db.execute(
            "SELECT * FROM lakes L, readings R WHERE L.id = R.lake_id AND R.temp < 10"
        )
        assert result.columns == [
            "id", "name", "state", "area", "lake_id", "temp", "depth", "month",
        ]
        assert result.rows == [(3, "Michigan", "MI", 58000.0, 3, 9.0, 30.0, 6)]

    def test_limit_short_circuits_scan(self, db):
        result = db.execute("SELECT name FROM lakes LIMIT 2")
        assert len(result.rows) == 2
        # The streaming pipeline stops as soon as LIMIT is satisfied.
        assert result.stats.rows_scanned == 2


class TestMetaQueryExplain:
    def test_feature_relation_join_uses_qid_index(self, fresh_cqms):
        fresh_cqms.submit("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 18")
        fresh_cqms.submit(
            "alice",
            "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
            "WHERE S.lake = T.lake",
        )
        meta_sql = (
            "SELECT Q.qid FROM Queries Q, Attributes A "
            "WHERE Q.qid = A.qid AND A.relName = 'watertemp'"
        )
        explanation = fresh_cqms.explain_meta("alice", meta_sql)
        assert "IndexScan" in explanation.text()
        # The planner's answer matches the executed meta-query.
        result = fresh_cqms.store.execute_meta_sql(meta_sql)
        assert result.stats.index_lookups > 0

    def test_workbench_renders_plans(self, fresh_cqms):
        from repro.client.workbench import Workbench

        workbench = Workbench(fresh_cqms, "alice")
        workbench.type("SELECT * FROM WaterTemp WHERE lake_id = 3")
        panel = workbench.explain()
        assert panel.startswith("=== Query plan ===")
        assert "WaterTemp" in panel
        meta_panel = workbench.explain_meta("SELECT qid FROM Queries WHERE qid = 1")
        assert meta_panel.startswith("=== Meta-query plan ===")
        assert "IndexScan" in meta_panel
        assert workbench.history[-1].kind == "explain"
