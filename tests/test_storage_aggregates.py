"""Vectorized aggregation: accumulator semantics, operator selection,
EXPLAIN/ANALYZE surfacing, plan-cache reuse, and equivalence with the
historical row-at-a-time aggregation path."""

from __future__ import annotations

import pytest

from repro import CQMS, SimulatedClock, build_database
from repro.errors import ExecutionError
from repro.storage import Database, ExecutionSettings
from repro.storage.aggregates import (
    CountStarAccumulator,
    MaxAccumulator,
    MinAccumulator,
    SumAccumulator,
    collect_aggregate_specs,
)
from repro.storage.statistics import group_count_estimate
from repro.sql.parser import parse


def _make_db(exec_settings: ExecutionSettings | None = None) -> Database:
    db = Database(exec_settings=exec_settings)
    db.execute("CREATE TABLE lakes (lake_id INTEGER, name TEXT, area FLOAT, state TEXT)")
    db.insert_rows(
        "lakes",
        [
            {
                "lake_id": i,
                "name": f"lake{i}",
                "area": float((i * 37) % 101),
                "state": None if i % 11 == 0 else f"s{i % 7}",
            }
            for i in range(500)
        ],
    )
    return db


#: Grouped statements the vectorized path must answer identically to the
#: historical executor aggregation (rows sorted unless ORDER BY pins them).
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
]


class TestAccumulators:
    def test_sum_matches_single_fold(self):
        acc = SumAccumulator()
        values = [0.1, 0.2, None, 0.3, 0.4, 0.5]
        acc.update_batch(values[:3])
        acc.update_batch(values[3:])
        present = [v for v in values if v is not None]
        assert acc.finish() == sum(present)

    def test_sum_all_null_is_null(self):
        acc = SumAccumulator()
        acc.update_batch([None, None])
        assert acc.finish() is None

    def test_min_max_keep_first_tie(self):
        low, high = MinAccumulator(), MaxAccumulator()
        first, second = (1, "a"), (1, "b")
        for acc in (low, high):
            acc.update_batch([[first[0]], [second[0]]])
        assert low.finish() == [1]
        assert high.finish() == [1]

    def test_count_star_counts_rows(self):
        acc = CountStarAccumulator()
        acc.update_batch([{"a": 1}, {"a": None}])
        assert acc.finish() == 2


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

    def test_nested_aggregate_shapes_fall_back(self):
        statement = parse(
            "SELECT CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'few' END FROM lakes"
        )
        assert collect_aggregate_specs(statement) is None

    def test_group_count_estimate_caps_at_input(self):
        assert group_count_estimate([7.0, 3.0], 1000.0) == pytest.approx(21.0)
        assert group_count_estimate([500.0, 400.0], 1000.0) == pytest.approx(1000.0)
        assert group_count_estimate([], 1000.0) == pytest.approx(1.0)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("sql", GROUPED_QUERIES)
    def test_matches_historical_aggregation(self, sql, exec_variant):
        baseline = _make_db(ExecutionSettings(vectorized_aggregation=False))
        db = _make_db(exec_variant)
        expected = baseline.execute(sql)
        actual = db.execute(sql)
        assert actual.columns == expected.columns
        if "ORDER BY" in sql:
            assert actual.rows == expected.rows
        else:
            assert sorted(actual.rows, key=repr) == sorted(expected.rows, key=repr)

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


class TestPlannerIntegration:
    def test_explain_shows_hash_aggregate_with_estimate(self):
        db = _make_db()
        text = db.explain("SELECT state, COUNT(*) FROM lakes GROUP BY state").text()
        assert "HashAggregate [group by state]" in text
        assert "est groups=" in text

    def test_sorted_group_aggregate_over_ordered_scan(self):
        db = _make_db()
        db.execute("CREATE INDEX lakes_state ON lakes (state) USING SORTED")
        sql = "SELECT state, COUNT(*), SUM(area) FROM lakes GROUP BY state ORDER BY state"
        text = db.explain(sql).text()
        assert "SortedGroupAggregate [group by state]" in text
        assert "RangeScan" in text
        baseline = _make_db(ExecutionSettings(vectorized_aggregation=False))
        assert db.execute(sql).rows == baseline.execute(sql).rows

    def test_sorted_path_not_chosen_without_matching_order(self):
        db = _make_db()
        db.execute("CREATE INDEX lakes_state ON lakes (state) USING SORTED")
        text = db.explain("SELECT state, COUNT(*) FROM lakes GROUP BY state").text()
        # Without an ORDER BY to serve, the heap-scan hash path is cheaper
        # than an index-ordered walk.
        assert "HashAggregate" in text

    def test_estimate_uses_distinct_statistics(self):
        db = _make_db()
        db.execute("CREATE INDEX lakes_state ON lakes (state) USING SORTED")
        text = db.explain("SELECT state, COUNT(*) FROM lakes GROUP BY state").text()
        # 6 non-NULL states + NULL tracked by the index's distinct count.
        assert "[est groups=7]" in text or "[est groups=6]" in text

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
        meta_db = cqms.store.meta_database
        per_user = meta_db.execute(
            "SELECT userName, COUNT(*) AS n FROM Queries GROUP BY userName ORDER BY n DESC, userName"
        )
        assert per_user.rows == [("alice", 2), ("bob", 1)]
        per_source = meta_db.execute(
            "SELECT relName, COUNT(*) FROM DataSources GROUP BY relName ORDER BY relName"
        )
        counts = dict(per_source.rows)
        assert counts["watertemp"] == 2
        assert counts["citylocations"] == 1
