"""Plan cache: template hits, constant re-binding, version/drift invalidation."""

from __future__ import annotations

import pytest

from repro.sql.canonicalize import ParamLiteral, collect_parameters, parameterize_statement
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType


def make_db(rows: int = 60, plan_cache_size: int = 32) -> Database:
    db = Database(plan_cache_size=plan_cache_size)
    db.create_table(
        TableSchema(
            name="Events",
            columns=[
                ColumnSchema("id", DataType.INTEGER, primary_key=True),
                ColumnSchema("kind", DataType.TEXT),
                ColumnSchema("ts", DataType.FLOAT),
            ],
        )
    )
    db.insert_rows(
        "Events",
        [{"id": i, "kind": f"k{i % 4}", "ts": float(i)} for i in range(rows)],
    )
    return db


class TestParameterize:
    def test_parameterize_collects_literals_and_preserves_values(self):
        statement = parse("SELECT id FROM Events WHERE kind = 'a' AND ts > 5 LIMIT 3")
        rewritten, params = parameterize_statement(statement)
        assert [p.value for p in params] == ["a", 5]
        assert all(isinstance(p, ParamLiteral) for p in params)
        assert rewritten.limit == 3  # LIMIT stays part of the template

    def test_null_literals_are_not_parameters(self):
        statement = parse("SELECT id FROM Events WHERE kind = NULL AND ts > 1")
        _, params = parameterize_statement(statement)
        assert [p.value for p in params] == [1]

    def test_collect_is_deterministic_for_a_template(self):
        first = parameterize_statement(
            parse("SELECT id FROM Events WHERE ts > 1 AND kind = 'x'")
        )[0]
        second = parameterize_statement(
            parse("SELECT id FROM Events WHERE ts > 9 AND kind = 'y'")
        )[0]
        from repro.sql.canonicalize import canonical_statement

        first_values = [p.value for p in collect_parameters(canonical_statement(first))]
        second_values = [p.value for p in collect_parameters(canonical_statement(second))]
        # Positional correspondence: site i of one instance is site i of the other.
        assert first_values == [1, "x"] or first_values == ["x", 1]
        assert (first_values == [1, "x"]) == (second_values == [9, "y"])


class TestTemplateHits:
    def test_repeated_template_different_constants_hits_and_rebinds(self):
        db = make_db()
        first = db.execute("SELECT id FROM Events WHERE kind = 'k1' ORDER BY id")
        second = db.execute("SELECT id FROM Events WHERE kind = 'k2' ORDER BY id")
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        assert first.rows != second.rows
        assert second.rows == [(i,) for i in range(60) if i % 4 == 2]
        stats = db.plan_cache_stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_in_list_rebinding(self):
        db = make_db()
        first = db.execute("SELECT COUNT(*) FROM Events WHERE id IN (1, 2, 3)")
        second = db.execute("SELECT COUNT(*) FROM Events WHERE id IN (4, 5, 600)")
        assert second.plan_cache_hit
        assert first.scalar() == 3
        assert second.scalar() == 2  # 600 does not exist

    def test_in_list_length_is_part_of_template(self):
        db = make_db()
        db.execute("SELECT COUNT(*) FROM Events WHERE id IN (1, 2, 3)")
        other = db.execute("SELECT COUNT(*) FROM Events WHERE id IN (1, 2)")
        assert not other.plan_cache_hit
        assert other.scalar() == 2

    def test_null_vs_constant_templates_do_not_share_plans(self):
        db = make_db()
        db.execute("SELECT COUNT(*) FROM Events WHERE kind = 'k1'")
        null_result = db.execute("SELECT COUNT(*) FROM Events WHERE kind = NULL")
        assert not null_result.plan_cache_hit
        assert null_result.scalar() == 0

    def test_constant_type_is_part_of_the_key(self):
        db = make_db()
        db.execute("SELECT COUNT(*) FROM Events WHERE id = 3")
        as_text = db.execute("SELECT COUNT(*) FROM Events WHERE id = 'x'")
        assert not as_text.plan_cache_hit

    def test_projected_constants_rebind(self):
        db = make_db()
        db.execute("SELECT 'first' FROM Events WHERE id = 1")
        second = db.execute("SELECT 'second' FROM Events WHERE id = 2")
        assert second.plan_cache_hit
        assert second.rows == [("second",)]

    def test_update_template_rebinds_set_and_where(self):
        db = make_db()
        db.execute("UPDATE Events SET ts = 100.0 WHERE id = 1")
        second = db.execute("UPDATE Events SET ts = 200.0 WHERE id = 2")
        assert second.plan_cache_hit and second.rowcount == 1
        assert db.execute("SELECT ts FROM Events WHERE id = 1").scalar() == 100.0
        assert db.execute("SELECT ts FROM Events WHERE id = 2").scalar() == 200.0

    def test_delete_template_rebinds(self):
        db = make_db()
        db.execute("DELETE FROM Events WHERE id = 0")
        second = db.execute("DELETE FROM Events WHERE id = 1")
        assert second.plan_cache_hit and second.rowcount == 1
        assert len(db.table("Events")) == 58

    def test_subquery_parameters_rebind(self):
        db = make_db()
        template = (
            "SELECT COUNT(*) FROM Events WHERE id IN "
            "(SELECT id FROM Events WHERE kind = '{kind}')"
        )
        first = db.execute(template.format(kind="k1"))
        second = db.execute(template.format(kind="nope"))
        assert second.plan_cache_hit
        assert first.scalar() == 15
        assert second.scalar() == 0


#: One template per parameter site, each with two sets of constants.
REBIND_SITES = {
    "join_on": "SELECT A.id, B.id FROM Events A JOIN Events B "
    "ON B.id = A.id + {a} AND B.kind <> '{k}' ORDER BY A.id, B.id",
    "having": "SELECT kind, COUNT(*) FROM Events GROUP BY kind "
    "HAVING SUM(ts) > {b} ORDER BY kind",
    "case_when": "SELECT id, CASE WHEN ts > {a} THEN '{k}' WHEN ts > {b} THEN 'mid' "
    "ELSE 'low' END FROM Events ORDER BY id",
    "between": "SELECT id FROM Events WHERE ts BETWEEN {a} AND {b} ORDER BY id",
    "order_by_expression": "SELECT id FROM Events WHERE id < 20 ORDER BY ABS(ts - {a}), id",
    "from_subquery": "SELECT d.id FROM (SELECT id, ts FROM Events WHERE kind = '{k}') d "
    "WHERE d.ts > {a} ORDER BY d.id",
    "exists": "SELECT COUNT(*) FROM Events E WHERE EXISTS "
    "(SELECT 1 FROM Events F WHERE F.id = E.id + {a} AND F.kind = '{k}')",
}
REBIND_CONSTANTS = ({"a": 3, "b": 1000, "k": "k1"}, {"a": 7, "b": 400, "k": "k2"})


class TestRebindEverySite:
    @pytest.mark.parametrize("site", sorted(REBIND_SITES))
    def test_cached_execution_returns_what_a_cold_plan_returns(self, site):
        cached, cold = make_db(), make_db(plan_cache_size=0)
        texts = [REBIND_SITES[site].format(**constants) for constants in REBIND_CONSTANTS]
        results = [cached.execute(text) for text in texts]
        expected = [cold.execute(text).rows for text in texts]
        assert [result.plan_cache_hit for result in results] == [False, True]
        assert [result.rows for result in results] == expected
        assert expected[0] != expected[1]  # the second constants change the answer
        # And back: the template's nodes are re-bound to the first constants.
        again = cached.execute(texts[0])
        assert again.plan_cache_hit and again.rows == expected[0]


class TestInvalidation:
    def test_create_index_invalidates_and_new_plan_uses_it(self):
        db = make_db()
        db.execute("SELECT id FROM Events WHERE kind = 'k1'")
        assert "SeqScan" in db.explain("SELECT id FROM Events WHERE kind = 'k1'").text()
        db.execute("CREATE INDEX ev_kind ON Events (kind)")
        result = db.execute("SELECT id FROM Events WHERE kind = 'k1'")
        assert not result.plan_cache_hit  # the stale SeqScan plan was discarded
        assert db.plan_cache_stats().invalidated_ddl >= 1
        explanation = db.explain("SELECT id FROM Events WHERE kind = 'k3'")
        assert "IndexScan" in explanation.text()
        assert result.stats.index_lookups >= 1

    def test_alter_table_invalidates_star_plans(self):
        db = make_db()
        db.execute("SELECT * FROM Events WHERE id = 1")
        db.execute("ALTER TABLE Events ADD COLUMN note TEXT")
        widened = db.execute("SELECT * FROM Events WHERE id = 2")
        assert not widened.plan_cache_hit
        assert widened.columns == ["id", "kind", "ts", "note"]

    def test_small_churn_keeps_plan_large_drift_invalidates(self):
        db = make_db(rows=100)
        db.execute("SELECT COUNT(*) FROM Events WHERE ts > 5")
        db.insert_rows("Events", [{"id": 1000, "kind": "k0", "ts": 1000.0}])
        small = db.execute("SELECT COUNT(*) FROM Events WHERE ts > 5")
        assert small.plan_cache_hit  # 1% row churn is under the budget
        db.insert_rows(
            "Events",
            [{"id": 2000 + i, "kind": "k0", "ts": float(i)} for i in range(80)],
        )
        big = db.execute("SELECT COUNT(*) FROM Events WHERE ts > 5")
        assert not big.plan_cache_hit
        assert db.plan_cache_stats().invalidated_drift >= 1

    def test_update_churn_with_stable_row_count_invalidates(self):
        # UPDATEs rewrite values without moving the row count; the mutation
        # churn itself must count against the staleness budget.
        db = make_db(rows=100)
        db.execute("SELECT COUNT(*) FROM Events WHERE ts > 5")
        for i in range(100):
            db.table("Events").update(i, {"ts": 5000.0 + i})
        churned = db.execute("SELECT COUNT(*) FROM Events WHERE ts > 5")
        assert not churned.plan_cache_hit
        assert db.plan_cache_stats().invalidated_drift >= 1
        assert churned.scalar() == 100

    def test_drop_and_recreate_table_discards_plans(self):
        db = make_db()
        db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        db.execute("DROP TABLE Events")
        db.execute("CREATE TABLE Events (id INTEGER PRIMARY KEY, kind TEXT, ts FLOAT)")
        db.insert_rows("Events", [{"id": 1, "kind": "new", "ts": 0.0}])
        result = db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        assert not result.plan_cache_hit
        assert result.scalar() == 1

    def test_redundant_range_bounds_are_cached_and_rebind(self):
        db = make_db()
        cold = make_db(plan_cache_size=0)
        # Two lower bounds on one column stay two Filter conjuncts, each
        # with its own parameter, so the template is cached and every
        # re-binding answers like cold planning.
        statements = [
            "SELECT COUNT(*) FROM Events WHERE ts > 50 AND ts > 10",
            "SELECT COUNT(*) FROM Events WHERE ts > 10 AND ts > 50",
            "SELECT COUNT(*) FROM Events WHERE ts > 20 AND ts > 58",
        ]
        results = [db.execute(sql) for sql in statements]
        assert [result.plan_cache_hit for result in results] == [False, True, True]
        assert [result.scalar() for result in results] == [9, 9, 1]
        assert [cold.execute(sql).scalar() for sql in statements] == [9, 9, 1]


class TestCacheManagement:
    def test_capacity_evicts_lru(self):
        db = make_db(plan_cache_size=2)
        db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        db.execute("SELECT COUNT(*) FROM Events WHERE kind = 'k1'")
        db.execute("SELECT COUNT(*) FROM Events WHERE ts = 2.0")  # evicts the first
        stats = db.plan_cache_stats()
        assert stats.size == 2 and stats.evictions == 1
        refetch = db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        assert not refetch.plan_cache_hit

    def test_disabled_cache_still_executes(self):
        db = make_db(plan_cache_size=0)
        first = db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        second = db.execute("SELECT COUNT(*) FROM Events WHERE id = 2")
        assert not first.plan_cache_hit and not second.plan_cache_hit
        stats = db.plan_cache_stats()
        assert stats.capacity == 0 and stats.lookups == 0

    def test_resize_clears_entries(self):
        db = make_db()
        db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        db.set_plan_cache_size(16)
        again = db.execute("SELECT COUNT(*) FROM Events WHERE id = 1")
        assert not again.plan_cache_hit

    def test_explain_marks_cached_plans_without_counting(self):
        db = make_db()
        db.execute("SELECT id FROM Events WHERE kind = 'k1'")
        before = db.plan_cache_stats().lookups
        explanation = db.explain("SELECT id FROM Events WHERE kind = 'k9'")
        assert "(cached)" in explanation
        assert explanation.plan_cache_hit
        assert db.plan_cache_stats().lookups == before
        cold = db.explain("SELECT ts FROM Events WHERE id = 1 AND kind = 'a'")
        assert "(cached)" not in cold.text()


class TestMetaQueryIntegration:
    def test_meta_query_mix_hit_rate(self, fresh_cqms):
        cqms = fresh_cqms
        for i in range(8):
            cqms.submit("alice", f"SELECT * FROM Lakes WHERE lakeId = {i}")
        store = cqms.store
        for relation in ("lakes", "samples", "sensors", "stations"):
            store.execute_meta_sql(
                f"SELECT qid FROM DataSources WHERE relName = '{relation}'"
            )
        stats = store.plan_cache_stats()
        assert stats.hits >= 3  # one template, four constants
        assert 0.0 < stats.hit_rate <= 1.0
        surface = cqms.plan_cache_stats()
        assert surface["query_storage"].hits == stats.hits

    def test_templated_mix_rebinds_to_what_cold_planning_returns(self, fresh_cqms):
        """The Figure 1 meta-query mix, rotating constants: each template is
        planned once, every later instance re-binds it (hit rate ≥ 90%), and
        the rows are those of the same mix with the cache off."""
        cqms = fresh_cqms
        relations = ["lakes", "watertemp", "watersalinity", "sensors"]
        for i in range(12):
            cqms.submit("alice", f"SELECT * FROM {relations[i % 4]} T WHERE T.lake_id < {i}")
        cqms.annotate("alice", 3, "shallow lakes")

        def mix(round_index: int) -> list[str]:
            relation = relations[round_index % 4]
            return [
                f"SELECT qid, qText FROM Queries WHERE userName = 'user{round_index % 3}' "
                "ORDER BY ts DESC LIMIT 10",
                "SELECT DISTINCT Queries.userName FROM Queries, DataSources "
                f"WHERE Queries.qid = DataSources.qid AND DataSources.relName = '{relation}'",
                "SELECT DataSources.qid FROM DataSources, Predicates "
                "WHERE DataSources.qid = Predicates.qid "
                f"AND DataSources.relName = '{relation}' AND Predicates.relName = '{relation}'",
                f"SELECT qid FROM RuntimeStats WHERE elapsedSeconds > {float(round_index % 7)} "
                "LIMIT 20",
                f"SELECT author, body FROM Annotations WHERE qid = {1 + round_index % 12}",
            ]

        store, meta_db = cqms.store, cqms.store.meta_database

        def run() -> list[list[tuple]]:
            return [store.execute_meta_sql(sql).rows for index in range(20) for sql in mix(index)]

        meta_db.set_plan_cache_size(0)
        cold = run()
        meta_db.set_plan_cache_size(128)
        assert run() == cold
        assert any(cold)
        # The DataSources joins read filled feature relations.
        assert all(rows for index, rows in enumerate(cold) if index % 5 in (1, 2))
        stats = meta_db.plan_cache_stats()
        assert stats.misses == 5 and stats.hit_rate >= 0.90, stats

    def test_workbench_renders_hit_rate(self, fresh_cqms):
        from repro.client.workbench import Workbench

        bench = Workbench(cqms=fresh_cqms, user="alice")
        fresh_cqms.store.execute_meta_sql("SELECT qid FROM Queries WHERE userName = 'a'")
        fresh_cqms.store.execute_meta_sql("SELECT qid FROM Queries WHERE userName = 'b'")
        panel = bench.plan_cache_panel()
        assert "Plan cache" in panel
        assert "query_storage" in panel
        assert "hit rate" in panel
