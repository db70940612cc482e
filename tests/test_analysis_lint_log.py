"""Query-log linting end to end: ``QueryStore.lint_log`` auto-populating
``Queries.invalidReason``, the append-safe ``mark_invalid``, the CQMS
query-health panel, and the ``python -m repro.analysis`` CLI."""

import pytest

from repro.analysis.framework import Severity
from repro.analysis.__main__ import main as analysis_main
from repro.client.workbench import Workbench
from repro.core.cqms import CQMS
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery
from repro.errors import MetaQueryError
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features
from repro.workloads.schemas import build_database

VALID_SQL = "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18"
UNKNOWN_COLUMN_SQL = "SELECT T.wetness FROM WaterTemp T"
DUPLICATE_TABLE_SQL = "SELECT * FROM Lakes, Lakes"
CARTESIAN_SQL = (
    "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T WHERE T.temp < 18"
)


def make_record(qid, sql=VALID_SQL, user="alice", group="lab1", timestamp=0.0):
    return LoggedQuery(
        qid=qid,
        user=user,
        group=group,
        text=sql,
        timestamp=timestamp,
        canonical_text=canonical_text(sql),
        template_text=canonical_text(sql, strip_constants=True),
        features=extract_features(sql),
    )


@pytest.fixture
def database():
    return build_database("limnology")


@pytest.fixture
def store(database):
    store = QueryStore(schema=database.schema_columns)
    store.add(make_record(1, VALID_SQL))
    store.add(make_record(2, UNKNOWN_COLUMN_SQL, user="bob"))
    store.add(make_record(3, CARTESIAN_SQL, user="bob", timestamp=1.0))
    return store


class TestLintLog:
    def test_seeded_invalid_queries_flagged(self, store):
        findings = store.lint_log()
        assert 2 in findings and 3 in findings
        assert store.get(2).flagged_invalid
        assert "wetness" in store.get(2).invalid_reason
        assert store.get(3).flagged_invalid
        assert "cartesian" in store.get(3).invalid_reason.lower()

    def test_valid_queries_untouched(self, store):
        store.lint_log()
        record = store.get(1)
        assert not record.flagged_invalid
        assert record.invalid_reason is None
        assert record.flag_count == 0

    def test_invalid_reason_lands_in_meta_relation(self, store):
        store.lint_log()
        result = store.execute_meta_sql(
            "SELECT valid, invalidReason FROM Queries WHERE qid = 2"
        )
        (valid, reason), = result.rows
        assert valid is False
        assert "wetness" in reason

    def test_mark_false_reports_without_flagging(self, store):
        findings = store.lint_log(mark=False)
        assert 2 in findings
        assert not store.get(2).flagged_invalid

    def test_catalog_view_adds_type_rules(self, database, store):
        store.add(make_record(4, "SELECT name FROM Lakes WHERE area_km2 > 'large'"))
        names_only = store.lint_log(mark=False)
        with_catalog = store.lint_log(
            catalog=database.catalog, table_provider=database, mark=False
        )
        assert 4 not in names_only
        assert any(d.rule == "type-mismatch" for d in with_catalog[4])

    def test_composes_with_user_flags(self, store):
        store.mark_invalid(2, "bob: looks wrong")
        store.lint_log()
        reason = store.get(2).invalid_reason
        assert reason.startswith("bob: looks wrong; ")
        assert "wetness" in reason

    def test_statement_the_engine_rejects_is_flagged_not_raised(self, store):
        store.add(make_record(4, DUPLICATE_TABLE_SQL))
        findings = store.lint_log()
        assert [d.rule for d in findings[4] if d.severity is Severity.ERROR] == [
            "duplicate-table"
        ]
        assert "specified more than once" in store.get(4).invalid_reason

    def test_lint_log_without_schema_raises(self):
        store = QueryStore()
        store.add(make_record(1))
        with pytest.raises(MetaQueryError):
            store.lint_log()


class TestMarkInvalidAppendSafe:
    def test_same_reason_twice_not_duplicated(self, store):
        store.mark_invalid(1, "missing relation")
        store.mark_invalid(1, "missing relation")
        record = store.get(1)
        assert record.invalid_reason == "missing relation"
        assert record.flag_count == 2

    def test_distinct_reasons_compose(self, store):
        store.mark_invalid(1, "missing relation")
        store.mark_invalid(1, "stale snapshot")
        assert store.get(1).invalid_reason == "missing relation; stale snapshot"

    def test_relint_is_idempotent(self, store):
        store.lint_log()
        first = store.get(2).invalid_reason
        store.lint_log()
        assert store.get(2).invalid_reason == first

    def test_flag_count_reaches_meta_relation(self, store):
        store.mark_invalid(1, "missing relation")
        store.mark_invalid(1, "missing relation")
        assert (
            store.execute_meta_sql(
                "SELECT flagCount FROM Queries WHERE qid = 1"
            ).scalar()
            == 2
        )


class TestQueryHealth:
    @pytest.fixture
    def cqms(self, database):
        cqms = CQMS(database)
        cqms.register_user("alice", "lab1")
        cqms.register_user("bob", "lab1")
        cqms.submit("alice", VALID_SQL)
        cqms.store.add(make_record(101, UNKNOWN_COLUMN_SQL, user="bob"))
        cqms.store.add(make_record(102, "SELECT * FROM Lakes", user="bob"))
        return cqms

    def test_cqms_lint_log_flags_errors(self, cqms):
        findings = cqms.lint_log()
        assert 101 in findings
        assert cqms.store.get(101).flagged_invalid

    def test_query_health_counts(self, cqms):
        health = cqms.query_health()
        assert health["bob"]["queries"] == 2
        assert health["bob"]["errors"] >= 1
        assert health["bob"]["info"] >= 1  # SELECT *
        assert health["alice"]["errors"] == 0
        assert health["bob"]["examples"]

    def test_health_never_marks(self, cqms):
        cqms.query_health()
        assert not cqms.store.get(101).flagged_invalid

    def test_workbench_panel_renders(self, cqms):
        panel = Workbench(cqms=cqms, user="alice").query_health_panel()
        assert "=== Query health ===" in panel
        assert "alice" in panel and "bob" in panel

    def test_logged_failure_lints_through_the_cqms(self, cqms):
        execution = cqms.submit("bob", DUPLICATE_TABLE_SQL)
        assert not execution.succeeded
        assert any(d.rule == "duplicate-table" for d in cqms.lint_log()[execution.record.qid])
        assert "bob" in Workbench(cqms=cqms, user="alice").query_health_panel()

    def test_empty_panel(self, database):
        cqms = CQMS(database)
        panel = Workbench(cqms=cqms, user="alice").query_health_panel()
        assert "(no logged queries)" in panel


class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("def add(a, b):\n    return a + b\n")
        assert analysis_main(["lint", str(tmp_path)]) == 0

    def test_lint_hazard_exits_one(self, tmp_path, capsys):
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "bad.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        assert analysis_main(["lint", str(tmp_path)]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_lint_sql_invalid_exits_one(self, capsys):
        assert analysis_main(["lint-sql", UNKNOWN_COLUMN_SQL]) == 1
        assert "unknown-column" in capsys.readouterr().out

    def test_lint_sql_engine_rejected_exits_one(self, capsys):
        assert analysis_main(["lint-sql", DUPLICATE_TABLE_SQL]) == 1
        assert "duplicate-table" in capsys.readouterr().out

    def test_lint_sql_valid_exits_zero(self, capsys):
        assert analysis_main(["lint-sql", VALID_SQL]) == 0

    def test_verify_plans_small_corpus(self, capsys):
        assert (
            analysis_main(
                ["verify-plans", "--domains", "limnology", "--sessions", "6"]
            )
            == 0
        )
        assert "verified" in capsys.readouterr().out
