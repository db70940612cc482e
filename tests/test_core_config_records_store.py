"""Tests for CQMS configuration, query records, and the Query Storage."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.config import CQMSConfig
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery, OutputSummary, RuntimeStats, draft_features
from repro.errors import MetaQueryError
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features


def make_record(qid, sql="SELECT * FROM WaterTemp T WHERE T.temp < 18", user="alice",
                group="lab1", timestamp=0.0, **kwargs):
    record = LoggedQuery(
        qid=qid,
        user=user,
        group=group,
        text=sql,
        timestamp=timestamp,
        canonical_text=canonical_text(sql),
        template_text=canonical_text(sql, strip_constants=True),
        features=extract_features(sql),
        **kwargs,
    )
    return record


class TestConfig:
    def test_default_config_is_valid(self):
        CQMSConfig().validate()

    def test_invalid_profiling_mode(self):
        config = CQMSConfig(profiling_mode="everything")
        with pytest.raises(ValueError):
            config.validate()

    def test_invalid_visibility(self):
        with pytest.raises(ValueError):
            CQMSConfig(default_visibility="everyone").validate()

    def test_invalid_knn_k(self):
        with pytest.raises(ValueError):
            CQMSConfig(knn_default_k=0).validate()

    def test_output_sample_base_budget_must_be_non_negative(self):
        with pytest.raises(ValueError, match="output_sample_base_budget"):
            CQMSConfig(output_sample_base_budget=-1).validate()

    def test_feature_weights_default_present(self):
        config = CQMSConfig()
        assert "tables" in config.feature_weights


ROOT = Path(__file__).resolve().parent.parent
#: Where setting a field shows that something needs it: the benchmark
#: workloads, the paper's claims, the examples, the analysis tools and the
#: Administrator.
REACH_SOURCES = (
    "examples",
    "benchmarks/e2e/harness.py",
    "benchmarks/recovery_smoke.py",
    "tests/test_paper_claims.py",
    "src/repro/core/admin.py",
    "src/repro/analysis",
)
#: Fields nothing in REACH_SOURCES sets, each with why it stays anyway.
UNREACHED_FIELDS = {
    "default_visibility": "ROADMAP item 12: the sharing default of §2.4; no setter reaches it yet",
    "trace_operators": "ROADMAP item 7: the registry-fed harness decides it with telemetry_enabled",
    "statement_timeout_seconds": "ROADMAP items 7 and 12: admission control waits on the obs.admit span",
    "rate_limit_qps": "ROADMAP items 7 and 12: admission control waits on the obs.admit span",
    "rate_limit_burst": "ROADMAP items 7 and 12: admission control waits on the obs.admit span",
}


def _names_set_in(tree: ast.AST) -> set[str]:
    """Names a module sets: a keyword argument (not one of ``QueryLimits``,
    whose fields share admission control's names), a string naming a field, or
    an assignment or ``setattr`` / ``setitem`` whose target goes through
    ``.name``."""

    def attributes(node):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                yield node.attr
            node = node.value

    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", ""
            )
            if callee != "QueryLimits":
                names.update(keyword.arg for keyword in node.keywords if keyword.arg)
            if callee in ("setattr", "setitem") and node.args:
                names.update(attributes(node.args[0]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names.update(attributes(target))
    return names


def test_every_config_field_is_set_by_something_that_needs_it():
    """The reach rule: a CQMSConfig field stays only if a benchmark workload,
    a paper claim, an example, an analysis tool or the Administrator sets it;
    any other tuning value is a constant next to the code that uses it."""
    set_names: set[str] = set()
    for source in REACH_SOURCES:
        path = ROOT / source
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            set_names |= _names_set_in(ast.parse(file.read_text()))
    fields = {field.name for field in dataclasses.fields(CQMSConfig)}
    assert fields - set_names == set(UNREACHED_FIELDS)


class TestRecords:
    def test_feature_tokens_empty_without_features(self):
        record = LoggedQuery(qid=1, user="a", group="g", text="x", timestamp=0.0)
        assert record.feature_tokens() == []
        assert record.feature_sets() == {}
        assert record.tables == []

    def test_feature_sets_keys(self):
        record = make_record(1)
        assert set(record.feature_sets()) == {
            "tables", "joins", "predicates", "projections", "group_by", "aggregates",
        }

    @pytest.mark.parametrize(
        "draft, complete",
        [
            ("SELECT T.temp FROM WaterTemp T WHERE T.temp < 18", "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18"),
            ("SELECT * FROM WaterTemp T WHERE", "SELECT * FROM WaterTemp T"),
            ("select * from WaterTemp T where T.temp < 18 AND ", "SELECT * FROM WaterTemp T WHERE T.temp < 18"),
            ("SELECT * FROM WaterTemp T WHERE T.temp < 18 or", "SELECT * FROM WaterTemp T WHERE T.temp < 18"),
            ("SELECT * FROM WaterSalinity S, ", "SELECT * FROM WaterSalinity S"),
            ("SELECT * FROM WaterTemp T WHERE T.temp =", "SELECT * FROM WaterTemp T WHERE T.temp"),
            ("SELECT * FROM WaterTemp T WHERE T.temp <", "SELECT * FROM WaterTemp T WHERE T.temp"),
            ("SELECT * FROM WaterTemp T WHERE T.temp >", "SELECT * FROM WaterTemp T WHERE T.temp"),
            ("SELECT * FROM WaterTemp T WHERE T.month IN", "SELECT * FROM WaterTemp T WHERE T.month"),
            ("SELECT FROM WaterSalinity, WaterTemp", "SELECT * FROM WaterSalinity, WaterTemp"),
            ("SELECT FROM WaterSalinity, ", "SELECT * FROM WaterSalinity"),
        ],
    )
    def test_draft_features_relaxes_until_the_draft_parses(self, draft, complete):
        assert draft_features(draft) == extract_features(complete)

    def test_draft_features_last_resort_and_pass_through(self):
        # Nothing parses: the relation names are read off the FROM list.
        features = draft_features("SELECT a, FROM WaterTemp T, Lakes WHERE ((")
        assert (features.tables, features.num_tables, features.attributes) == (
            ["watertemp", "lakes"], 2, []
        )
        assert draft_features("not sql at all !!!") is None
        assert draft_features("SELECT 1 FROM") is None
        # What it returns stands in for the text: reading twice is free.
        assert draft_features(features) is features
        assert draft_features(None) is None

    def test_describe_truncates(self):
        record = make_record(1, sql="SELECT * FROM WaterTemp WHERE " + "temp < 18 AND " * 30 + "1 = 1")
        assert len(record.describe(max_length=50)) == 50
        assert record.describe(max_length=50).endswith("...")

    def test_output_summary_contains(self):
        output = OutputSummary(columns=["name"], rows=[("Lake Washington",), ("Green Lake",)])
        assert output.contains(("Green Lake",))
        assert output.contains_value("Lake Washington")
        assert not output.contains_value("Lake Union")

    def test_runtime_defaults(self):
        stats = RuntimeStats()
        assert stats.succeeded is True and stats.error is None


class TestQueryStoreBasics:
    def test_add_and_get(self):
        store = QueryStore()
        record = make_record(store.next_qid())
        store.add(record)
        assert store.get(record.qid) is record
        assert len(store) == 1
        assert record.qid in store

    def test_duplicate_qid_rejected(self):
        store = QueryStore()
        record = make_record(1)
        store.add(record)
        with pytest.raises(MetaQueryError):
            store.add(make_record(1))

    def test_unknown_qid_raises(self):
        with pytest.raises(MetaQueryError):
            QueryStore().get(99)

    def test_all_queries_sorted_by_qid(self):
        store = QueryStore()
        store.add(make_record(2))
        store.add(make_record(1, sql="SELECT * FROM Lakes"))
        assert [record.qid for record in store.all_queries()] == [1, 2]

    def test_select_queries_filters_dml(self):
        store = QueryStore()
        store.add(make_record(1))
        dml = LoggedQuery(
            qid=2, user="a", group="g", text="DELETE FROM Lakes", timestamp=0.0,
            statement_kind="delete",
        )
        store.add(dml)
        assert [r.qid for r in store.select_queries()] == [1]


class TestFeatureRelations:
    def test_feature_relations_populated(self):
        store = QueryStore()
        record = make_record(
            1,
            sql=(
                "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
                "WHERE S.loc_x = T.loc_x AND T.temp < 18"
            ),
        )
        store.add(record)
        sources = store.execute_meta_sql("SELECT relName FROM DataSources WHERE qid = 1")
        assert set(sources.column("relName")) == {"watersalinity", "watertemp"}
        predicates = store.execute_meta_sql("SELECT attrName, op FROM Predicates WHERE qid = 1")
        assert ("temp", "<") in predicates.rows
        joins = store.execute_meta_sql("SELECT leftAttr FROM Joins WHERE qid = 1")
        assert joins.rows
        projections = store.execute_meta_sql("SELECT attrName FROM Projections WHERE qid = 1")
        assert set(projections.column("attrName")) == {"salinity", "temp"}

    def test_figure1_meta_query_over_relations(self):
        store = QueryStore()
        store.add(make_record(1, sql=(
            "SELECT * FROM WaterSalinity S, WaterTemp T "
            "WHERE S.salinity > 0.1 AND T.temp < 18"
        )))
        store.add(make_record(2, sql="SELECT * FROM CityLocations"))
        result = store.execute_meta_sql(
            "SELECT Q.qid, Q.qText FROM Queries Q, Attributes A1, Attributes A2 "
            "WHERE Q.qid = A1.qid AND Q.qid = A2.qid "
            "AND A1.attrName = 'salinity' AND A1.relName = 'watersalinity' "
            "AND A2.attrName = 'temp' AND A2.relName = 'watertemp'"
        )
        assert result.column("qid") == [1]

    def test_output_samples_stored(self):
        store = QueryStore()
        record = make_record(1)
        record.output = OutputSummary(columns=["name"], rows=[("Lake Washington",)], total_rows=1)
        store.add(record)
        samples = store.execute_meta_sql("SELECT sampleRows FROM OutputSamples WHERE qid = 1")
        assert samples.column("sampleRows") == ['[["Lake Washington"]]']

    def test_runtime_stats_stored(self):
        store = QueryStore()
        record = make_record(1)
        record.runtime = RuntimeStats(elapsed_seconds=1.5, result_cardinality=7, rows_scanned=40)
        store.add(record)
        stats = store.execute_meta_sql("SELECT cardinality FROM RuntimeStats WHERE qid = 1")
        assert stats.scalar() == 7

    def test_remove_deletes_all_shredded_rows(self):
        store = QueryStore()
        store.add(make_record(1))
        store.remove(1)
        assert len(store) == 0
        for table in ("Queries", "DataSources", "Attributes", "Predicates"):
            assert store.execute_meta_sql(f"SELECT * FROM {table} WHERE qid = 1").rows == []

    def test_meta_sql_unconstrained(self):
        store = QueryStore()
        store.add(make_record(1))
        assert store.execute_meta_sql("SELECT COUNT(*) FROM Queries").scalar() == 1


class TestAnnotationsAndFlags:
    def test_add_annotation(self):
        store = QueryStore()
        store.add(make_record(1))
        store.add_annotation(1, author="bob", body="finds cool lakes", timestamp=5.0)
        assert store.annotations_for(1) == ["finds cool lakes"]
        rows = store.execute_meta_sql("SELECT author, body FROM Annotations WHERE qid = 1").rows
        assert rows == [("bob", "finds cool lakes")]

    def test_mark_invalid_and_valid(self):
        store = QueryStore()
        store.add(make_record(1))
        store.mark_invalid(1, reason="missing relation")
        assert store.get(1).flagged_invalid
        assert store.execute_meta_sql("SELECT valid FROM Queries WHERE qid = 1").scalar() is False
        store.mark_valid(1)
        assert not store.get(1).flagged_invalid

    def test_replace_text_keeps_annotations_and_session(self):
        store = QueryStore()
        record = make_record(1)
        record.session_id = 7
        store.add(record)
        store.add_annotation(1, "alice", "note")
        new_sql = "SELECT * FROM WaterTemp T WHERE T.temp < 20"
        store.replace_text(
            1, new_sql, extract_features(new_sql), canonical_text(new_sql),
            canonical_text(new_sql, strip_constants=True),
        )
        updated = store.get(1)
        assert updated.text == new_sql
        assert updated.annotations == ["note"]
        assert updated.session_id == 7
        assert not updated.flagged_invalid


class TestPopularity:
    def test_popularity_counts_canonical_duplicates(self):
        store = QueryStore()
        store.add(make_record(1, sql="SELECT * FROM Lakes WHERE state = 'WA'"))
        store.add(make_record(2, sql="select * from lakes where state = 'WA'"))
        store.add(make_record(3, sql="SELECT * FROM Lakes WHERE state = 'MI'"))
        popularity = store.popularity()
        assert max(popularity.values()) == 2

    def test_table_popularity(self):
        store = QueryStore()
        store.add(make_record(1, sql="SELECT * FROM Lakes"))
        store.add(make_record(2, sql="SELECT * FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id"))
        popularity = store.table_popularity()
        assert popularity["lakes"] == 2
        assert popularity["watertemp"] == 1
