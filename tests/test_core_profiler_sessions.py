"""Tests for the Query Profiler and session detection."""

import sys

import pytest

from repro import CQMS
from repro.clock import SimulatedClock
from repro.core import profiler as profiler_module
from repro.core.config import CQMSConfig
from repro.core.profiler import ProfilingMode, QueryProfiler
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery, TemplateArtefacts, statement_artefacts
from repro.core.sessions import SessionDetector, pairwise_session_metrics, sessions_as_ground_truth_pairs
from repro.errors import ReproError
from repro.sql import parser
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features
from repro.sql.tokenizer import strip_comments
from repro.workloads import QueryLogGenerator, WorkloadConfig, build_database


@pytest.fixture()
def profiler_setup():
    clock = SimulatedClock()
    db = build_database("limnology", scale=1, clock=clock)
    store = QueryStore(clock=clock)
    profiler = QueryProfiler(db, store, CQMSConfig(), clock=clock)
    return clock, db, store, profiler


class TestProfilerModes:
    def test_features_mode_records_everything(self, profiler_setup):
        _, _, store, profiler = profiler_setup
        execution = profiler.profile(
            "alice", "lab1", "SELECT * FROM WaterTemp T WHERE T.temp < 18"
        )
        assert execution.succeeded
        record = execution.record
        assert record is not None
        assert record.features is not None
        assert record.canonical_text
        assert record.output is not None
        assert record.runtime.result_cardinality == len(execution.result.rows)
        assert len(store) == 1

    def test_text_mode_skips_features(self, profiler_setup):
        _, _, store, profiler = profiler_setup
        profiler.set_mode("text")
        execution = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        assert execution.record.features is None
        assert execution.record.canonical_text
        assert execution.record.output is None

    def test_off_mode_logs_nothing(self, profiler_setup):
        _, _, store, profiler = profiler_setup
        profiler.set_mode(ProfilingMode.OFF)
        execution = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        assert execution.result is not None
        assert execution.record is None
        assert len(store) == 0

    def test_mode_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            ProfilingMode.parse("verbose")


class TestProfilerBehaviour:
    def test_failed_query_is_still_logged(self, profiler_setup):
        _, _, store, profiler = profiler_setup
        execution = profiler.profile("alice", "lab1", "SELECT * FROM NoSuchTable")
        assert not execution.succeeded
        assert execution.record.runtime.succeeded is False
        assert execution.record.runtime.error
        assert len(store) == 1

    def test_unparseable_query_logged_as_invalid_kind(self, profiler_setup):
        _, _, store, profiler = profiler_setup
        execution = profiler.profile("alice", "lab1", "SELEKT * FRM lakes")
        assert execution.record.statement_kind == "invalid"

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("SELECT 'abc FROM Lakes", "unterminated string literal"),
            ("SELECT * FROM Lakes /* open", "unterminated block comment"),
        ],
    )
    def test_untokenizable_submit_is_logged_not_raised(self, fresh_cqms, sql, error):
        """A statement whose literal or comment never closes is a failed
        attempt like any other: logged as typed, kind ``invalid``."""
        execution = fresh_cqms.submit("alice", f"  {sql} ")
        assert len(fresh_cqms.store) == 1
        assert execution.error == error and execution.result is None
        record = execution.record
        assert record.text == sql and record.statement_kind == "invalid"
        assert record.runtime.succeeded is False and record.runtime.error == error

    def test_comments_stripped_from_stored_text(self, profiler_setup):
        _, _, store, profiler = profiler_setup
        execution = profiler.profile(
            "alice", "lab1", "SELECT * FROM Lakes -- my favourite query"
        )
        assert "favourite" not in execution.record.text

    def test_qids_monotonically_increase(self, profiler_setup):
        _, _, _, profiler = profiler_setup
        first = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        second = profiler.profile("alice", "lab1", "SELECT * FROM Sensors")
        assert second.record.qid == first.record.qid + 1

    def test_annotation_requested_for_complex_queries(self, profiler_setup):
        _, _, _, profiler = profiler_setup
        simple = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        complex_query = profiler.profile(
            "alice",
            "lab1",
            "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L "
            "WHERE S.loc_x = T.loc_x AND L.loc_x = T.loc_x",
        )
        nested = profiler.profile(
            "alice",
            "lab1",
            "SELECT * FROM Lakes WHERE lake_id IN (SELECT lake_id FROM WaterTemp WHERE temp < 10)",
        )
        assert not simple.annotation_requested
        assert complex_query.annotation_requested
        assert nested.annotation_requested

    def test_visibility_defaults_from_config(self, profiler_setup):
        _, _, _, profiler = profiler_setup
        execution = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        assert execution.record.visibility == "group"
        override = profiler.profile("alice", "lab1", "SELECT * FROM Lakes", visibility="public")
        assert override.record.visibility == "public"

    def test_timestamps_follow_clock(self, profiler_setup):
        clock, _, _, profiler = profiler_setup
        clock.advance(100.0)
        execution = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        assert execution.record.timestamp == pytest.approx(100.0)

    def test_output_summary_respects_budget(self, profiler_setup):
        _, _, _, profiler = profiler_setup
        execution = profiler.profile("alice", "lab1", "SELECT * FROM WaterTemp")
        output = execution.record.output
        assert output.total_rows == len(execution.result.rows)
        assert len(output.rows) <= CQMSConfig().output_sample_base_budget + 1
        assert not output.complete

    def test_dml_is_logged_with_kind(self, profiler_setup):
        _, db, store, profiler = profiler_setup
        execution = profiler.profile(
            "alice", "lab1", "INSERT INTO Lakes (lake_id, name, state, area_km2, max_depth_m) "
            "VALUES (99, 'New Lake', 'WA', 1.0, 5.0)"
        )
        assert execution.record.statement_kind == "insert"
        assert execution.record.output is None

    def test_catalog_version_recorded(self, profiler_setup):
        _, db, _, profiler = profiler_setup
        execution = profiler.profile("alice", "lab1", "SELECT * FROM Lakes")
        assert execution.record.catalog_version == db.catalog.version


@pytest.fixture()
def parse_calls(monkeypatch):
    """The texts ``repro.sql.parser.parse`` is called on, from any module."""
    original = parser.parse
    calls: list[str] = []

    def counting(text, *args, **kwargs):
        calls.append(text)
        return original(text, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counting)
    return calls


def artefacts_of(record: LoggedQuery) -> tuple:
    return record.statement_kind, record.features, record.canonical_text, record.template_text


class TestParseOncePerSubmit:
    """The user DBMS's parse is the one the record is built from."""

    def test_fresh_select_parses_once(self, fresh_cqms, parse_calls):
        execution = fresh_cqms.submit("alice", "SELECT name FROM Lakes WHERE lake_id < 3")
        assert execution.succeeded and execution.record.features is not None
        assert len(parse_calls) == 1

    def test_statement_cache_hit_does_not_parse(self, fresh_cqms, parse_calls):
        """The DBMS's statement cache skips its parse, and the Query Storage
        hands over the artefacts the text's first record was built from."""
        sql = "SELECT name FROM Lakes WHERE lake_id < 3"
        first = fresh_cqms.submit("alice", sql).record
        parse_calls.clear()
        execution = fresh_cqms.submit("alice", sql)
        assert execution.result.stats.statement_cache_hit
        # The bound template the cache answered with, not a parse.
        assert execution.result.statement is execution.result.prepared.statement
        assert parse_calls == []
        assert execution.record.features is first.features

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO Lakes (lake_id, name, state, area_km2, max_depth_m) "
            "VALUES (99, 'New Lake', 'WA', 1.0, 5.0)",
            "UPDATE Lakes SET state = 'OR' WHERE lake_id = 1",
            "DELETE FROM WaterTemp WHERE month = 7",
        ],
    )
    def test_dml_parses_once(self, fresh_cqms, parse_calls, sql):
        execution = fresh_cqms.submit("alice", sql)
        assert execution.succeeded and execution.record.features is not None
        assert len(parse_calls) == 1

    def test_unparseable_text_is_still_logged_invalid(self, fresh_cqms):
        execution = fresh_cqms.submit("alice", "SELEKT * FRM lakes")
        assert execution.result is None
        assert execution.record.statement_kind == "invalid"
        assert execution.record.features is None

    def test_failed_execution_is_logged_with_features(self, fresh_cqms, parse_calls):
        execution = fresh_cqms.submit("alice", "SELECT * FROM NoSuchTable WHERE x = 1")
        assert not execution.succeeded and execution.result is None
        record = execution.record
        assert record.statement_kind == "select"
        assert record.features is not None and record.features.tables == ["nosuchtable"]
        # No result to take an AST from, so the profiler parses the text itself.
        assert len(parse_calls) == 2

    @pytest.mark.parametrize(
        "sql", ["SELECT/**/name FROM Lakes", "SELECT name FROM Lakes -- all of them"]
    )
    def test_record_reads_as_its_stored_text_when_a_comment_was_stripped(self, fresh_cqms, sql):
        """A stripped block comment leaves a space, so ``SELECT/**/name`` is
        logged as the statement the DBMS ran; reopen re-derives the record
        from the text, and the record must read the same."""
        record = fresh_cqms.submit("alice", sql).record
        assert record.text == "SELECT name FROM Lakes"
        assert record.statement_kind == "select" and record.features is not None
        assert artefacts_of(record) == statement_artefacts(
            record.text, fresh_cqms.database.schema_columns(), True
        )

    def test_reused_asts_give_the_artefacts_of_a_fresh_parse(self, replay_log, monkeypatch):
        parsed: list[str] = []
        bound: list[tuple] = []
        by_text, by_template = statement_artefacts, TemplateArtefacts.artefacts

        def from_text(text, *args):
            parsed.append(text)
            return by_text(text, *args)

        def from_bound_statement(shared, prepared, schema_columns):
            bound.append(by_template(shared, prepared, schema_columns))
            return bound[-1]

        monkeypatch.setattr(profiler_module, "statement_artefacts", from_text)
        monkeypatch.setattr(TemplateArtefacts, "artefacts", from_bound_statement)
        env = replay_log(num_sessions=40, seed=5, mine=False)
        # Each text is derived once, on its first submit: from the DBMS's
        # bound statement when it ran, else from a parse of the text; every
        # later submit of the text takes its artefacts from the Query Storage.
        records = env.store.all_queries()
        texts = {record.text for record in records}
        assert len(parsed) + len(bound) == len(texts) and len(records) > len(texts)
        ran = {record.text for record in records if record.runtime.succeeded}
        assert all(record.is_select for record in records if record.text in ran)
        assert sorted(parsed) == sorted(texts - ran) and len(bound) == len(ran)
        # Nothing in the workload changes the schema, so every record was
        # logged under today's catalog version and schema.
        database = env.cqms.database
        assert {record.catalog_version for record in records} == {database.catalog.version}
        schema = database.schema_columns()
        for record in records:
            assert artefacts_of(record) == statement_artefacts(record.text, schema, True)

    def test_every_logged_record_reads_as_a_fresh_parse_of_its_text(self, paper_env):
        schema = paper_env.cqms.database.schema_columns()
        records = paper_env.store.all_queries()
        assert len(records) == 550
        for record in records:
            assert artefacts_of(record) == statement_artefacts(record.text, schema, True), record.text


class TestArtefactsFromTheStatementTable:
    """A resubmitted text takes its artefacts from the Query Storage only when
    they were derived under the same profiling mode and user-DB catalog
    version; each rule below forces a new derivation, which must equal a
    fresh one."""

    def test_renamed_column_between_two_submits(self, fresh_cqms):
        sql = "SELECT temp FROM Lakes L, WaterTemp W WHERE L.lake_id = W.lake_id AND temp < 18"
        before = fresh_cqms.submit("alice", sql).record
        fresh_cqms.database.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temp_c")
        after = fresh_cqms.submit("alice", sql).record
        schema = fresh_cqms.database.schema_columns()
        assert artefacts_of(after) == statement_artefacts(sql, schema, True)
        # ``temp`` no longer resolves to WaterTemp.
        assert after.features != before.features

    def test_table_created_after_a_failing_submit(self, fresh_cqms):
        sql = "SELECT x FROM NoSuchTable, Lakes WHERE x = 1"
        failed = fresh_cqms.submit("alice", sql)
        assert not failed.succeeded
        assert fresh_cqms.submit("alice", "CREATE TABLE NoSuchTable (x INTEGER)").succeeded
        execution = fresh_cqms.submit("alice", sql)
        assert execution.succeeded
        schema = fresh_cqms.database.schema_columns()
        assert artefacts_of(execution.record) == statement_artefacts(sql, schema, True)
        assert execution.record.features.attributes == [("x", "nosuchtable")]
        assert failed.record.features.attributes == [("x", "?")]

    def test_profiling_mode_switch(self, fresh_cqms):
        sql = "SELECT name FROM Lakes WHERE lake_id < 3"
        schema = fresh_cqms.database.schema_columns()
        featured = fresh_cqms.submit("alice", sql).record
        fresh_cqms.profiler.set_mode("text")
        text_only = fresh_cqms.submit("alice", sql).record
        assert artefacts_of(text_only) == statement_artefacts(sql, None, False)
        assert text_only.features is None and text_only.canonical_text != featured.canonical_text
        fresh_cqms.profiler.set_mode("features")
        again = fresh_cqms.submit("alice", sql).record
        assert artefacts_of(again) == statement_artefacts(sql, schema, True)
        assert again.features is not featured.features

    def test_resubmit_after_the_last_record_is_deleted(self, fresh_cqms, parse_calls):
        sql = "SELECT name FROM Lakes WHERE lake_id < 3"
        first = fresh_cqms.submit("alice", sql).record
        fresh_cqms.admin().delete_query("alice", first.qid)
        parse_calls.clear()
        execution = fresh_cqms.submit("alice", sql)
        # A statement-cache hit in the DBMS: the record is derived again, from
        # the DBMS's bound statement, with no parse.
        assert execution.result.stats.statement_cache_hit and parse_calls == []
        schema = fresh_cqms.database.schema_columns()
        assert artefacts_of(execution.record) == statement_artefacts(sql, schema, True)
        assert execution.record.features is not first.features

    def test_resubmit_after_a_durable_reopen(self, tmp_path, parse_calls):
        config = CQMSConfig(data_dir=str(tmp_path / "store"))
        database = build_database("limnology", scale=1, seed=7)
        sql = "SELECT name FROM Lakes WHERE lake_id < 3"
        with CQMS(database, config=config) as cqms:
            cqms.register_user("alice", group="lab1")
            cqms.submit("alice", sql)
        with CQMS(database, config=config) as reopened:
            reopened.register_user("alice", group="lab1")
            (rebuilt,) = reopened.store.all_queries()
            parse_calls.clear()
            execution = reopened.submit("alice", sql)
            # Reopen files its artefacts under no profiler key: the first
            # resubmission derives them once (from the DBMS's bound
            # statement, with no parse), the next one reuses them.
            assert execution.result.stats.statement_cache_hit and parse_calls == []
            assert execution.record.features is not rebuilt.features
            schema = database.schema_columns()
            for record in reopened.store.all_queries():
                assert artefacts_of(record) == statement_artefacts(sql, schema, True)
            parse_calls.clear()
            assert reopened.submit("alice", sql).record.features is execution.record.features
            assert parse_calls == []


def _logged_text(sql: str) -> str:
    """The text the profiler logs for ``sql``: comments stripped, or the text
    as typed when it does not tokenize."""
    try:
        return strip_comments(sql).strip()
    except ReproError:
        return sql.strip()


_WORKLOAD_TEXTS = sorted(
    {event.sql for event in QueryLogGenerator(WorkloadConfig(num_sessions=40, seed=5)).generate()}
)


@pytest.fixture(scope="module")
def logging_cqms():
    cqms = CQMS(build_database("limnology", scale=1, seed=7))
    cqms.register_user("alice", group="lab1")
    return cqms


@pytest.mark.parametrize(
    "sql",
    [
        *(pytest.param(sql, id=f"workload{number}") for number, sql in enumerate(_WORKLOAD_TEXTS)),
        pytest.param("SELECT 'abc FROM Lakes", id="unterminated-literal"),
        pytest.param("SELECT 'abc -- FROM Lakes", id="unterminated-literal-with-marker"),
        pytest.param("SELECT name FROM Lakes WHERE name = 'a -- b /* c'", id="markers-in-literal"),
        pytest.param("SELECT name /* a */ FROM Lakes", id="block-comment"),
        pytest.param("SELECT name FROM Lakes -- trailing", id="line-comment"),
        pytest.param("SELECT name FROM Lakes /* open", id="unterminated-comment"),
        pytest.param("  SELECT name FROM Lakes  ", id="padded"),
    ],
)
def test_logged_text_is_the_comment_stripped_text(logging_cqms, sql):
    """The profiler runs ``strip_comments`` only on a text with a comment
    marker; without one the loop would return the text unchanged, so the
    logged text is the same either way."""
    assert logging_cqms.submit("alice", sql).record.text == _logged_text(sql)


@pytest.mark.parametrize(
    "sql",
    [
        pytest.param("SELECT name FROM Lakes WHERE max_depth_m < 1e", id="bare-exponent"),
        pytest.param("SELECT name FROM Lakes WHERE max_depth_m < 1E+", id="signed-bare-exponent"),
        pytest.param("SELECT name FROM Lakes WHERE max_depth_m < \u00b2", id="unicode-digit"),
        pytest.param(
            "SELECT name FROM Lakes WHERE max_depth_m < " + "9" * 5000, id="over-long-integer"
        ),
    ],
)
def test_a_malformed_number_is_logged_once(logging_cqms, sql):
    """A number token is ASCII digits, with an exponent only when digits
    follow its ``e``, and an integer past ``int``'s digit limit is a parse
    error: such a text is logged as one record, and ``submit`` no longer
    raises ``ValueError`` from converting the token."""
    before = len(logging_cqms.store)
    execution = logging_cqms.submit("alice", sql)
    assert execution.record.text == sql
    assert len(logging_cqms.store) == before + 1


def make_record(qid, sql, user, timestamp):
    return LoggedQuery(
        qid=qid,
        user=user,
        group="lab1",
        text=sql,
        timestamp=timestamp,
        canonical_text=canonical_text(sql),
        features=extract_features(sql),
    )


class TestSessionDetection:
    def test_time_gap_splits_sessions(self):
        records = [
            make_record(1, "SELECT * FROM WaterTemp T WHERE T.temp < 22", "alice", 0.0),
            make_record(2, "SELECT * FROM WaterTemp T WHERE T.temp < 18", "alice", 60.0),
            make_record(3, "SELECT * FROM WaterTemp T WHERE T.temp < 10", "alice", 5000.0),
        ]
        sessions = SessionDetector(gap_seconds=900).detect(records)
        assert len(sessions) == 2
        assert sessions[0].qids == [1, 2]
        assert sessions[1].qids == [3]

    def test_topic_shift_splits_sessions(self):
        records = [
            make_record(1, "SELECT * FROM WaterTemp T WHERE T.temp < 22", "alice", 0.0),
            make_record(2, "SELECT * FROM CityLocations", "alice", 60.0),
        ]
        sessions = SessionDetector(gap_seconds=900, min_similarity=0.1).detect(records)
        assert len(sessions) == 2

    def test_sessions_are_per_user(self):
        records = [
            make_record(1, "SELECT * FROM WaterTemp", "alice", 0.0),
            make_record(2, "SELECT * FROM WaterTemp", "bob", 10.0),
        ]
        sessions = SessionDetector().detect(records)
        assert len(sessions) == 2
        assert {session.user for session in sessions} == {"alice", "bob"}

    def test_session_ids_unique_and_chronological(self):
        records = [
            make_record(1, "SELECT * FROM WaterTemp", "alice", 100.0),
            make_record(2, "SELECT * FROM Lakes", "bob", 0.0),
        ]
        sessions = SessionDetector().detect(records)
        assert [session.session_id for session in sessions] == [1, 2]
        assert sessions[0].user == "bob"

    def test_edges_carry_diff_summaries(self):
        records = [
            make_record(1, "SELECT * FROM WaterTemp T WHERE T.temp < 22", "alice", 0.0),
            make_record(2, "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 22", "alice", 30.0),
            make_record(3, "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 18", "alice", 60.0),
        ]
        sessions = SessionDetector().detect(records)
        assert len(sessions) == 1
        edges = sessions[0].edges
        assert edges[0].edge_type == "modification"
        assert "+1 table" in edges[0].diff_summary
        assert edges[1].edge_type == "investigation"
        assert "const" in edges[1].diff_summary

    def test_identical_query_reexecution_is_temporal_edge(self):
        records = [
            make_record(1, "SELECT * FROM Lakes", "alice", 0.0),
            make_record(2, "SELECT * FROM Lakes", "alice", 30.0),
        ]
        sessions = SessionDetector().detect(records)
        assert sessions[0].edges[0].edge_type == "temporal"

    def test_final_qid_and_duration(self):
        records = [
            make_record(1, "SELECT * FROM Lakes", "alice", 0.0),
            make_record(2, "SELECT * FROM Lakes WHERE state = 'WA'", "alice", 120.0),
        ]
        session = SessionDetector().detect(records)[0]
        assert session.final_qid == 2
        assert session.duration == 120.0

    def test_records_without_features_stay_together(self):
        records = [
            LoggedQuery(qid=1, user="a", group="g", text="x", timestamp=0.0),
            LoggedQuery(qid=2, user="a", group="g", text="y", timestamp=10.0),
        ]
        sessions = SessionDetector().detect(records)
        assert len(sessions) == 1

    def test_empty_input(self):
        assert SessionDetector().detect([]) == []


class TestSessionMetrics:
    def test_ground_truth_pairs(self):
        records = [
            make_record(1, "SELECT * FROM Lakes", "alice", 0.0),
            make_record(2, "SELECT * FROM Lakes", "alice", 10.0),
            make_record(3, "SELECT * FROM Lakes", "alice", 20.0),
        ]
        sessions = SessionDetector().detect(records)
        pairs = sessions_as_ground_truth_pairs(sessions)
        assert pairs == {(1, 2), (1, 3), (2, 3)}

    def test_perfect_detection_scores_one(self):
        records = [
            make_record(1, "SELECT * FROM Lakes", "alice", 0.0),
            make_record(2, "SELECT * FROM Lakes", "alice", 10.0),
        ]
        sessions = SessionDetector().detect(records)
        truth = sessions_as_ground_truth_pairs(sessions)
        metrics = pairwise_session_metrics(sessions, truth)
        assert metrics == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_empty_case(self):
        metrics = pairwise_session_metrics([], set())
        assert metrics["f1"] == 1.0
