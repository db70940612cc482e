"""The Figure 1 feature relations as an unlogged projection of the records.

The Query Storage logs a record as one ``Queries`` row that carries its
artefacts (kind, features, canonical and template text), its runtime
statistics and its output sample.  ``DataSources``, ``Attributes``,
``Predicates``, ``Projections``, ``Joins``, ``RuntimeStats`` and
``OutputSamples`` are unlogged tables, filled from the records just before a
meta-query runs.  These tests hold the projection to the records and to the
in-memory postings across every mutator, every crash point of a durable log
and every reopen, and pin what a reopen reads back: each record as it was
logged, whole.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil

import pytest

from repro import CQMS, CQMSConfig, build_database
from repro.core.access_control import AccessControl
from repro.core.meta_query import MetaQueryExecutor, _figure1_conditions
from repro.core.query_store import (
    FEATURE_RELATIONS,
    PROJECTED_RELATIONS,
    QueryStore,
    _projection_rows,
    _schema,
)
from repro.core.records import LoggedQuery, OutputSummary, RuntimeStats
from repro.core.sessions import QuerySession, SessionEdge
from repro.errors import DurabilityError
from repro.sql.features import JoinFeature, PredicateFeature, QueryFeatures, extract_features
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.storage.wal import WAL_FILE_NAME, encode_record, read_wal
from repro.workloads import QueryLogGenerator, WorkloadConfig

#: Partial queries whose Figure 1 meta-SQL the tests run.
DRAFTS = [
    "SELECT * FROM Lakes",
    "SELECT * FROM WaterTemp",
    "SELECT * FROM WaterTemp T WHERE T.temp < 10",
    "SELECT L.name FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id",
    "SELECT L.name, S.sensor_type FROM Lakes L, Sensors S",
    "SELECT S.kind FROM Sensors S",
    "SELECT T.depth_m FROM WaterTemp T",
]

STATEMENTS = [
    "SELECT name FROM Lakes WHERE area_km2 > 3",
    "SELECT L.name, T.temp FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id",
    "SELEC broken FROM Lakes",
    "SELECT * FROM WaterTemp WHERE temp < 18 AND depth > 2",
    "SELECT T.temp FROM WaterTemp T WHERE T.depth < 10",
    "SELECT C.city FROM CityLocations C WHERE C.population > 1000",
    "SELECT name, sensor_type FROM Lakes, Sensors WHERE Lakes.lake_id = Sensors.lake_id",
    "SELECT * FROM Lakes WHERE state IN ('WA', 'MN') AND name LIKE 'Lake%'",
    "INSERT INTO Lakes VALUES (900, 'Pond', 'WA', 0.1, 2.0)",
]


def durable_cqms(data_dir: str, db=None, **config) -> CQMS:
    db = db if db is not None else build_database("limnology", scale=1, seed=7)
    cqms = CQMS(db, config=CQMSConfig(data_dir=data_dir, **config))
    cqms.register_user("ana", group="lab", is_admin=True)
    return cqms


def persisted(record: LoggedQuery) -> LoggedQuery:
    """The record less the fields no relation stores: a failed statement's
    error message and the catalog version it was checked against."""
    return dataclasses.replace(
        record, runtime=dataclasses.replace(record.runtime, error=None), catalog_version=0
    )


def assert_projection_matches(store: QueryStore) -> None:
    """Meta-SQL over each feature relation returns exactly the rows the live
    records spell, and each draft's Figure 1 meta-query finds the qids the
    postings hold."""
    for relation in PROJECTED_RELATIONS:
        found = store.execute_meta_sql(f"SELECT * FROM {relation}")
        spelled = [
            tuple(row.values())
            for record in store.all_queries()
            for row in _projection_rows(record).get(relation, [])
        ]
        assert sorted(found.rows, key=repr) == sorted(spelled, key=repr), relation
    for draft in DRAFTS:
        assert figure1_qids(store, draft) == postings_qids(store, draft), draft


def figure1_qids(store: QueryStore, draft: str) -> list[int]:
    """The qids the draft's generated Figure 1 meta-query finds, as an
    administrator (who sees every record)."""
    access = AccessControl()
    access.register("admin", group="any", is_admin=True)
    meta = MetaQueryExecutor(store, access)
    return sorted(r.qid for r in meta.by_feature_sql("admin", meta.generate_feature_sql(draft)))


def postings_qids(store: QueryStore, draft: str) -> list[int]:
    tables, attributes = _figure1_conditions(draft)
    return store.qids_with_features([*tables, *attributes])


# ---------------------------------------------------------------------------
# The features codec
# ---------------------------------------------------------------------------


def round_trip(features: QueryFeatures) -> QueryFeatures:
    """The features after a real JSON encode and decode of their
    :meth:`~QueryFeatures.to_values`, which read every array back as a list."""
    return QueryFeatures.from_values(json.loads(json.dumps(features.to_values())))


class TestFeaturesCodec:
    def test_the_generated_corpus_reads_back_equal(self):
        schema = build_database("limnology", scale=1, seed=7).schema_columns()
        log = QueryLogGenerator(WorkloadConfig(num_sessions=60, seed=11)).generate()
        texts = sorted({event.sql for event in log})
        assert len(texts) > 50
        for text in texts:
            for features in (extract_features(text, schema), extract_features(text)):
                assert round_trip(features) == features, text

    def test_every_constant_type_reads_back_with_its_type(self):
        constants = [
            None, True, False, 0, -7, 10**40, 1.5, -0.0, math.inf, "", "it's", 'say "hi"',
            "Zürich 湖", "007", ("WA", "MN"), (1, 2.5, None),
        ]
        features = QueryFeatures(
            tables=["lakes", "watertemp"],
            attributes=[("name", "lakes"), ("temp", "?")],
            projections=[("name", "lakes")],
            predicates=[PredicateFeature("temp", "watertemp", "<", c) for c in constants],
            joins=[JoinFeature("watertemp", "lake_id", "lakes", "lake_id")],
            group_by=[("state", "lakes")],
            order_by=[("name", "lakes")],
            aggregates=["count"],
            select_star=True,
            distinct=True,
            limit=10,
            num_tables=2,
            num_predicates=len(constants),
            num_joins=1,
            num_subqueries=1,
            nesting_depth=2,
        )
        decoded = round_trip(features)
        assert decoded == features
        for before, after in zip(features.predicates, decoded.predicates):
            assert type(after.constant) is type(before.constant)
            if isinstance(before.constant, tuple):
                assert [type(v) for v in after.constant] == [type(v) for v in before.constant]


# ---------------------------------------------------------------------------
# The projection in memory
# ---------------------------------------------------------------------------


def logged(qid: int, text: str) -> LoggedQuery:
    features = None if text.startswith("SELEC ") else extract_features(text)
    return LoggedQuery(
        qid=qid, user="ana", group="lab", text=text, timestamp=float(qid), features=features
    )


class TestProjection:
    def test_feature_relations_wait_for_a_meta_query(self):
        """Logging writes one ``Queries`` row only; the first meta-query
        fills the projected relations, one with no change since writes
        nothing, and one after an add inserts the new record's rows, one
        batch for each relation it has rows in."""
        store = QueryStore()
        for qid, text in enumerate(STATEMENTS[:2], start=1):
            store.add(logged(qid, text))
        database = store.meta_database
        assert database.total_rows() == 2 + 1  # Queries, StoreMeta
        assert all(len(database.table(relation)) == 0 for relation in PROJECTED_RELATIONS)
        assert_projection_matches(store)
        calls = []
        insert_rows = database.insert_rows
        database.insert_rows = lambda relation, rows: calls.append(relation) or insert_rows(
            relation, rows
        )
        store.execute_meta_sql("SELECT COUNT(*) FROM DataSources")
        assert calls == []
        store.add(logged(3, STATEMENTS[3]))
        assert calls == ["Queries"]
        store.execute_meta_sql("SELECT COUNT(*) FROM DataSources")
        # A one-table SELECT * with no output sample: no Projections, Joins
        # or OutputSamples rows.
        assert calls[1:] == ["DataSources", "Attributes", "Predicates", "RuntimeStats"]
        assert_projection_matches(store)

    def test_a_failed_fill_is_redone_without_duplicates(self, monkeypatch):
        store = QueryStore()
        store.add(logged(1, STATEMENTS[1]))
        assert_projection_matches(store)
        store.remove(1)
        store.add(logged(2, STATEMENTS[3]))
        database = store.meta_database
        insert_rows = database.insert_rows

        def failing(relation, rows):
            if relation == "Predicates":
                raise RuntimeError("injected")
            return insert_rows(relation, rows)

        monkeypatch.setattr(database, "insert_rows", failing)
        with pytest.raises(RuntimeError, match="injected"):
            store.execute_meta_sql("SELECT COUNT(*) FROM DataSources")
        monkeypatch.setattr(database, "insert_rows", insert_rows)
        assert_projection_matches(store)

    def test_figure1_meta_queries_stay_index_scans(self):
        store = QueryStore()
        for qid, text in enumerate(STATEMENTS, start=1):
            store.add(logged(qid, text))
        sql = (
            "SELECT DISTINCT Q.qid FROM Queries Q, DataSources D, Attributes A "
            "WHERE Q.qid = D.qid AND D.relName = 'lakes' AND Q.qid = A.qid "
            "AND A.attrName = 'name' AND A.relName = 'lakes'"
        )
        plan = store.explain_meta_sql(sql).text()
        assert "IndexScan Attributes AS A (attrName = 'name')" in plan
        assert "IndexScan DataSources AS D (qid = Q.qid)" in plan
        assert sorted(store.execute_meta_sql(sql).column("qid")) == postings_qids(
            store, "SELECT L.name FROM Lakes L"
        )


#: The record every mutator below changes: a two-table join with an output
#: sample, so it has rows in every projected relation but ``Predicates``
#: (its repair, ``REPAIRED``, adds one).
TARGET = 2

REPAIRED = "SELECT L.name FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id AND T.temp < 9"

#: The writes whose record's projected rows change, and the qid they change.
PROJECTING = {
    "add": (lambda store: store.add(dataclasses.replace(sampled(TARGET), qid=1000)), 1000),
    "remove": (lambda store: store.remove(TARGET), TARGET),
    "replace_text": (
        lambda store: store.replace_text(
            TARGET, REPAIRED, extract_features(REPAIRED), REPAIRED, REPAIRED
        ),
        TARGET,
    ),
    "set_runtime": (lambda store: store.set_runtime(TARGET, RuntimeStats(2.5, 7, 70)), TARGET),
}

#: The writes that change no projected row.
NOT_PROJECTING = {
    "record_sessions": lambda store: store.record_sessions([
        QuerySession(9, "ana", [1, TARGET], 1.0, 2.0, [SessionEdge(1, TARGET, "temporal", "", 1)])
    ]),
    "mark_invalid": lambda store: store.mark_invalid(TARGET, "stale"),
    "set_quality": lambda store: store.set_quality({TARGET: 0.9}),
    "add_annotation": lambda store: store.add_annotation(TARGET, "ana", "a note"),
    "set_catalog_version": lambda store: store.set_catalog_version([TARGET], 3),
    # It moves generation, but no projected relation holds a visibility.
    "set_visibility": lambda store: store.set_visibility(TARGET, "public"),
}


def sampled(qid: int) -> LoggedQuery:
    """A record of a log whose SELECTs carry an output sample."""
    record = logged(qid, STATEMENTS[(qid - 1) % len(STATEMENTS)])
    if record.features is not None:
        record.output = OutputSummary(["name"], [(f"lake {qid}",)], 1, complete=True)
    return record


def fill_writes(size: int, write, monkeypatch) -> list[tuple[str, str, int]]:
    """``(op, relation, qid)`` of each projected row the meta-query after
    ``write`` deletes or inserts, on a ``size``-record log filled before it."""
    store = QueryStore()
    for qid in range(1, size + 1):
        store.add(sampled(qid))
    store.execute_meta_sql("SELECT COUNT(*) FROM DataSources")
    write(store)
    database, writes = store.meta_database, []
    delete, insert_rows = Table.delete, database.insert_rows

    def spy_delete(table, row_id):
        if table.name in PROJECTED_RELATIONS:
            writes.append(("delete", table.name, table.get(row_id)[0]))
        delete(table, row_id)

    def spy_insert_rows(relation, rows):
        writes.extend(("insert", relation, row["qid"]) for row in rows)
        return insert_rows(relation, rows)

    with monkeypatch.context() as patch:
        patch.setattr(Table, "delete", spy_delete)
        patch.setattr(database, "insert_rows", spy_insert_rows)
        store.execute_meta_sql("SELECT COUNT(*) FROM DataSources")
    assert_projection_matches(store)
    return writes


class TestIncrementalFill:
    """The fill after a write touches the projected rows of the records the
    write changed and no others, so its cost does not grow with the log."""

    @pytest.mark.parametrize("name", PROJECTING)
    def test_a_write_refills_only_its_records_rows(self, name, monkeypatch):
        write, qid = PROJECTING[name]
        small = fill_writes(20, write, monkeypatch)
        assert small and {q for _, _, q in small} == {qid}
        assert fill_writes(200, write, monkeypatch) == small

    @pytest.mark.parametrize("name", NOT_PROJECTING)
    def test_a_write_no_projected_row_shows_fills_nothing(self, name, monkeypatch):
        assert fill_writes(20, NOT_PROJECTING[name], monkeypatch) == []


# ---------------------------------------------------------------------------
# Durable logs
# ---------------------------------------------------------------------------


def wal_path(data_dir: str) -> str:
    return os.path.join(data_dir, WAL_FILE_NAME)


def test_every_crash_point_reads_the_postings_back(tmp_path):
    """Cut a durable log at every WAL frame boundary (submits, a removal, a
    repair): each reopen's meta-SQL finds what its postings hold, no
    feature row outlives its record, and every record that comes back has
    the runtime statistics and output sample it was logged with (a cut
    between the frames of one record read back a successful query with
    cardinality 0 and no sample)."""
    d = str(tmp_path / "store")
    db = build_database("limnology", scale=1, seed=7)
    with durable_cqms(d, db, wal_sync="commit") as cqms:
        for sql in STATEMENTS:
            cqms.submit("ana", sql)
        assert_projection_matches(cqms.store)
        logged = {
            record.qid: (dataclasses.replace(record.runtime, error=None), record.output)
            for record in cqms.store.all_queries()
        }
        assert any(output is not None and output.rows for _, output in logged.values())
        cqms.store.remove(2)
        repaired = "SELECT name FROM Lakes WHERE area_km2 > 30"
        features = extract_features(repaired, db.schema_columns())
        cqms.store.replace_text(1, repaired, features, "canonical", "template")
    records = read_wal(wal_path(d)).records
    frames = [len(encode_record(r.lsn, r.data)) for r in records]
    assert sum(frames) == os.path.getsize(wal_path(d))
    assert not any(
        r.data.get("tbl") in PROJECTED_RELATIONS and r.data["op"] != "create_index"
        for r in records
    )
    for count in range(len(frames) + 1):
        crashed = str(tmp_path / f"cut{count}")
        shutil.copytree(d, crashed)
        with open(wal_path(crashed), "r+b") as handle:
            handle.truncate(sum(frames[:count]))
        with durable_cqms(crashed, db) as cqms:
            assert_projection_matches(cqms.store)
            for record in cqms.store.all_queries():
                assert (record.runtime, record.output) == logged[record.qid], (count, record.qid)
        shutil.rmtree(crashed)


def test_a_replay_of_every_mutator_keeps_meta_sql_equal_to_the_postings(tmp_path):
    """A rename, a drop, maintenance (repair and flag), a deletion, a repair,
    an annotation, quality scores and the miner, with a close and reopen in
    the middle: after every step the meta-SQL reads what the postings hold,
    and each reopen reads back the records it was closed with."""
    d = str(tmp_path / "store")
    db = build_database("limnology", scale=1, seed=7)

    def reopen(cqms: CQMS) -> CQMS:
        closed = {record.qid: persisted(record) for record in cqms.store.all_queries()}
        cqms.close()
        cqms = durable_cqms(d, db)
        assert {record.qid: persisted(record) for record in cqms.store.all_queries()} == closed
        return cqms

    cqms = durable_cqms(d, db)
    for sql in STATEMENTS:
        cqms.submit("ana", sql)
        cqms.clock.advance(30)
    repaired = "SELECT name FROM Lakes WHERE area_km2 > 300"
    steps = [
        lambda: db.execute("ALTER TABLE WaterTemp RENAME COLUMN depth TO depth_m"),
        lambda: cqms.run_maintenance(),
        lambda: db.execute("ALTER TABLE CityLocations DROP COLUMN population"),
        lambda: cqms.run_maintenance(),
        lambda: cqms.annotate("ana", 1, "big lakes"),
        lambda: cqms.admin().delete_query("ana", 2),
        lambda: cqms.store.replace_text(
            1, repaired, extract_features(repaired, db.schema_columns()), "c", "t"
        ),
        lambda: cqms.maintenance.score_all_quality(),
        lambda: cqms.run_miner(),
    ]
    for number, step in enumerate(steps):
        step()
        assert_projection_matches(cqms.store)
        if number % 3 == 2:
            cqms = reopen(cqms)
            assert_projection_matches(cqms.store)
    assert 2 not in cqms.store and cqms.store.get(1).text == repaired
    assert any("depth_m" in record.text for record in cqms.store.all_queries())
    assert any(record.flagged_invalid for record in cqms.store.all_queries())
    cqms = reopen(cqms)
    assert_projection_matches(cqms.store)
    cqms.close()


def test_a_reopen_keeps_the_features_a_record_was_logged_with(tmp_path):
    """Renaming ``Sensors.sensor_type`` to ``kind`` and reopening leaves the
    record's features, and its ``Attributes`` row, as they were logged
    (a reopen that parsed the text under the new schema read
    ``('sensor_type', '?')``); the maintenance pass that follows repairs it."""
    d = str(tmp_path / "store")
    db = build_database("limnology", scale=1, seed=7)
    sql = "SELECT name, sensor_type FROM Lakes, Sensors WHERE Lakes.lake_id = Sensors.lake_id"
    with durable_cqms(d, db) as cqms:
        logged_features = cqms.submit("ana", sql).record.features
        assert ("sensor_type", "sensors") in logged_features.attributes
        db.execute("ALTER TABLE Sensors RENAME COLUMN sensor_type TO kind")
    with durable_cqms(d, db) as cqms:
        record = cqms.store.get(1)
        assert record.features == logged_features
        attributes = cqms.store.execute_meta_sql(
            "SELECT attrName, relName FROM Attributes WHERE qid = 1"
        ).rows
        assert ("sensor_type", "sensors") in attributes
        assert cqms.run_maintenance().repaired == [1]
        assert "kind" in cqms.store.get(1).text
        assert ("kind", "sensors") in cqms.store.get(1).features.attributes
        assert_projection_matches(cqms.store)


def test_a_reopen_on_another_user_catalog_rechecks_every_record(tmp_path):
    """A record's catalog stamp is not trusted across a reopen.  One session
    renames ``Sensors.sensor_type`` to ``kind`` and logs a query reading
    ``kind``; the next reopens against a fresh user database, where
    ``sensor_type`` is back, and runs an unrelated DDL that brings its
    catalog to the same version number.  Maintenance still re-checks the
    query (a stamp kept from the first session read as current and skipped
    it)."""
    d = str(tmp_path / "store")
    db = build_database("limnology", scale=1, seed=7)
    with durable_cqms(d, db) as cqms:
        db.execute("ALTER TABLE Sensors RENAME COLUMN sensor_type TO kind")
        assert cqms.submit("ana", "SELECT kind FROM Sensors").succeeded
        assert cqms.run_maintenance().checked == 0
    fresh = build_database("limnology", scale=1, seed=7)
    with durable_cqms(d, fresh) as cqms:
        fresh.execute("ALTER TABLE Lakes ADD COLUMN note TEXT")
        assert fresh.catalog.version == db.catalog.version
        report = cqms.run_maintenance()
        assert report.checked == 1
        assert report.flagged == [1] and cqms.store.get(1).flagged_invalid
        assert cqms.run_maintenance().checked == 1  # flagged: checked until repaired


def test_a_quality_score_survives_a_restart(tmp_path):
    """``score_all_quality`` stores each score through the one write path,
    in ``Queries.quality``, so the ranking reads it after a reopen (it read
    the default 0.5 while the score lived on the record only)."""
    d = str(tmp_path / "store")
    db = build_database("limnology", scale=1, seed=7)
    with durable_cqms(d, db) as cqms:
        for sql in STATEMENTS[:4]:
            cqms.submit("ana", sql)
        cqms.annotate("ana", 1, "documented")
        scores = cqms.maintenance.score_all_quality()
        assert scores[1] != 0.5
        assert cqms.maintenance.score_quality(cqms.store.get(2)) == scores[2]
    with durable_cqms(d, db) as cqms:
        assert {record.qid: record.quality for record in cqms.store.all_queries()} == scores
        stored = cqms.store.execute_meta_sql("SELECT qid, quality FROM Queries").rows
        assert dict(stored) == scores


#: Queries whose features differ only in a constant's type: ``5``, ``5.0``
#: and ``TRUE`` are equal in Python, and so are tuples holding them.
TYPED_TWINS = [
    "SELECT * FROM WaterTemp WHERE depth > 5",
    "SELECT * FROM WaterTemp WHERE depth > 5.0",
    "SELECT * FROM Lakes WHERE lake_id = 1",
    "SELECT * FROM Lakes WHERE lake_id = TRUE",
    "SELECT * FROM Lakes WHERE lake_id IN (1, 2)",
    "SELECT * FROM Lakes WHERE lake_id IN (1.0, 2)",
]


def constant_types(store: QueryStore) -> dict[int, list[type]]:
    types = {}
    for record in store.all_queries():
        (predicate,) = record.features.predicates
        constant = predicate.constant
        types[record.qid] = (
            [type(v) for v in constant] if isinstance(constant, tuple) else [type(constant)]
        )
    return types


def test_constants_equal_across_types_read_back_with_their_types(tmp_path):
    """Records whose features differ only in a constant's type do not share
    one decoded object on a reopen: each reads back its own constant, and
    its ``Predicates`` row spells it as it was logged (``'5.0'``, not
    ``'5'``)."""
    d = str(tmp_path / "store")
    store = QueryStore(data_dir=d)
    for qid, text in enumerate(TYPED_TWINS, 1):
        store.add(logged(qid, text))
    logged_types = constant_types(store)
    logged_rows = sorted(store.execute_meta_sql("SELECT qid, const FROM Predicates").rows)
    store.close()
    assert logged_types[2] == [float] and logged_types[4] == [bool]
    store = QueryStore(data_dir=d)
    assert constant_types(store) == logged_types
    assert sorted(store.execute_meta_sql("SELECT qid, const FROM Predicates").rows) == logged_rows
    assert_projection_matches(store)
    store.close()


def test_a_repair_that_changes_only_a_constant_type_is_logged(tmp_path):
    """``replace_text`` from ``depth > 5`` to ``depth > 5.0`` rewrites the
    logged features, though the old and new values are ``==``."""
    d = str(tmp_path / "store")
    store = QueryStore(data_dir=d)
    for qid, text in enumerate(TYPED_TWINS[::2], 1):
        store.add(logged(qid, text))
    for qid, text in enumerate(TYPED_TWINS[1::2], 1):
        features = extract_features(text)
        assert features.to_values() == store.get(qid).features.to_values()
        store.replace_text(qid, text, features, text, text)
    repaired = constant_types(store)
    assert repaired == {1: [float], 2: [bool], 3: [float, int]}
    store.close()
    store = QueryStore(data_dir=d)
    assert constant_types(store) == repaired
    store.close()


def test_a_data_directory_with_the_ten_column_queries_is_refused(tmp_path):
    """A directory whose ``Queries`` has the ten columns of the format that
    logged every feature row, or the fourteen of the format that logged
    ``RuntimeStats`` and ``OutputSamples`` rows beside it, raises, naming the
    shape found and the shape read; nothing is derived from its texts."""
    expected = ", ".join(FEATURE_RELATIONS[0].column_names)
    for width, last in ((10, "invalidReason, flagCount"), (14, "features, quality")):
        data_dir = str(tmp_path / f"store{width}")
        database = Database.open(data_dir, name="query_storage")
        old = _schema(
            "Queries",
            *(
                (column, FEATURE_RELATIONS[0].column(column).data_type)
                for column in FEATURE_RELATIONS[0].column_names[:width]
            ),
        )
        for schema in FEATURE_RELATIONS:
            database.create_table(old if schema.name == "Queries" else schema)
        database.insert_rows("Queries", [{"qid": 1, "qText": "SELECT * FROM Lakes"}])
        database.close()
        for _ in range(2):
            with pytest.raises(DurabilityError) as raised:
                QueryStore(data_dir=data_dir)
            message = str(raised.value)
            assert "holds Queries(qid, qText, userName, groupName, ts, statementKind," in message
            assert f"{last}); this version reads" in message
            assert f"Queries({expected})" in message


def test_a_data_directory_with_the_sample_and_features_as_text_is_refused(tmp_path):
    """A directory whose ``Queries`` holds the features and the output sample
    as JSON text — the same column names, ``TEXT`` where this version reads
    ``JSON`` — raises, naming both shapes with the types that differ, instead
    of failing inside ``_record`` when a row is read back."""
    as_text = {"features", "columnNames", "sampleRows"}
    old = _schema(
        "Queries",
        *(
            (column.name, DataType.TEXT if column.name in as_text else column.data_type)
            for column in FEATURE_RELATIONS[0].columns
        ),
    )
    data_dir = str(tmp_path / "store")
    database = Database.open(data_dir, name="query_storage")
    for schema in FEATURE_RELATIONS:
        database.create_table(
            old if schema.name == "Queries" else schema,
            unlogged=schema.name in PROJECTED_RELATIONS,
        )
    text = "SELECT name FROM Lakes WHERE area_km2 > 3"
    database.insert_rows("Queries", [{
        "qid": 1, "qText": text,
        "features": json.dumps(extract_features(text).to_values()),
        "columnNames": '["name"]', "sampleRows": '[["Lake Washington"]]',
    }])
    database.close()
    for _ in range(2):
        with pytest.raises(DurabilityError) as raised:
            QueryStore(data_dir=data_dir)
        message = str(raised.value)
        assert "holds Queries(qid, qText, userName, groupName, ts, statementKind," in message
        assert "features TEXT, quality" in message
        assert "columnNames TEXT, sampleRows TEXT); this version reads Queries(qid," in message
        assert "features JSON, quality" in message
        assert message.endswith("columnNames JSON, sampleRows JSON)")
