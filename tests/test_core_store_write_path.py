"""The Query Storage's one write path.

Every mutation of :class:`~repro.core.query_store.QueryStore` is a change
that ``_apply`` writes to the meta relations first and to memory second, and
a record's one logged row is spelled in one place, ``_queries_row``.  These
tests hold the two copies to each other: a failed write leaves memory (and,
for an add, the meta rows) as it was, every step of a durable replay leaves
each record's row equal to its spelling, and a reopen reads back the records
that were closed.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import CQMS
from repro.core.config import CQMSConfig
from repro.core.query_store import PROJECTED_RELATIONS, QueryStore, _projection_rows, _queries_row
from repro.core.records import LoggedQuery, RuntimeStats, statement_artefacts
from repro.errors import MetaQueryError
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features
from repro.workloads import build_database


def logged(qid: int, text: str) -> LoggedQuery:
    return LoggedQuery(
        qid=qid,
        user="alice",
        group="lab",
        text=text,
        timestamp=float(qid),
        canonical_text=canonical_text(text),
        template_text=canonical_text(text, strip_constants=True),
        features=extract_features(text),
    )


def memory(store: QueryStore) -> tuple:
    """What a search reads of the store's memory."""
    return (
        len(store),
        store.generation,
        [record.qid for record in store.all_queries()],
        store.table_popularity(),
        store.qids_with_features(["lakes"]),
        sorted((tuple(shape.qids) for shape in store.shapes())),
    )


class Injected(RuntimeError):
    pass


class TestFailedWriteLeavesMemory:
    def test_failed_insert_during_add(self, monkeypatch):
        store = QueryStore()
        store.add(logged(1, "SELECT name FROM Lakes WHERE area_km2 > 3"))
        before, rows = memory(store), store.meta_database.total_rows()
        insert_rows = store.meta_database.insert_rows

        def failing(relation, rows):
            if relation == "Queries":
                raise Injected(relation)
            return insert_rows(relation, rows)

        monkeypatch.setattr(store.meta_database, "insert_rows", failing)
        with pytest.raises(Injected):
            store.add(logged(2, "SELECT name FROM Lakes WHERE area_km2 > 4"))
        assert memory(store) == before
        assert store.meta_database.total_rows() == rows
        with pytest.raises(MetaQueryError):
            store.get(2)

    def test_failed_delete_during_remove(self, monkeypatch):
        store = QueryStore()
        store.add(logged(1, "SELECT name FROM Lakes WHERE area_km2 > 3"))
        store.add(logged(2, "SELECT L.name FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id"))
        before = memory(store)

        def failing(row_id):
            raise Injected(row_id)

        monkeypatch.setattr(store.meta_database.table("Queries"), "delete", failing)
        with pytest.raises(Injected):
            store.remove(2)
        assert memory(store) == before
        assert store.get(2).text.startswith("SELECT L.name")


def stored_rows(store: QueryStore, relation: str) -> dict[int, list[dict]]:
    """A relation's rows by qid, in row-id (insertion) order."""
    table = store.meta_database.table(relation)
    by_qid: dict[int, list[dict]] = {}
    for _, row in sorted(table.scan(), key=lambda item: item[0]):
        values = table.schema.as_dict(row)
        by_qid.setdefault(values["qid"], []).append(values)
    return by_qid


def assert_rows_spell_records(store: QueryStore) -> None:
    """Each qid's one ``Queries`` row is ``_queries_row`` of its record,
    after a meta-query its rows in the projected relations are
    ``_projection_rows`` of it, and no relation holds a row of a qid the
    store does not."""
    spelled = {record.qid: [_queries_row(record)] for record in store.all_queries()}
    assert stored_rows(store, "Queries") == spelled
    store.execute_meta_sql("SELECT COUNT(*) FROM Queries")
    for relation in PROJECTED_RELATIONS:
        by_qid = stored_rows(store, relation)
        assert set(by_qid) <= {record.qid for record in store.all_queries()}, relation
        for record in store.all_queries():
            spelled = _projection_rows(record).get(relation, [])
            assert by_qid.get(record.qid, []) == spelled, (relation, record.qid)


def persisted(record: LoggedQuery) -> LoggedQuery:
    """The record less the fields no relation stores: a failed statement's
    error message and the catalog version it was checked against."""
    return dataclasses.replace(
        record, runtime=dataclasses.replace(record.runtime, error=None), catalog_version=0
    )


def durable_cqms(data_dir: str, **config) -> CQMS:
    return CQMS(
        build_database("limnology", scale=1, seed=7),
        config=CQMSConfig(data_dir=data_dir, **config),
    )


STATEMENTS = [
    ("alice", "SELECT name FROM Lakes WHERE area_km2 > 3"),
    ("alice", "SELECT L.name, T.temp FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id"),
    ("alice", "SELEC broken FROM Lakes"),
    ("bob", "SELECT * FROM WaterTemp WHERE temp < 18 AND depth > 2"),
    ("alice", "SELECT L.name FROM Lakes L WHERE L.max_depth_m > 10"),
    ("bob", "SELECT COUNT(*) FROM WaterSalinity WHERE salinity > 1.5"),
    ("alice", "INSERT INTO Lakes VALUES (900, 'Pond', 'WA', 0.1, 2.0)"),
]


def test_every_step_keeps_rows_equal_to_records_and_reopen_reads_them_back(tmp_path):
    """A durable replay through every mutator: after each step every
    record's rows equal its one spelling, and the reopened store holds
    the records it was closed with."""
    data_dir = str(tmp_path / "store")
    with durable_cqms(data_dir) as cqms:
        cqms.register_user("alice", group="lab")
        cqms.register_user("bob", group="lab")
        store = cqms.store
        for user, sql in STATEMENTS:
            cqms.submit(user, sql)
            cqms.clock.advance(30)
            assert_rows_spell_records(store)
        schema = cqms.database.schema_columns()
        # Repairs that shrink (qid 2: a join) and grow (qid 1) the feature rows.
        shrunk = "SELECT L.name FROM Lakes L WHERE L.area_km2 > 10"
        grown = "SELECT L.name, T.depth FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id"
        shrunk_artefacts = statement_artefacts(shrunk, schema, True)[1:]
        grown_artefacts = statement_artefacts(grown, schema, True)[1:]
        steps = [
            lambda: cqms.annotate("alice", 2, "joins lakes to their readings"),
            lambda: cqms.annotate("bob", 2, "checked"),
            lambda: store.set_visibility(4, "private"),
            lambda: store.mark_invalid(5, "stale"),
            lambda: store.mark_invalid(5, "stale; renamed column"),
            lambda: store.mark_invalid(1, "unused"),
            lambda: store.mark_valid(1),
            lambda: store.set_runtime(6, RuntimeStats(elapsed_seconds=0.5, result_cardinality=1)),
            cqms.run_miner,
            lambda: store.replace_text(2, shrunk, *shrunk_artefacts),
            lambda: store.replace_text(1, grown, *grown_artefacts),
            lambda: store.remove(3),
            cqms.run_miner,
        ]
        for step in steps:
            step()
            assert_rows_spell_records(store)
        closed = {record.qid: persisted(record) for record in store.all_queries()}
        assert any(record.session_id is not None for record in closed.values())
    with durable_cqms(data_dir) as cqms:
        reopened = {record.qid: persisted(record) for record in cqms.store.all_queries()}
        assert reopened == closed
        assert_rows_spell_records(cqms.store)


def test_reopen_keeps_a_non_member_out_of_sessions(tmp_path):
    """The miner reads only SELECTs with features, so an unparseable text
    between two SELECTs of one session is in no session; a reopen matches
    records to the ``Sessions`` windows by the same rule, and removing that
    text leaves the session's count alone."""
    data_dir = str(tmp_path / "store")
    texts = [
        "SELECT * FROM WaterTemp WHERE temp < 15",
        "SELEC broken FROM WaterTemp",
        "SELECT * FROM WaterTemp WHERE temp < 16",
        "SELECT * FROM WaterTemp WHERE temp < 17",
    ]
    with durable_cqms(data_dir) as cqms:
        cqms.register_user("ana", group="g")
        for sql in texts:
            cqms.submit("ana", sql)
            cqms.clock.advance(30)
        cqms.run_miner()
        assert cqms.store.get(2).session_id is None
        (session_id,) = {cqms.store.get(qid).session_id for qid in (1, 3, 4)}
    with durable_cqms(data_dir) as cqms:
        store = cqms.store
        assert store.get(2).session_id is None
        assert [store.get(qid).session_id for qid in (1, 3, 4)] == [session_id] * 3
        store.remove(2)
        count = store.execute_meta_sql(
            f"SELECT numQueries FROM Sessions WHERE sessionId = {session_id}"
        ).scalar()
        assert count == 3


#: The projected relations that hold a record's features.
FIGURE1_RELATIONS = ("DataSources", "Attributes", "Predicates", "Projections", "Joins")


def test_text_mode_reopen_keeps_log_time_features(tmp_path):
    """A log written in ``"features"`` mode and reopened in ``"text"`` mode
    holds its records as they were logged, features included, and the
    meta-SQL reads their feature rows.  A flag, a visibility change or a
    runtime refresh leaves those rows alone; a repair in text mode (no
    features) deletes them, since they describe the old text."""
    data_dir = str(tmp_path / "store")
    with durable_cqms(data_dir) as cqms:
        cqms.register_user("alice", group="lab")
        for user, sql in STATEMENTS[:2]:
            cqms.submit(user, sql)
        closed = [persisted(record) for record in cqms.store.all_queries()]
    with durable_cqms(data_dir, profiling_mode="text") as cqms:
        store = cqms.store
        assert [persisted(record) for record in store.all_queries()] == closed
        assert store.get(2).features is not None
        assert_rows_spell_records(store)
        before = {relation: stored_rows(store, relation) for relation in FIGURE1_RELATIONS}
        assert before["DataSources"][2] and before["Joins"][2]
        store.set_visibility(2, "private")
        store.mark_invalid(2, "stale")
        store.mark_invalid(1, "unused")
        store.mark_valid(1)
        store.set_runtime(2, RuntimeStats(elapsed_seconds=0.5, result_cardinality=1))
        assert_rows_spell_records(store)
        kept = {relation: stored_rows(store, relation) for relation in FIGURE1_RELATIONS}
        assert kept == before
        repaired = "SELECT name FROM Lakes"
        store.replace_text(
            2, repaired, None, canonical_text(repaired),
            canonical_text(repaired, strip_constants=True),
        )
        assert_rows_spell_records(store)
        after = {relation: stored_rows(store, relation) for relation in FIGURE1_RELATIONS}
        assert all(2 not in by_qid for by_qid in after.values())
        assert after["DataSources"][1] == before["DataSources"][1]


def test_in_memory_submits_encode_no_json(monkeypatch):
    """A record's features and output sample are ``JSON`` values in its
    ``Queries`` row, kept as they are: in memory, logging a query spells
    none of it as JSON text (only a WAL frame or a heap page would)."""
    cqms = CQMS(build_database("limnology", scale=1, seed=7))
    cqms.register_user("alice", group="lab")
    cqms.register_user("bob", group="lab")
    encoded = []
    encode = json.JSONEncoder.encode

    def counting(self, value):
        encoded.append(value)
        return encode(self, value)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    for _ in range(3):
        for user, sql in STATEMENTS:
            cqms.submit(user, sql)
    records = cqms.store.all_queries()
    assert len(records) == 3 * len(STATEMENTS)
    assert sum(record.output is not None for record in records) >= 3 * 4
    assert sum(record.features is not None for record in records) >= 3 * 5
    assert encoded == []
