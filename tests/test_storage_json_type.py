"""The storage engine's ``JSON`` column type.

A stored ``JSON`` value is the Python structure — arrays as tuples, plus str,
int, float, bool or NULL — so it is immutable and hashable.  Only the WAL
frame and the heap-page codec encode it, nested in their own JSON, and both
read it back as tuples: a value reads back ``==`` to what was inserted after
WAL replay, after a checkpoint, and after eviction from a small pool.  The
type is the engine's own (no SQL type name maps to it), and where SQL turns
a value into text it reads as JSON.
"""


from __future__ import annotations

import json

import pytest

from repro.errors import SchemaError
from repro.storage.database import Database
from repro.storage.buffer_pool import PageStore
from repro.storage.exec_settings import ExecutionSettings
from repro.storage.pager import Pager
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType, freeze_json
from repro.storage.wal import WAL_FILE_NAME, read_wal

#: One value of every shape a JSON column holds, nesting and text escapes
#: included.
VALUES = [
    None,
    "plain",
    'say "hi" \\ Zürich 湖',
    7,
    10**30,
    -2.5,
    -0.0,
    True,
    (),
    ("a", 1, 2.5, None, False),
    (("nested", (1, (2, ()))), ("Zürich 湖", 'say "hi"')),
]

#: Rows enough for eleven 128-slot heap pages, more than the smallest pool a
#: database accepts (8 pages) holds.
ROW_COUNT = 1400


def expected_rows() -> list[tuple]:
    return [(i, VALUES[i % len(VALUES)]) for i in range(ROW_COUNT)]


def docs_schema() -> TableSchema:
    return TableSchema(
        "docs", [ColumnSchema("id", DataType.INTEGER), ColumnSchema("doc", DataType.JSON)]
    )


def insert_rows(db: Database) -> None:
    db.create_table(docs_schema())
    db.insert_rows("docs", [{"id": i, "doc": doc} for i, doc in expected_rows()])


def stored_rows(db: Database) -> list[tuple]:
    return db.execute("SELECT id, doc FROM docs ORDER BY id").rows


def is_frozen(value) -> bool:
    if isinstance(value, list):
        return False
    return not isinstance(value, tuple) or all(map(is_frozen, value))


class TestCoercion:
    def test_a_list_freezes_to_tuples_at_every_depth(self):
        assert freeze_json([1, [2, ["x", None]], []]) == (1, (2, ("x", None)), ())
        assert freeze_json([["a", 1], ["b", [2, 3]]]) == (("a", 1), ("b", (2, 3)))
        assert freeze_json((1, [2, (3, [4])])) == (1, (2, (3, (4,))))

    def test_no_sql_type_name_is_json(self):
        with pytest.raises(SchemaError, match="unsupported SQL type"):
            DataType.from_sql("json")

    def test_a_frozen_value_is_stored_itself_not_copied(self):
        db = Database()
        db.create_table(docs_schema())
        value = (("a", 1), ("b", 2.5))
        db.insert_rows("docs", [{"id": 1, "doc": value}])
        (row,) = db.table("docs").rows()
        assert row[1] is value

    @pytest.mark.parametrize(
        "bad", [{"a": 1}, (1, {"a": 1}), [1, {2}], [[1], [{"a": 1}]], [[1, [2, {3}]]], object()]
    )
    def test_a_value_json_cannot_hold_is_refused(self, bad):
        db = Database()
        db.create_table(docs_schema())
        with pytest.raises(SchemaError, match="JSON"):
            db.insert_rows("docs", [{"id": 1, "doc": bad}])
        assert len(db.table("docs")) == 0


class TestDurableRoundTrip:
    def test_values_survive_eviction_from_a_two_page_pool(self, tmp_path):
        store = PageStore(pager=Pager(str(tmp_path / "pages.db")), capacity=2)
        table = Table(docs_schema(), store=store)
        table.insert_many([{"id": i, "doc": doc} for i, doc in expected_rows()])
        rows = table.rows()  # each page read back through the codec
        assert rows == expected_rows() and all(is_frozen(doc) for _, doc in rows)
        stats = store.stats()
        assert stats.evictions > 0 and stats.misses > 0
        store.close()

    def test_a_dropped_column_moves_the_json_position_the_codec_freezes(self, tmp_path):
        """Dropping the column before ``doc`` rewrites every page, evicted
        ones read back in the old layout; pages read after it find ``doc``
        one place earlier, and still read it back as tuples."""
        store = PageStore(pager=Pager(str(tmp_path / "pages.db")), capacity=2)
        schema = TableSchema(
            "docs",
            [
                ColumnSchema("id", DataType.INTEGER),
                ColumnSchema("note", DataType.TEXT),
                ColumnSchema("doc", DataType.JSON),
            ],
        )
        table = Table(schema, store=store)
        table.insert_many([{"id": i, "note": "n", "doc": doc} for i, doc in expected_rows()])
        table.drop_column("note")
        rows = table.rows()
        assert rows == expected_rows() and all(is_frozen(doc) for _, doc in rows)
        assert store.stats().evictions > 0
        store.close()

    def test_values_survive_replay_checkpoint_and_eviction(self, tmp_path):
        data_dir = str(tmp_path / "db")
        tiny_pool = ExecutionSettings(buffer_pool_pages=8)
        expected = expected_rows()
        with Database.open(data_dir, wal_sync="off", exec_settings=tiny_pool) as db:
            insert_rows(db)
            # A list written by an update is frozen too.
            db.table("docs").update(0, {"doc": ["x", [1, 2]]})
            expected[0] = (0, ("x", (1, 2)))
            assert stored_rows(db) == expected
            assert db.buffer_stats().evictions > 0
        # The frames carry each value as nested JSON, not as quoted text.
        frames = [record.data for record in read_wal(f"{data_dir}/{WAL_FILE_NAME}").records]
        (batch,) = [frame for frame in frames if frame["op"] == "insert_many"]
        assert batch["rows"][10][1] == [["nested", [1, [2, []]]], ["Zürich 湖", 'say "hi"']]
        with Database.open(data_dir, exec_settings=tiny_pool) as db:  # WAL replay
            assert db.last_recovery.wal_records_applied >= 2
            rows = stored_rows(db)
            assert rows == expected and all(is_frozen(doc) for _, doc in rows)
            db.checkpoint()
        with Database.open(data_dir, exec_settings=tiny_pool) as db:  # page codec
            assert db.last_recovery.snapshot_loaded
            assert db.last_recovery.wal_records_applied == 0
            rows = stored_rows(db)
            assert rows == expected and all(is_frozen(doc) for _, doc in rows)
            assert db.buffer_stats().evictions > 0


class TestQueries:
    def test_sql_reads_a_json_value_as_json_text(self):
        db = Database()
        insert_rows(db)
        nested = VALUES[10]
        text = json.dumps(nested, ensure_ascii=False)
        assert db.execute("SELECT CAST(doc AS TEXT) FROM docs WHERE id = 10").rows == [(text,)]
        assert db.execute("SELECT doc || '' FROM docs WHERE id = 10").rows == [(text,)]
        # A LIKE over the column (the filter kernel) and over an expression
        # (the evaluator) both match the JSON spelling.
        expected = [(i,) for i, doc in expected_rows() if doc == nested]
        for where in ("doc LIKE '%\"Zürich 湖\"%'", "doc || '' LIKE '%[\"nested\", [1, [2%'"):
            assert db.execute(f"SELECT id FROM docs WHERE {where} ORDER BY id").rows == expected


    def test_distinct_and_group_by_over_a_json_column(self):
        db = Database()
        insert_rows(db)
        distinct = db.execute("SELECT DISTINCT doc FROM docs").rows
        assert sorted(distinct, key=repr) == sorted({(v,) for v in VALUES}, key=repr)
        grouped = dict(db.execute("SELECT doc, COUNT(*) FROM docs GROUP BY doc").rows)
        counts: dict = {}
        for _, doc in expected_rows():
            counts[doc] = counts.get(doc, 0) + 1
        assert grouped == counts
