"""Durability subsystem tests: WAL, snapshots, crash recovery, lifecycle.

The central property: after *any* crash — simulated by truncating the WAL at
an arbitrary byte boundary, flipping bits, or leaving a half-written
snapshot — reopening the ``data_dir`` recovers exactly the committed prefix
of acknowledged operations, never a torn half-statement and never silently
less than what a sync policy promised.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CQMS, CQMSConfig, build_database
from repro.errors import DurabilityError, SchemaError
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.recovery import LOCK_FILE_NAME
from repro.storage.schema import TableSchema
from repro.storage.snapshot import SNAPSHOT_FILE_NAME, SNAPSHOT_TMP_SUFFIX, load_snapshot
from repro.storage.statistics import TableStatistics
from repro.storage.wal import (
    DEFAULT_GROUP_SIZE,
    WAL_FILE_NAME,
    WalWriter,
    encode_record,
    read_wal,
    row_mutations,
)


def wal_path(data_dir) -> str:
    return os.path.join(data_dir, WAL_FILE_NAME)


def snapshot_path(data_dir) -> str:
    return os.path.join(data_dir, SNAPSHOT_FILE_NAME)


def unflushed_mutations(db: Database) -> int:
    """Acknowledged row mutations a crash right now would lose."""
    on_disk = sum(row_mutations(r.data) for r in read_wal(wal_path(db.data_dir)).records)
    return db.wal_stats().records_since_checkpoint - on_disk


def table_rows(db: Database, table: str) -> list[tuple]:
    return sorted(db.execute(f"SELECT * FROM {table}").rows)


# ---------------------------------------------------------------------------
# WAL encoding / decoding
# ---------------------------------------------------------------------------


class TestWalFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w.log"
        payloads = [{"op": "insert", "i": i, "txt": "αβγ"} for i in range(5)]
        with open(path, "wb") as handle:
            for lsn, payload in enumerate(payloads, start=1):
                handle.write(encode_record(lsn, payload))
        result = read_wal(path)
        assert not result.torn_tail
        assert [r.data for r in result.records] == payloads
        assert [r.lsn for r in result.records] == [1, 2, 3, 4, 5]
        assert result.valid_length == os.path.getsize(path)

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_wal(tmp_path / "absent.log")
        assert result.records == [] and not result.torn_tail

    def test_truncation_at_every_byte_of_tail_record(self, tmp_path):
        """Kill-at-any-byte: replay recovers exactly the committed prefix."""
        path = tmp_path / "w.log"
        records = [encode_record(i + 1, {"n": i}) for i in range(4)]
        blob = b"".join(records)
        prefix_len = len(blob) - len(records[-1])
        for cut in range(prefix_len, len(blob) + 1):
            path.write_bytes(blob[:cut])
            result = read_wal(path)
            if cut == len(blob):
                assert [r.data["n"] for r in result.records] == [0, 1, 2, 3]
                assert not result.torn_tail
            else:
                # Any partial tail record yields exactly the first 3 records;
                # a cut exactly on the record boundary is simply a clean log.
                assert [r.data["n"] for r in result.records] == [0, 1, 2]
                assert result.torn_tail == (cut > prefix_len)
                assert result.valid_length == prefix_len
                assert result.bytes_dropped == cut - prefix_len

    def test_checksum_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "w.log"
        records = [encode_record(i + 1, {"n": i}) for i in range(3)]
        blob = bytearray(b"".join(records))
        # Flip one payload byte inside the *middle* record.
        offset = len(records[0]) + len(records[1]) - 1
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        result = read_wal(path)
        # Replay stops cleanly before the corrupt record; later intact
        # records are unreachable (the log has no trusted resync point).
        assert [r.data["n"] for r in result.records] == [0]
        assert result.torn_tail


# ---------------------------------------------------------------------------
# Database round trips
# ---------------------------------------------------------------------------


class TestDatabaseDurability:
    def test_wal_replay_round_trip(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score FLOAT)")
            db.execute("CREATE INDEX t_score ON t (score)")
            db.insert_rows(
                "t", [{"id": i, "name": f"n{i}", "score": float(i % 5)} for i in range(40)]
            )
            db.execute("UPDATE t SET name = 'renamed' WHERE id = 7")
            db.execute("DELETE FROM t WHERE score = 3.0")
            db.execute("ALTER TABLE t ADD COLUMN tag TEXT")
            db.execute("UPDATE t SET tag = 'x' WHERE id = 2")
            expected = table_rows(db, "t")
        with Database.open(d) as db:
            assert db.last_recovery.wal_records_applied > 0
            assert table_rows(db, "t") == expected
            # Indexes were rebuilt, not trusted: the planner can use them.
            assert "IndexScan t (score = 2.0)" in db.explain(
                "SELECT id FROM t WHERE score = 2.0"
            ).text()
            assert sorted(db.execute("SELECT id FROM t WHERE score = 2.0").rows) == [
                (i,) for i in range(2, 40, 5)
            ]
            assert db.table("t").schema.has_column("tag")

    def test_checkpoint_truncates_wal_and_tail_replays(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d) as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(10)])
            db.checkpoint()
            assert os.path.getsize(wal_path(d)) == 0
            db.execute("INSERT INTO t VALUES (100)")
        with Database.open(d) as db:
            assert db.last_recovery.snapshot_loaded
            assert db.last_recovery.wal_records_applied == 1
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 11
            # Row ids keep advancing monotonically after recovery.
            db.execute("INSERT INTO t VALUES (101)")
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 12

    def test_row_ids_stable_across_recovery(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(5)])
            db.execute("DELETE FROM t WHERE id = 4")
            next_id = db.table("t").next_row_id
        with Database.open(d) as db:
            # A new insert must not reuse the deleted row's id.
            assert db.table("t").next_row_id == next_id

    def test_crash_between_snapshot_and_truncate_is_idempotent(self, tmp_path, monkeypatch):
        """Snapshot written, WAL not yet truncated: replay must skip by LSN."""
        d = str(tmp_path / "db")
        db = Database.open(d, wal_sync="commit")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [{"id": i} for i in range(8)])

        def die(self):
            raise OSError("killed before the log was truncated")

        # checkpoint() publishes the snapshot, then dies at the truncation step.
        with monkeypatch.context() as patch:
            patch.setattr(WalWriter, "truncate_log", die)
            with pytest.raises(OSError, match="killed"):
                db.checkpoint()
        db.close()
        assert os.path.getsize(wal_path(d)) > 0  # log still holds everything
        with Database.open(d) as db:
            assert db.last_recovery.snapshot_loaded
            assert db.last_recovery.wal_records_applied == 0
            assert db.last_recovery.wal_records_skipped > 0
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 8

    def test_stale_snapshot_tmp_is_ignored(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.execute("INSERT INTO t VALUES (1)")
            db.checkpoint()
            db.execute("INSERT INTO t VALUES (2)")
        # A checkpoint that died before its atomic rename leaves a .tmp file.
        with open(snapshot_path(d) + SNAPSHOT_TMP_SUFFIX, "wb") as handle:
            handle.write(b"garbage half-written snapshot")
        with Database.open(d) as db:
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_corrupt_published_snapshot_raises(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d) as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.execute("INSERT INTO t VALUES (1)")
            db.checkpoint()
        with open(snapshot_path(d), "r+b") as handle:
            handle.seek(os.path.getsize(snapshot_path(d)) // 2)
            handle.write(b"\xff\xff\xff")
        with pytest.raises(DurabilityError, match="integrity"):
            Database.open(d)
        # The flock must not leak when open() fails mid-recovery: a retry
        # hits the same integrity error, not an "already open" lock error.
        with pytest.raises(DurabilityError, match="integrity"):
            Database.open(d)

    @pytest.mark.parametrize("declared", [1, 4])
    def test_snapshot_of_another_format_raises(self, tmp_path, declared):
        """An intact file (valid header, length and CRC) that declares a
        format this engine does not write is refused, not read as its own."""
        d = str(tmp_path / "db")
        with Database.open(d) as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.execute("INSERT INTO t VALUES (1)")
            db.checkpoint()
        with open(snapshot_path(d), "rb") as handle:
            _, body = handle.read().split(b"\n", 1)
        payload = json.loads(body)
        assert payload["format"] == 3
        payload["format"] = declared
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        with open(snapshot_path(d), "wb") as handle:
            handle.write(
                f"REPRO-SNAPSHOT v{declared} crc={zlib.crc32(body):08x} len={len(body)}\n".encode()
            )
            handle.write(body)
        with pytest.raises(DurabilityError, match=f"format {declared}"):
            Database.open(d)

    def test_sync_off_survives_clean_close(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(20)])
            assert db.wal_stats().syncs == 0
        with Database.open(d) as db:
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 20

    def test_group_commit_batches_under_batch_policy(self, tmp_path):
        d = str(tmp_path / "db")
        group = DEFAULT_GROUP_SIZE
        with Database.open(d, wal_sync="batch") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            first = group + 36
            db.insert_rows("t", [{"id": i} for i in range(first)])
            stats = db.wal_stats()
            # create_table + one insert_many frame standing for more row
            # mutations than a group; the group-commit threshold counts the
            # mutations, so the batch (never split) is flushed by its own
            # append.
            assert (stats.records, stats.row_mutations) == (2, first + 1)
            assert (stats.flushes, stats.max_batch_records) == (1, 2)
            assert unflushed_mutations(db) == 0
            # Row-at-a-time appends still group: a flush every `group`
            # mutations, never `group` or more acknowledged ones waiting.
            singles = 2 * group + group // 2
            for i in range(first, first + singles):
                db.insert_rows("t", [{"id": i}])
                assert unflushed_mutations(db) < group
            assert (stats.records, stats.row_mutations) == (
                2 + singles,
                first + 1 + singles,
            )
            assert stats.flushes == 1 + singles // group
            assert stats.max_batch_records == group
            assert stats.avg_batch_records > 1.0
            # ... whatever the mix of batch sizes.
            start = first + singles
            for size in (5, group - 1, 3, group + 4, 1):
                db.insert_rows("t", [{"id": start + i} for i in range(size)])
                start += size
                assert unflushed_mutations(db) < group
        # commit policy syncs once per record instead: a batch is one fsync.
        d2 = str(tmp_path / "db2")
        with Database.open(d2, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(10)])
            stats = db.wal_stats()
            assert stats.syncs == stats.records == 2
            assert stats.row_mutations == 11

    def test_flush_wal_makes_the_pending_group_durable(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="batch") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.flush_wal()
            assert 5 < DEFAULT_GROUP_SIZE  # the five rows wait for a flush
            for i in range(5):
                db.insert_rows("t", [{"id": i}])
            assert unflushed_mutations(db) == 5
            # What a crash now would leave behind: the table and no rows.
            shutil.copytree(d, str(tmp_path / "crash-before"))
            db.flush_wal()
            assert unflushed_mutations(db) == 0
            shutil.copytree(d, str(tmp_path / "crash-after"))
        with Database.open(str(tmp_path / "crash-before")) as recovered:
            assert table_rows(recovered, "t") == []
        with Database.open(str(tmp_path / "crash-after")) as recovered:
            assert table_rows(recovered, "t") == [(i,) for i in range(5)]
        Database().flush_wal()  # in-memory: nothing to flush

    def test_auto_checkpoint_interval(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off", checkpoint_interval=50) as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            for i in range(120):
                db.execute(f"INSERT INTO t VALUES ({i})")
            stats = db.wal_stats()
            assert stats.checkpoints >= 2  # every ~50 logged records
            assert stats.records_since_checkpoint < 50
            assert os.path.exists(snapshot_path(d))
        # A bulk insert_rows checks the interval once at the end of the batch.
        d2 = str(tmp_path / "db2")
        with Database.open(d2, wal_sync="off", checkpoint_interval=50) as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(120)])
            assert db.wal_stats().checkpoints == 1

    def test_in_memory_database_has_no_wal(self):
        db = Database()
        assert not db.is_durable
        assert db.wal_stats() is None
        with pytest.raises(DurabilityError, match="durable"):
            db.checkpoint()

    def test_case_only_table_rename_survives(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.execute("INSERT INTO t VALUES (1)")
            db.execute("ALTER TABLE t RENAME TO T")
            assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1
        with Database.open(d) as db:
            assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1

    def test_rename_onto_existing_table_raises(self, tmp_path):
        from repro.errors import CatalogError

        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE a (x INTEGER)")
            db.execute("CREATE TABLE b (y INTEGER)")
            db.execute("INSERT INTO b VALUES (7)")
            with pytest.raises(CatalogError, match="already exists"):
                db.execute("ALTER TABLE a RENAME TO b")
            # The collision was rejected *before* the WAL append: b intact.
            assert db.execute("SELECT y FROM b").scalar() == 7
        with Database.open(d) as db:
            assert db.execute("SELECT y FROM b").scalar() == 7
            assert db.has_table("a")

    def test_recovered_log_counts_against_checkpoint_interval(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            for i in range(80):
                db.execute(f"INSERT INTO t VALUES ({i})")
        # Reopen with an interval the *existing* log already exceeds: the
        # open itself checkpoints, so a crash-reopen loop that writes fewer
        # than `interval` new records per life cannot grow the WAL forever.
        with Database.open(d, wal_sync="off", checkpoint_interval=50) as db:
            assert db.wal_stats().checkpoints >= 1
            assert os.path.getsize(wal_path(d)) == 0
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 80

    def test_failed_wal_append_rolls_back_the_mutation(self, tmp_path):
        """A mutation that cannot be logged must not stay visible in memory:
        recovery would rebuild a state without it, and later logged ops on
        the phantom row would silently no-op during replay."""
        d = str(tmp_path / "db")
        db = Database.open(d, wal_sync="commit")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.insert_rows("t", [{"id": 1, "v": 10}, {"id": 2, "v": 20}])
        table = db.table("t")
        # Simulate ENOSPC/EIO at the append layer.
        def boom(record):
            raise DurabilityError("disk full")
        table.wal_emit = boom
        with pytest.raises(DurabilityError):
            table.insert({"id": 3, "v": 30})
        with pytest.raises(DurabilityError):  # a batch that spills onto a second page
            db.insert_rows("t", [{"id": i, "v": i} for i in range(3, 203)])
        assert (len(table), table.page_count, table.next_row_id) == (2, 1, 2)
        with pytest.raises(DurabilityError):
            table.update(0, {"v": 11})
        with pytest.raises(DurabilityError):
            table.delete(1)
        with pytest.raises(DurabilityError):
            table.create_index("t_v", "v")
        table.wal_emit = db._wal_append
        assert sorted(r[0] for r in table.rows()) == [1, 2]
        assert table.get(0) == (1, 10)  # update rolled back
        assert table.get(1) == (2, 20)  # delete rolled back
        assert table.index_for("v") is None  # index build rolled back
        # The primary-key index still agrees with the heap.
        assert db.execute("SELECT v FROM t WHERE id = 2").scalar() == 20
        db.close()
        with Database.open(d) as recovered:
            assert sorted(r[0] for r in recovered.table("t").rows()) == [1, 2]

    def test_failed_wal_append_never_applies_ddl(self, tmp_path):
        """DDL validates before logging: an append failure must leave neither
        a phantom column in memory (later inserts would log rows recovery
        cannot replay) nor a phantom table."""
        d = str(tmp_path / "db")
        db = Database.open(d, wal_sync="commit")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")

        def boom(record):
            raise DurabilityError("disk full")

        original_append = db._wal.append
        db._wal.append = boom
        with pytest.raises(DurabilityError):
            db.execute("ALTER TABLE t ADD COLUMN extra TEXT")
        with pytest.raises(DurabilityError):
            db.execute("CREATE TABLE u (id INTEGER)")
        with pytest.raises(DurabilityError):
            db.execute("DROP TABLE t")
        db._wal.append = original_append
        assert not db.table("t").schema.has_column("extra")
        assert not db.has_table("u")
        # The surviving state is fully loggable: this insert replays cleanly.
        db.execute("INSERT INTO t VALUES (2)")
        db.close()
        with Database.open(d) as recovered:
            assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 2
            assert not recovered.table("t").schema.has_column("extra")

    def test_failed_multi_row_insert_is_not_logged(self, tmp_path):
        """The rows before the rejected one are neither applied nor in the
        WAL: a reopen must not bring a prefix of the statement back."""
        from repro.errors import IntegrityError, SchemaError

        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
            db.execute("INSERT INTO t VALUES (0, 'kept')")
            logged = os.path.getsize(wal_path(d))
            with pytest.raises(IntegrityError):
                db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (1, 'dup')")
            with pytest.raises(SchemaError):
                db.insert_rows("t", [{"id": 5}, {"id": "oops"}])
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1
            assert os.path.getsize(wal_path(d)) == logged
        with Database.open(d) as db:
            assert table_rows(db, "t") == [(0, "kept")]
            assert db.table("t").next_row_id == 1
            # The rejected keys are free: the corrected statement goes in whole.
            assert db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").rowcount == 2

    def test_log_written_before_insert_many_still_replays(self, tmp_path):
        """A ``data_dir`` left by the commit before batching (one ``insert``
        record per row; payloads copied from a log it wrote) opens, verifies
        and takes new writes."""
        d = tmp_path / "db"
        d.mkdir()
        column = {"not_null": False, "primary_key": False, "unique": False}
        records = [
            {
                "op": "create_table",
                "schema": {
                    "name": "t",
                    "columns": [
                        {"name": "id", "type": "INTEGER", **column, "not_null": True, "primary_key": True},
                        {"name": "name", "type": "TEXT", **column},
                        {"name": "score", "type": "FLOAT", **column},
                    ],
                },
                "ts": 35660.488509913,
            },
            {"op": "create_index", "tbl": "t", "name": "t_score", "column": "score",
             "unique": False, "kind": "hash"},
            {"op": "insert", "tbl": "t", "rid": 0, "row": {"id": 1, "name": "a", "score": 0.5}},
            {"op": "insert", "tbl": "t", "rid": 1, "row": {"id": 2, "name": "β", "score": None}},
            {"op": "insert", "tbl": "t", "rid": 2, "row": {"id": 3, "name": "c", "score": 2.0}},
            {"op": "update", "tbl": "t", "rid": 1, "set": {"name": "renamed"}},
            {"op": "delete", "tbl": "t", "rid": 0},
        ]
        with open(wal_path(d), "wb") as handle:
            for lsn, record in enumerate(records, start=1):
                handle.write(encode_record(lsn, record))
        with Database.open(str(d), wal_sync="commit", checkpoint_interval=7) as db:
            report = db.last_recovery
            assert (report.wal_records_applied, report.wal_mutations_scanned) == (7, 7)
            assert not report.torn_tail
            # Seven recovered mutations reach the interval: checkpointed at open.
            assert db.wal_stats().checkpoints == 1
            assert list(db.table("t").scan()) == [(1, (2, "renamed", None)), (2, (3, "c", 2.0))]
            assert db.table("t").next_row_id == 3
            assert db.table("t").lookup("id", 3) == [(3, "c", 2.0)]
            assert "IndexScan t (score = 2.0)" in db.explain(
                "SELECT id FROM t WHERE score = 2.0"
            ).text()
            db.insert_rows("t", [{"id": 4, "name": "d"}, {"id": 5, "name": "e"}])
            assert [r.data["op"] for r in read_wal(wal_path(d)).records] == ["insert_many"]
        with Database.open(str(d)) as db:
            assert [row[0] for row in table_rows(db, "t")] == [2, 3, 4, 5]

    def test_recovered_batches_count_their_rows_against_the_interval(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(80)])
        # Two frames, 81 row mutations: the backlog a reopen must count.
        with Database.open(d, wal_sync="off", checkpoint_interval=50) as db:
            report = db.last_recovery
            assert (report.wal_records_scanned, report.wal_mutations_scanned) == (2, 81)
            assert db.wal_stats().checkpoints == 1
            assert os.path.getsize(wal_path(d)) == 0
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 80

    def test_oversized_record_is_refused(self, tmp_path, monkeypatch):
        """A frame grows with its batch; past ``MAX_RECORD_BYTES`` the reader
        would take it for a corrupt tail, so the writer must not write it."""
        from repro.storage import wal

        monkeypatch.setattr(wal, "MAX_RECORD_BYTES", 256)
        assert encode_record(1, {"op": "insert_many", "rows": [[0]] * 10})
        with pytest.raises(DurabilityError, match="exceeds"):
            encode_record(1, {"op": "insert_many", "rows": [[0]] * 200})
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            before = (db.wal_stats().records, db.wal_stats().last_lsn, os.path.getsize(wal_path(d)))
            with pytest.raises(DurabilityError, match="exceeds"):
                db.insert_rows("t", [{"id": i} for i in range(200)])
            stats = db.wal_stats()
            assert (stats.records, stats.last_lsn, os.path.getsize(wal_path(d))) == before
            assert len(db.table("t")) == 0 and db.table("t").page_count == 0
            for start in range(0, 200, 20):  # the same rows in smaller batches fit
                db.insert_rows("t", [{"id": i} for i in range(start, start + 20)])
        with Database.open(d) as db:
            assert not db.last_recovery.torn_tail
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 200


# ---------------------------------------------------------------------------
# Lifecycle hygiene: locks, idempotent close, closed-database errors
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_double_open_raises(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d)
        try:
            with pytest.raises(DurabilityError, match="already open"):
                Database.open(d)
        finally:
            db.close()
        # After close the directory can be reopened.
        Database.open(d).close()

    def test_lock_file_from_dead_process_never_blocks(self, tmp_path):
        d = str(tmp_path / "db")
        Database.open(d).close()
        # The LOCK file persists between runs (only the flock matters, and
        # the kernel drops that the instant its owner dies — even SIGKILL).
        # A leftover file, whatever it contains, must not block reopening.
        assert os.path.exists(os.path.join(d, LOCK_FILE_NAME))
        with open(os.path.join(d, LOCK_FILE_NAME), "w") as handle:
            handle.write("99999999")
        with Database.open(d) as db:
            assert db.is_durable

    def test_concurrent_openers_get_exactly_one_owner(self, tmp_path):
        import multiprocessing as mp

        def contender(d, barrier, results, i):
            from repro.errors import DurabilityError
            from repro.storage.database import Database as Db

            barrier.wait()
            try:
                db = Db.open(d)
                import time

                time.sleep(0.2)
                db.close()
                results[i] = "won"
            except DurabilityError:
                results[i] = "blocked"

        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        d = str(tmp_path / "db")
        Database.open(d).close()
        barrier = ctx.Barrier(4)
        with ctx.Manager() as manager:
            results = manager.dict()
            processes = [
                ctx.Process(target=contender, args=(d, barrier, results, i))
                for i in range(4)
            ]
            for process in processes:
                process.start()
            for process in processes:
                process.join()
            outcomes = sorted(results.values())
        assert outcomes.count("won") == 1, outcomes

    def test_close_is_idempotent(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        db.close()
        db.close()
        assert db.closed

    def test_operations_on_closed_database_raise(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        db.execute("CREATE TABLE t (id INTEGER)")
        db.close()
        with pytest.raises(DurabilityError, match="closed"):
            db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(DurabilityError, match="closed"):
            db.insert_rows("t", [{"id": 1}])
        with pytest.raises(DurabilityError, match="closed"):
            db.checkpoint()
        with pytest.raises(DurabilityError, match="closed"):
            db.create_table(db.table("t").schema.renamed("u"))

    def test_closed_in_memory_database_raises_too(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER)")
        db.close()
        with pytest.raises(DurabilityError, match="closed"):
            db.execute("SELECT 1")


# ---------------------------------------------------------------------------
# Crash-at-any-point property: randomized workload, arbitrary truncation
# ---------------------------------------------------------------------------


#: The table of the crash property: a unique column and a hash index.
_PROPERTY_DDL = (
    "CREATE TABLE t (k INTEGER UNIQUE, v INTEGER)",
    "CREATE INDEX t_v ON t (v)",
)


def _fingerprint(db: Database):
    """What recovery must bring back besides the rows: row ids, pages,
    counters and what every index answers."""
    table = db.table("t")
    rows = [(row_id, table.schema.as_dict(row)) for row_id, row in table.scan()]
    return (
        [(row_id, row["k"], row["v"]) for row_id, row in rows],
        (len(table), table.page_count, table.next_row_id, table.version),
        [
            (index.name, index.distinct_values())
            + tuple(sorted(index.lookup(row[index.column])) for _, row in rows)
            for index in table.index_definitions()
        ],
    )


def _apply_ops(db: Database, ops, lengths, states):
    """Run one statement (or one ``insert_rows`` batch) per op, recording the
    WAL length and the expected table after each one (``wal_sync='commit'``
    flushes per record).  A state is ``(model rows, engine fingerprint)``."""
    path = wal_path(db.data_dir)
    table = db.table("t")
    shadow: dict[int, tuple] = {}
    next_key = 0
    for op in ops:
        kind = op[0]
        if kind == "insert":
            value = op[1]
            db.execute(f"INSERT INTO t (k, v) VALUES ({next_key}, {value})")
            shadow[next_key] = (next_key, value)
            next_key += 1
        elif kind == "insert_many":
            size = op[1]
            if size == "cross":  # as many rows as end two slots into the next heap page
                size = table.page_slots - table.next_row_id % table.page_slots + 2
            batch = [{"k": next_key + i, "v": (op[2] + i) % 7} for i in range(size)]
            assert db.insert_rows("t", batch) == size
            shadow.update({row["k"]: (row["k"], row["v"]) for row in batch})
            next_key += size
        elif kind == "update" and shadow:
            key = sorted(shadow)[op[1] % len(shadow)]
            value = op[2]
            db.execute(f"UPDATE t SET v = {value} WHERE k = {key}")
            shadow[key] = (key, value)
        elif kind == "delete" and shadow:
            key = sorted(shadow)[op[1] % len(shadow)]
            db.execute(f"DELETE FROM t WHERE k = {key}")
            del shadow[key]
        else:
            continue  # update/delete against an empty table: no statement ran
        lengths.append(os.path.getsize(path))
        states.append((sorted(shadow.values()), _fingerprint(db)))


def _assert_recovered(recovered: Database, state, context: str = "") -> None:
    model_rows, fingerprint = state
    assert table_rows(recovered, "t") == model_rows, context
    assert _fingerprint(recovered) == fingerprint, context


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(-100, 100)),
        st.tuples(st.just("insert_many"), st.sampled_from((0, 1, 2, "cross")), st.integers(0, 6)),
        st.tuples(st.just("update"), st.integers(0, 50), st.integers(-100, 100)),
        st.tuples(st.just("delete"), st.integers(0, 50)),
    ),
    min_size=1,
    max_size=25,
)


class TestCrashRecoveryProperty:
    @given(ops=_ops, cut_fraction=st.floats(0.0, 1.0))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncated_wal_recovers_exactly_committed_prefix(
        self, ops, cut_fraction, tmp_path_factory
    ):
        d = str(tmp_path_factory.mktemp("crash") / "db")
        lengths: list[int] = []
        states: list[tuple] = []
        db = Database.open(d, wal_sync="commit")
        for statement in _PROPERTY_DDL:
            db.execute(statement)
        base_length = os.path.getsize(wal_path(d))
        lengths.append(base_length)
        states.append(([], _fingerprint(db)))
        _apply_ops(db, ops, lengths, states)
        total = os.path.getsize(wal_path(d))
        db.close()

        # A clean close/reopen equals the model: rows, row ids, counters, indexes.
        with Database.open(d) as reopened:
            _assert_recovered(reopened, states[-1])

        # Simulate SIGKILL at an arbitrary moment: cut the log mid-write.
        cut = base_length + int((total - base_length) * cut_fraction)
        with open(wal_path(d), "r+b") as handle:
            handle.truncate(cut)

        # The expected state is the last operation wholly inside the cut — a
        # batch is one record, so it is all in or all out.
        survivors = max(i for i, length in enumerate(lengths) if length <= cut)
        with Database.open(d) as recovered:
            _assert_recovered(recovered, states[survivors])
            # Recovery is stable: the recovered database accepts new writes.
            recovered.execute("INSERT INTO t (k, v) VALUES (9999, 1)")
            assert recovered.execute(
                "SELECT COUNT(*) FROM t WHERE k = 9999"
            ).scalar() == 1

    @pytest.mark.parametrize(
        "tail",
        [
            ("delete", 0),
            ("insert", 7),
            ("insert_many", 1, 0),
            ("insert_many", 2, 3),
            ("insert_many", "cross", 5),  # 126 rows so far: this batch spills onto page 2
        ],
        ids=lambda op: "-".join(map(str, op)),
    )
    def test_every_byte_boundary_of_tail_statement(self, tmp_path, tail):
        """Exhaustive version of the property for the final record."""
        d = str(tmp_path / "db")
        db = Database.open(d, wal_sync="commit")
        for statement in _PROPERTY_DDL:
            db.execute(statement)
        lengths = [os.path.getsize(wal_path(d))]
        states: list[tuple] = [([], _fingerprint(db))]
        _apply_ops(
            db,
            [("insert_many", 118, 0)]
            + [("insert", i) for i in range(6)]
            + [("insert_many", 2, 1), ("insert_many", 0, 0), ("update", 2, 42), tail],
            lengths,
            states,
        )
        blob = open(wal_path(d), "rb").read()
        assert db.table("t").page_count == (2 if tail[1] == "cross" else 1)
        db.close()
        for cut in range(lengths[-2], lengths[-1] + 1):
            with open(wal_path(d), "wb") as handle:
                handle.write(blob[:cut])
            expected = states[-1] if cut == lengths[-1] else states[-2]
            with Database.open(d) as recovered:
                _assert_recovered(recovered, expected, f"cut at byte {cut}")


# ---------------------------------------------------------------------------
# Positional heap pages across schema changes, checkpoints and reopen
# ---------------------------------------------------------------------------


#: Values a column of each type takes in the round-trip property (small
#: domains, so index lookups find several rows).
_TYPED_VALUES = {
    "INTEGER": st.none() | st.integers(-3, 3),
    "FLOAT": st.none() | st.sampled_from([-1.5, 0.0, 2.25, 1e10]),
    "TEXT": st.none() | st.sampled_from(["", "x", "y", "\u00fcn\u00ef"]),
}


def _check_against_model(db: Database, columns: dict, model: dict, indexed: set) -> None:
    """``t`` reads like the model: ``scan``, ``get``, every index and
    ``statistics()``.  ``model`` maps row id to a row dict in column order."""
    table = db.table("t")
    assert table.schema.column_names == list(columns)
    named = table.schema.as_dict
    assert [(row_id, named(row)) for row_id, row in table.scan()] == sorted(model.items())
    for row_id, row in model.items():
        assert named(table.get(row_id)) == row
    assert {(index.column, index.kind) for index in table.index_definitions()} == indexed
    for index in table.index_definitions():
        expected: dict = {}
        for row_id, row in model.items():
            if row[index.column] is not None:
                expected.setdefault(row[index.column], set()).add(row_id)
        for value, row_ids in expected.items():
            assert index.lookup(value) == row_ids
            assert [named(row) for row in table.lookup(index.column, value)] == [
                model[row_id] for row_id in sorted(row_ids)
            ]
    assert table.statistics() == TableStatistics.compute(
        "t", [tuple(model[row_id].values()) for row_id in sorted(model)], list(columns)
    )


class TestPositionalHeapRoundTrip:
    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_schema_changes_survive_checkpoint_and_reopen(self, data, tmp_path_factory):
        """Random rows (NULLs included) and random ADD / DROP / RENAME COLUMN
        steps; after each step a checkpoint, a close and a reopen, and the
        table still equals a dict model.  RENAME COLUMN dirties no page."""
        d = str(tmp_path_factory.mktemp("heap") / "db")
        db = Database.open(d, wal_sync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
        db.execute("CREATE INDEX t_a ON t (a)")
        db.execute("CREATE INDEX t_b ON t (b)")
        columns = {"id": "INTEGER", "a": "INTEGER", "b": "TEXT"}
        indexed = {("id", "hash"), ("a", "hash"), ("b", "hash")}
        model: dict[int, dict] = {}
        fresh = 0
        try:
            for _ in range(data.draw(st.integers(1, 6), label="steps")):
                step = data.draw(
                    st.sampled_from(["insert", "insert", "add", "drop", "rename", "update", "delete"]),
                    label="step",
                )
                table = db.table("t")
                id_column, *others = columns
                if step == "insert":
                    size = data.draw(st.integers(1, 150), label="rows")
                    first = table.next_row_id
                    rows = [
                        {id_column: first + i}
                        | {name: data.draw(_TYPED_VALUES[columns[name]]) for name in others}
                        for i in range(size)
                    ]
                    db.insert_rows("t", rows)
                    model.update(zip(range(first, first + size), rows))
                elif step == "add":
                    name, kind = f"c{fresh}", data.draw(st.sampled_from(sorted(_TYPED_VALUES)))
                    fresh += 1
                    db.execute(f"ALTER TABLE t ADD COLUMN {name} {kind}")
                    columns[name] = kind
                    for row in model.values():
                        row[name] = None
                elif step == "drop" and others:
                    name = data.draw(st.sampled_from(others))
                    db.execute(f"ALTER TABLE t DROP COLUMN {name}")
                    del columns[name]
                    indexed = {entry for entry in indexed if entry[0] != name}
                    for row in model.values():
                        del row[name]
                elif step == "rename":
                    old, new = data.draw(st.sampled_from(list(columns))), f"r{fresh}"
                    fresh += 1
                    dirty = db.buffer_stats().dirty
                    db.execute(f"ALTER TABLE t RENAME COLUMN {old} TO {new}")
                    assert db.buffer_stats().dirty == dirty  # names live in the schema only
                    columns = {new if name == old else name: kind for name, kind in columns.items()}
                    indexed = {(new if name == old else name, kind) for name, kind in indexed}
                    for row_id, row in model.items():
                        model[row_id] = {new if name == old else name: v for name, v in row.items()}
                elif step == "update" and model and others:
                    row_id = data.draw(st.sampled_from(sorted(model)))
                    name = data.draw(st.sampled_from(others))
                    value = data.draw(_TYPED_VALUES[columns[name]])
                    table.update(row_id, {name: value})
                    model[row_id][name] = value
                elif step == "delete" and model:
                    row_id = data.draw(st.sampled_from(sorted(model)))
                    table.delete(row_id)
                    del model[row_id]
                db.checkpoint()
                db.close()
                db = Database.open(d, wal_sync="off")
                assert db.last_recovery.snapshot_loaded
                _check_against_model(db, columns, model, indexed)
        finally:
            db.close()

    def test_wal_replay_builds_no_named_rows(self, tmp_path, monkeypatch):
        """An ``insert_many`` frame whose ``cols`` are the table's columns
        replays its value lists as they are: no dict per replayed row."""
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score FLOAT)")
            db.insert_rows(
                "t",
                [{"id": i, "name": f"n{i}", "score": None if i % 3 else i / 2} for i in range(300)],
            )
        calls: list[str] = []
        for method in ("coerce_rows", "as_dict"):
            original = getattr(TableSchema, method)

            def counted(self, *args, _original=original, _method=method):
                calls.append(_method)
                return _original(self, *args)

            monkeypatch.setattr(TableSchema, method, counted)
        with Database.open(d) as db:
            assert db.last_recovery.wal_records_applied == 2
            assert calls == []
            assert len(db.table("t")) == 300
            assert db.table("t").get(7) == (7, "n7", None)
            assert db.table("t").get(9) == (9, "n9", 4.5)

    @pytest.mark.parametrize(
        "cols",
        [["name", "id"], ["id"], ["id", "name", "extra"], ["ID", "NAME"]],
    )
    def test_insert_many_frame_with_other_columns_is_refused(self, tmp_path, cols):
        """An ``insert_many`` frame whose ``cols`` are not the table's
        columns at its point in the log (none this engine writes) raises
        ``DurabilityError`` naming the table and the LSN; no row is placed
        by guessing."""
        d = tmp_path / "db"
        d.mkdir()
        column = {"not_null": False, "primary_key": False, "unique": False}
        records = [
            {
                "op": "create_table",
                "schema": {"name": "t", "columns": [
                    {"name": "id", "type": "INTEGER", **column},
                    {"name": "name", "type": "TEXT", **column},
                ]},
                "ts": 1.0,
            },
            {"op": "insert_many", "tbl": "t", "rid": 0, "cols": cols,
             "rows": [[1, "a", None][: len(cols)], [2, "b", None][: len(cols)]]},
        ]
        with open(wal_path(d), "wb") as handle:
            for lsn, record in enumerate(records, start=1):
                handle.write(encode_record(lsn, record))
        with pytest.raises(
            DurabilityError, match=r"lsn 2 \('insert_many' on 't'\).* do not match table 't'"
        ):
            Database.open(str(d))

    def test_format_2_checkpoint_is_refused(self, tmp_path):
        """A data directory whose checkpoint declares format 2 (page rows as
        name-keyed objects) raises, naming both formats, and restores
        nothing: the files stay as they were and a retry fails the same way."""
        d = tmp_path / "db"
        d.mkdir()
        column = {"not_null": False, "primary_key": False, "unique": False}
        body = json.dumps(
            {
                "format": 2,
                "name": "db",
                "lsn": 2,
                "catalog": {"version": 1, "changes": []},
                "tables": [
                    {
                        "schema": {"name": "t", "columns": [
                            {"name": "id", "type": "INTEGER", **column},
                            {"name": "name", "type": "TEXT", **column},
                        ]},
                        "next_row_id": 1,
                        "version": 1,
                        "schema_version": 0,
                        "indexes": [],
                        "page_slots": 128,
                        "pages": [[0, 0, 1]],
                    }
                ],
            },
            separators=(",", ":"),
        ).encode("utf-8")
        snapshot = f"REPRO-SNAPSHOT v2 crc={zlib.crc32(body):08x} len={len(body)}\n".encode() + body
        (d / SNAPSHOT_FILE_NAME).write_bytes(snapshot)
        for _ in range(2):
            with pytest.raises(DurabilityError, match=r"format 2\b.*format 3\b"):
                Database.open(str(d))
            assert (d / SNAPSHOT_FILE_NAME).read_bytes() == snapshot


# ---------------------------------------------------------------------------
# Paged heap storage, buffer pool, and incremental checkpoints
# ---------------------------------------------------------------------------


class TestPagedStorage:
    def test_larger_than_pool_workload_bounded_residency(self, tmp_path):
        from repro.storage.exec_settings import ExecutionSettings

        d = str(tmp_path / "db")
        small_pool = ExecutionSettings(buffer_pool_pages=16)
        with Database.open(d, wal_sync="off", exec_settings=small_pool) as db:
            db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
            # 5000 rows at 128 slots/page is ~40 heap pages — far beyond the
            # 16-frame pool, so the workload must page in and out.
            db.insert_rows("t", [{"id": i, "v": i % 7} for i in range(5000)])
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5000
            assert db.execute("SELECT SUM(v) FROM t").scalar() == sum(
                i % 7 for i in range(5000)
            )
            rows = db.execute("SELECT id FROM t ORDER BY id DESC LIMIT 3").rows
            assert [row[0] for row in rows] == [4999, 4998, 4997]
            stats = db.buffer_stats()
            assert stats.capacity == 16
            assert stats.resident <= 16
            assert stats.evictions > 0
            assert stats.pins == 0  # no statement leaks a pin
        with Database.open(d, exec_settings=small_pool) as db:
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5000
            assert db.buffer_stats().resident <= 16

    def test_incremental_checkpoint_adopts_pages_without_row_replay(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off") as db:
            db.execute("CREATE TABLE t (id INTEGER, name TEXT)")
            db.execute("CREATE INDEX t_id ON t (id)")
            db.insert_rows("t", [{"id": i, "name": f"n{i}"} for i in range(1000)])
            db.checkpoint()
            db.execute("INSERT INTO t VALUES (1000, 'tail')")
            expected = table_rows(db, "t")
        with Database.open(d) as db:
            # The checkpoint restores heaps by adopting page chains; only
            # the one post-checkpoint statement replays from the log.
            assert db.last_recovery.snapshot_loaded
            assert db.last_recovery.wal_records_applied == 1
            assert table_rows(db, "t") == expected
            # Indexes are rebuilt from the adopted heap, not persisted.
            assert "IndexScan t (id = 15)" in db.explain(
                "SELECT name FROM t WHERE id = 15"
            ).text()
            assert db.execute("SELECT name FROM t WHERE id = 15").rows == [("n15",)]

    def test_checkpoint_cost_tracks_working_set_not_database_size(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            db.insert_rows("t", [{"id": i} for i in range(5000)])
            db.checkpoint()
            baseline = db.buffer_stats().writebacks
            # Touch a single row: the next checkpoint must flush only the one
            # dirtied heap page, not the ~40-page table.
            db.execute("UPDATE t SET id = -1 WHERE id = 17")
            db.checkpoint()
            assert db.buffer_stats().writebacks - baseline <= 2

    def test_kill_at_any_byte_after_incremental_checkpoint(self, tmp_path):
        """Exhaustive cut of the post-checkpoint WAL tail: every prefix must
        recover the checkpoint image plus exactly the committed records."""
        d = str(tmp_path / "db")
        db = Database.open(d, wal_sync="commit")
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.insert_rows("t", [{"k": i, "v": i} for i in range(300)])
        db.checkpoint()
        assert os.path.getsize(wal_path(d)) == 0
        shadow = {i: (i, i) for i in range(300)}
        lengths = [0]
        states = [sorted(shadow.values())]
        for statement, mutate in [
            ("INSERT INTO t VALUES (300, 300)", lambda s: s.update({300: (300, 300)})),
            ("UPDATE t SET v = -1 WHERE k = 5", lambda s: s.update({5: (5, -1)})),
            ("DELETE FROM t WHERE k = 7", lambda s: s.pop(7)),
        ]:
            db.execute(statement)
            mutate(shadow)
            lengths.append(os.path.getsize(wal_path(d)))
            states.append(sorted(shadow.values()))
        blob = open(wal_path(d), "rb").read()
        db.close()
        for cut in range(lengths[-1] + 1):
            with open(wal_path(d), "wb") as handle:
                handle.write(blob[:cut])
            survivors = max(i for i, length in enumerate(lengths) if length <= cut)
            with Database.open(d) as recovered:
                assert (
                    table_rows(recovered, "t") == states[survivors]
                ), f"cut at byte {cut}"

    def test_recovered_backlog_defers_checkpoint_off_statement_path(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off") as db:
            db.execute("CREATE TABLE t (id INTEGER)")
            for i in range(8):
                db.execute(f"INSERT INTO t VALUES ({i})")
        # 9 recovered records sit just under the interval: no open-time
        # checkpoint fires.
        with Database.open(d, wal_sync="off", checkpoint_interval=10) as db:
            assert db.wal_stats().checkpoints == 0
            # The 10th record crosses the interval, but 9 of the 10 are
            # recovery backlog — the statement path must not stall this
            # insert on a synchronous checkpoint.
            db.execute("INSERT INTO t VALUES (100)")
            assert db.wal_stats().checkpoints == 0
            assert os.path.getsize(wal_path(d)) > 0
            # The off-path scheduler sees the full accumulation and drains it.
            assert db.checkpoint_due
            assert db.checkpoint_if_due() is not None
            assert db.wal_stats().checkpoints == 1
            assert os.path.getsize(wal_path(d)) == 0
            assert not db.checkpoint_due
            assert db.checkpoint_if_due() is None
            assert db.execute("SELECT COUNT(*) FROM t").scalar() == 9

    def test_buffer_pool_panel_lines(self, tmp_path):
        from repro.client.workbench import Workbench

        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            panel = Workbench(cqms=cqms, user="ana").durability_panel()
            assert "database buffer pool:" in panel
            assert "query_storage buffer pool:" in panel
            assert "pages resident" in panel
            assert "hit rate" in panel


# ---------------------------------------------------------------------------
# Unlogged tables
# ---------------------------------------------------------------------------


def _unlogged_db(data_dir: str) -> Database:
    """A durable database with a logged ``t`` and an unlogged, indexed ``u``,
    each holding rows that a later update and delete touch."""
    db = Database.open(data_dir, wal_sync="commit")
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.create_table(TableSchema("u", [c for c in db.table("t").schema.columns]), unlogged=True)
    db.table("u").create_index("u_a", "a")
    for name in ("t", "u"):
        db.insert_rows(name, [{"a": i, "b": f"r{i}"} for i in range(5)])
        db.table(name).update(0, {"b": "changed"})
        db.table(name).delete(1)
    return db


class TestUnloggedTables:
    def test_no_wal_frame_carries_an_unlogged_row(self, tmp_path):
        d = str(tmp_path / "db")
        with _unlogged_db(d):
            pass
        frames = [r.data for r in read_wal(wal_path(d)).records]
        named = [f for f in frames if f.get("tbl") == "u" or f.get("schema", {}).get("name") == "u"]
        assert [f["op"] for f in named] == ["create_table", "create_index"]
        assert named[0]["unlogged"] is True
        logged = {f["op"] for f in frames if f.get("tbl") == "t"}
        assert logged == {"insert_many", "update", "delete"}

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_recovery_leaves_it_empty_with_its_indexes(self, tmp_path, checkpoint):
        """From the WAL alone or from a checkpoint plus its tail, the logged
        table comes back whole and the unlogged one empty, still unlogged
        and indexed; the live rows survive the checkpoint itself."""
        d = str(tmp_path / "db")
        with _unlogged_db(d) as db:
            if checkpoint:
                db.checkpoint()
                assert table_rows(db, "u") == table_rows(db, "t")
                db.insert_rows("u", [{"a": 9, "b": "tail"}])
            expected = table_rows(db, "t")
        with Database.open(d) as db:
            assert table_rows(db, "t") == expected
            table = db.table("u")
            assert len(table) == 0 and table.unlogged
            assert table.index_for("a").name == "u_a"
            assert "IndexScan u (a = " in db.explain("SELECT b FROM u WHERE a = 3").text()
            db.insert_rows("u", [{"a": 3, "b": "again"}])
            assert db.execute("SELECT b FROM u WHERE a = 3").rows == [("again",)]
        with Database.open(d) as db:
            assert len(db.table("u")) == 0 and db.table("u").index_for("a") is not None


# ---------------------------------------------------------------------------
# Durable Query Storage (CQMS integration)
# ---------------------------------------------------------------------------


class TestDurableQueryStore:
    def test_query_log_survives_restart(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("nodira", group="uw-db")
            cqms.submit("nodira", "SELECT * FROM WaterTemp T WHERE T.temp < 18")
            cqms.submit("nodira", "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake")
            cqms.annotate("nodira", 1, "cold lakes")
            count = len(cqms.store)

        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("nodira", group="uw-db")
            assert len(cqms.store) == count
            record = cqms.store.get(1)
            assert record.text == "SELECT * FROM WaterTemp T WHERE T.temp < 18"
            assert record.annotations == ["cold lakes"]
            # Features come back from the Queries row, so meta-search works
            # immediately.
            assert record.features is not None
            hits = cqms.search_keyword("nodira", ["watertemp"])
            assert [r.qid for r in hits] == [1, 2]
            # New submissions continue the qid sequence.
            execution = cqms.submit("nodira", "SELECT COUNT(*) FROM WaterTemp")
            assert execution.record.qid == count + 1

    def test_feature_relations_survive_restart(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d, wal_sync="commit")) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT lake FROM WaterTemp WHERE temp > 20")
            before = cqms.store.execute_meta_sql(
                "SELECT qid, relName FROM DataSources"
            ).rows
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            after = cqms.store.execute_meta_sql(
                "SELECT qid, relName FROM DataSources"
            ).rows
            assert sorted(after) == sorted(before)
            stats = cqms.durability_stats()
            assert stats["database"] is None  # user DBMS stays in-memory
            assert stats["query_storage"] is not None

    def test_a_reopen_parses_nothing(self, tmp_path, monkeypatch):
        """Each ``Queries`` row carries its record's artefacts, so a reopen
        reads them back instead of parsing the log; records whose features
        read alike share one object."""
        from repro.core import records
        from repro.sql import features

        texts = [f"SELECT * FROM WaterTemp T WHERE T.temp < {15 + i}" for i in range(4)]
        texts.append("SELECT L.name FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id")
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            for i in range(30):
                cqms.submit("ana", texts[i % 5])
            before = {
                r.qid: (r.text, r.features, r.canonical_text, r.template_text)
                for r in cqms.store.all_queries()
            }
        assert len(before) == 30

        parsed = []

        def counting_parse(sql):
            parsed.append(sql)
            return parse(sql)

        monkeypatch.setattr(records, "parse", counting_parse)
        monkeypatch.setattr(features, "parse", counting_parse)
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            assert parsed == []
            after = {
                r.qid: (r.text, r.features, r.canonical_text, r.template_text)
                for r in cqms.store.all_queries()
            }
            assert after == before
            assert cqms.store.get(1).features is cqms.store.get(6).features

    @pytest.mark.parametrize("mode", ["features", "text"])
    def test_restart_does_not_change_what_a_record_says(self, tmp_path, mode):
        """Failed, unparseable and valid statements read the same — outcome,
        features or their absence, canonical and template text — before
        ``close()`` and after reopening, in both logging modes."""

        def said(cqms):
            return (
                [
                    (
                        r.qid,
                        r.statement_kind,
                        r.runtime.succeeded,
                        r.runtime.result_cardinality,
                        r.features is None,
                        r.canonical_text,
                        r.template_text,
                    )
                    for r in cqms.store.all_queries()
                ],
                cqms.store.popularity(),
            )

        config = CQMSConfig(data_dir=str(tmp_path / "store"), profiling_mode=mode)
        db = build_database("limnology", scale=1)
        with CQMS(db, config=config) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELEC temp FROM WaterTemp")
            cqms.submit("ana", "SELECT temp FROM WaterTemp WHERE temp < 18")
            cqms.submit("ana", "SELECT nope FROM WaterTemp")
            before = said(cqms)
        records, _ = before
        assert [succeeded for _, _, succeeded, *_ in records] == [False, True, False]
        assert all(no_features for *_, no_features, _, _ in records) == (mode == "text")
        with CQMS(db, config=config) as cqms:
            assert said(cqms) == before

    def test_repaired_record_reads_like_a_fresh_submit(self, tmp_path):
        config = CQMSConfig(data_dir=str(tmp_path / "store"))
        db = build_database("limnology", scale=1)
        with CQMS(db, config=config) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT T.temp FROM WaterTemp T WHERE T.depth < 10")
            db.execute("ALTER TABLE WaterTemp RENAME COLUMN depth TO depth_m")
            assert cqms.run_maintenance().repaired == [1]
            repaired = cqms.store.get(1)
            fresh = cqms.submit("ana", repaired.text).record
            artefacts = (
                repaired.statement_kind,
                repaired.features,
                repaired.canonical_text,
                repaired.template_text,
            )
            assert "depth_m" in repaired.canonical_text
            assert artefacts == (
                fresh.statement_kind,
                fresh.features,
                fresh.canonical_text,
                fresh.template_text,
            )
        with CQMS(db, config=config) as cqms:
            reopened = cqms.store.get(1)
            assert artefacts == (
                reopened.statement_kind,
                reopened.features,
                reopened.canonical_text,
                reopened.template_text,
            )

    def test_visibility_survives_restart(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.register_user("zoe", group="other")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            cqms.submit("ana", "SELECT * FROM Lakes")
            assert cqms.search_substring("zoe", "SELECT") == []
            cqms.admin().set_visibility("ana", 1, "public")
            assert [r.qid for r in cqms.search_substring("zoe", "SELECT")] == [1]
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.register_user("zoe", group="other")
            assert cqms.store.get(1).visibility == "public"
            assert cqms.store.get(2).visibility == "group"
            assert [r.qid for r in cqms.search_substring("zoe", "SELECT")] == [1]

    def test_session_membership_restored_from_time_windows(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            for i in range(3):
                cqms.submit("ana", f"SELECT * FROM WaterTemp WHERE temp < {15 + i}")
                cqms.clock.advance(30)
            cqms.run_miner()  # persists Sessions/SessionEdges
            session_id = cqms.store.get(2).session_id
            assert session_id is not None
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            # Membership came back from the Sessions time windows...
            assert cqms.store.get(2).session_id == session_id
            # ...so removing a recovered query keeps numQueries consistent.
            before = cqms.store.execute_meta_sql(
                f"SELECT numQueries FROM Sessions WHERE sessionId = {session_id}"
            ).scalar()
            cqms.store.remove(2)
            after = cqms.store.execute_meta_sql(
                f"SELECT numQueries FROM Sessions WHERE sessionId = {session_id}"
            ).scalar()
            assert after == before - 1

    def test_qids_never_reused_across_restarts(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            cqms.submit("ana", "SELECT * FROM Lakes")
            cqms.store.remove(2)  # qid 2 retired forever
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            execution = cqms.submit("ana", "SELECT * FROM WaterSalinity")
            # max(surviving qid) is 1, but the high-water mark is durable.
            assert execution.record.qid == 3
            # Even with every query removed the counter must not restart.
            cqms.store.remove(1)
            cqms.store.remove(3)
        db3 = build_database("limnology", scale=1)
        with CQMS(db3, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            assert cqms.submit("ana", "SELECT * FROM Lakes").record.qid == 4

    def test_a_crash_inside_a_removal_never_reissues_its_qid(self, tmp_path):
        """Only a removal lowers max(qid), and its first WAL frame is the qid
        mark: cut the log at any frame boundary of removing the highest qid
        and the next submit still gets a new one.  The qid is annotated, so
        its removal spans three frames (the mark, ``Queries``,
        ``Annotations``)."""
        d = str(tmp_path / "store")
        with CQMS(build_database("limnology", scale=1), config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            for table in ("Lakes", "WaterTemp", "WaterSalinity"):
                cqms.submit("ana", f"SELECT * FROM {table} WHERE lake_id > 2")
            cqms.annotate("ana", 3, "salinity above lake 2")
            cqms.store.meta_database.flush_wal()
            kept = len(read_wal(wal_path(d)).records)
            cqms.store.remove(3)
        frames = [len(encode_record(r.lsn, r.data)) for r in read_wal(wal_path(d)).records]
        assert sum(frames) == os.path.getsize(wal_path(d)) and len(frames) > kept + 2
        for count in range(kept, len(frames) + 1):
            crashed = str(tmp_path / f"cut{count}")
            shutil.copytree(d, crashed)
            with open(wal_path(crashed), "r+b") as handle:
                handle.truncate(sum(frames[:count]))
            db = build_database("limnology", scale=1)
            with CQMS(db, config=CQMSConfig(data_dir=crashed)) as cqms:
                assert (3 in cqms.store) == (count <= kept + 1), count
                cqms.register_user("ana", group="g")
                assert cqms.submit("ana", "SELECT name FROM Lakes").record.qid == 4, count

    def test_flag_state_survives_restart(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            cqms.store.mark_invalid(1, "references a dropped column")
            cqms.store.mark_invalid(1, "references a dropped column")
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            record = cqms.store.get(1)
            # The drop-after-N-flags maintenance policy must not reset on
            # restart, and the user-facing reason must survive.
            assert record.flagged_invalid
            assert record.invalid_reason == "references a dropped column"
            assert record.flag_count == 2

    def test_output_summary_total_rows_survive_restart(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            original = cqms.store.get(1).output
            assert original is not None
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=d)) as cqms:
            rebuilt = cqms.store.get(1).output
            assert rebuilt.total_rows == original.total_rows
            assert rebuilt.complete == original.complete
            assert len(rebuilt.rows) == len(original.rows)
            # Numeric cells come back as numbers (not their TEXT rendering),
            # so query-by-data value matching still works after a restart.
            numeric = next(
                value
                for row in original.rows
                for value in row
                if isinstance(value, float)
            )
            assert rebuilt.contains_value(numeric)

    def test_checkpoint_through_cqms(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            assert cqms.checkpoint() > 0
            assert os.path.getsize(os.path.join(d, WAL_FILE_NAME)) == 0

    def test_workbench_durability_panel(self, tmp_path):
        from repro.client.workbench import Workbench

        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            cqms.submit("ana", "SELECT * FROM WaterTemp")
            panel = Workbench(cqms=cqms, user="ana").durability_panel()
            assert "=== Durability ===" in panel
            assert "database: in-memory (no write-ahead log)" in panel
            assert "query_storage: wal sync=batch" in panel


# ---------------------------------------------------------------------------
# A data directory written while the engine still had sorted indexes
# ---------------------------------------------------------------------------


#: The sorted indexes the Query Storage used to create on every open.
_RETIRED_SORTED_INDEXES = (
    ("Queries", "ts"),
    ("Annotations", "ts"),
    ("Sessions", "startTs"),
    ("Sessions", "endTs"),
    ("Sessions", "numQueries"),
    ("RuntimeStats", "cardinality"),
    ("RuntimeStats", "rowsScanned"),
    ("RuntimeStats", "elapsedSeconds"),
)


def _rewrite_snapshot(data_dir, mutate) -> None:
    """Edit a published checkpoint's body and re-seal its header."""
    payload = load_snapshot(snapshot_path(data_dir))
    mutate(payload)
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    header = (
        f"REPRO-SNAPSHOT v{payload['format']} crc={zlib.crc32(body):08x} len={len(body)}\n"
    ).encode("ascii")
    with open(snapshot_path(data_dir), "wb") as handle:
        handle.write(header + body)


def _append_wal(data_dir, record: dict) -> None:
    last = max(r.lsn for r in read_wal(wal_path(data_dir)).records)
    with open(wal_path(data_dir), "ab") as handle:
        handle.write(encode_record(last + 1, record))


def _index_definitions(db: Database) -> dict:
    return {
        name: [
            (index.name, index.column, index.unique, index.kind)
            for index in db.table(name).index_definitions()
        ]
        for name in db.table_names()
    }


class TestDirectoryWithSortedIndexes:
    """An older engine checkpointed the Query Storage's eight ``*_sorted``
    index definitions and logged ``create_index`` records of kind
    ``sorted``.  Indexes were never stored, only their definitions, so
    recovery drops those definitions and loses nothing."""

    @pytest.fixture
    def data_dir(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            for i in range(6):
                cqms.submit("ana", f"SELECT * FROM WaterTemp T WHERE T.temp < {15 + i}")
            cqms.store.meta_database.checkpoint()
            # A WAL tail past the checkpoint.
            cqms.submit("ana", "SELECT name FROM Lakes WHERE area_km2 > 10")
        with Database.open(d) as meta:
            rows = {name: table_rows(meta, name) for name in meta.table_names()}
            definitions = _index_definitions(meta)

        def add_sorted(payload):
            entries = {entry["schema"]["name"]: entry for entry in payload["tables"]}
            for table, column in _RETIRED_SORTED_INDEXES:
                entries[table]["indexes"].append(
                    {"name": f"{table.lower()}_{column.lower()}_sorted",
                     "column": column, "unique": False, "kind": "sorted"}
                )

        _rewrite_snapshot(d, add_sorted)
        _append_wal(d, {"op": "create_index", "tbl": "Queries", "name": "queries_qid_sorted",
                        "column": "qid", "unique": False, "kind": "sorted"})
        return d, rows, definitions

    def test_reopens_with_every_row_and_hash_index(self, data_dir):
        d, rows, definitions = data_dir
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            assert len(cqms.store) == 7
            meta = cqms.store.meta_database
            assert {name: table_rows(meta, name) for name in meta.table_names()} == rows
            assert _index_definitions(meta) == definitions
            # The unlogged feature relations come back empty; a meta-query
            # fills them, so their indexes are probed too.
            cqms.store.execute_meta_sql("SELECT COUNT(*) FROM DataSources")
            # Every hash index answers its IndexScan with the rows a scan finds.
            probed = 0
            for name in meta.table_names():
                table = meta.table(name)
                for index in table.index_definitions():
                    position = table.schema.position(index.column)
                    values = [row[position] for row in table.rows() if row[position] is not None]
                    if not values:
                        continue
                    value = values[0]
                    literal = (
                        "'" + value.replace("'", "''") + "'" if isinstance(value, str) else repr(value)
                    )
                    sql = f"SELECT * FROM {name} WHERE {index.column} = {literal}"
                    assert f"IndexScan {name} ({index.column} = " in meta.explain(sql).text()
                    expected = [row for row in table.rows() if row[position] == value]
                    assert sorted(meta.execute(sql).rows, key=repr) == sorted(expected, key=repr)
                    probed += 1
            assert probed >= 10

    def test_new_checkpoint_lists_no_sorted_definition(self, data_dir):
        d, _, definitions = data_dir
        with Database.open(d) as meta:
            meta.checkpoint()
        kinds = {
            index["kind"]
            for entry in load_snapshot(snapshot_path(d))["tables"]
            for index in entry["indexes"]
        }
        assert kinds == {"hash"}
        with Database.open(d) as meta:
            assert _index_definitions(meta) == definitions

    def test_unknown_kind_still_raises(self, data_dir):
        d, _, _ = data_dir

        def add_rtree(payload):
            payload["tables"][0]["indexes"].append(
                {"name": "odd", "column": payload["tables"][0]["schema"]["columns"][0]["name"],
                 "unique": False, "kind": "rtree"}
            )

        _append_wal(d, {"op": "create_index", "tbl": "Queries", "name": "odd",
                        "column": "qid", "unique": False, "kind": "rtree"})
        with pytest.raises(DurabilityError, match="unknown index kind 'rtree'"):
            Database.open(d)
        _rewrite_snapshot(d, add_rtree)
        with pytest.raises(SchemaError, match="unknown index kind 'rtree'"):
            Database.open(d)


class TestCreateIndexRejections:
    """``CREATE INDEX`` statements the engine refuses change nothing: not
    the table, not its indexes, not the log."""

    @pytest.fixture
    def db(self, tmp_path):
        with Database.open(str(tmp_path / "db"), wal_sync="commit") as db:
            db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
            db.execute("CREATE TABLE u (c INTEGER)")
            db.insert_rows("t", [{"a": i, "b": i % 3} for i in range(10)])
            db.execute("CREATE INDEX i ON t (a)")
            yield db

    def _state(self, db):
        table = db.table("t")
        return (
            table_rows(db, "t"),
            _index_definitions(db),
            (table.version, table.schema_version),
            db.wal_stats().records,
            os.path.getsize(wal_path(db.data_dir)),
        )

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("CREATE INDEX i ON t (b)", "index 'i' already exists on t.a"),
            ("CREATE UNIQUE INDEX i ON t (a)", "index 'i' already exists on t.a"),
            ("CREATE INDEX I ON u (c)", "index 'I' already exists on t.a"),
            ("CREATE INDEX j ON t (b) USING BTREE", "unknown index kind 'btree'; expected 'hash'"),
            ("CREATE INDEX j ON t (b) USING SORTED", "unknown index kind 'sorted'; expected 'hash'"),
        ],
    )
    def test_rejected_statement_changes_nothing(self, db, sql, message):
        before = self._state(db)
        with pytest.raises(SchemaError, match=message):
            db.execute(sql)
        assert self._state(db) == before

    def test_identical_definition_is_a_no_op(self, db):
        before = self._state(db)
        db.execute("CREATE INDEX i ON t (a)")
        assert self._state(db) == before
        assert db.table("t").index_for("a").name == "i"
