"""Crash-recovery smoke test: SIGKILL a writing process, reopen, verify.

This is the end-to-end version of the property the unit tests prove byte by
byte: a *real* child process appends rows under ``wal_sync="commit"`` —
one-row and three-row ``INSERT`` statements in turn, each logged as one
``insert_many`` record — acknowledging each durable statement through an
atomically-replaced progress file.  The child checkpoints every 64 row
mutations, so heap pages reach ``pages.db`` in the on-disk page format.  The
parent freezes it (SIGSTOP) at an arbitrary moment, possibly mid-write, until
one such moment has both a checkpoint and a WAL record after it, SIGKILLs it
there, reopens the ``data_dir`` (the dead child's flock was released by the
kernel), and verifies that

* recovery read both halves: the checkpoint's adopted heap pages and the
  replayed WAL tail, and the table holds exactly the rows of the two,
* every acknowledged row survived (the ``commit`` policy's contract),
* at most one unacknowledged in-flight statement appears beyond that, whole:
  the recovered count lands on a statement boundary, never inside one,
* the recovered table and its indexes agree (point lookups work).

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/recovery_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

ACK_FILE = "acknowledged"
TARGET_ACKS = 200
KILL_TIMEOUT_SECONDS = 60.0
#: Row mutations between the child's checkpoints.
CHECKPOINT_INTERVAL = 64


def statement_rows(statement: int) -> int:
    """Rows of the child's ``statement``-th INSERT: 1, 3, 1, 3, ..."""
    return 3 if statement % 2 else 1


def child(data_dir: str) -> None:
    """Insert rows forever, acknowledging each durable statement."""
    from repro.storage.database import Database

    db = Database.open(data_dir, wal_sync="commit", checkpoint_interval=CHECKPOINT_INTERVAL)
    if not db.has_table("events"):
        db.execute("CREATE TABLE events (id INTEGER PRIMARY KEY, payload TEXT)")
        db.execute("CREATE INDEX events_payload ON events (payload)")
    ack_path = os.path.join(data_dir, ACK_FILE)
    tmp_path = ack_path + ".tmp"
    rows = statement = 0
    while True:
        values = ", ".join(
            f"({i}, 'p{i % 13}')" for i in range(rows, rows + statement_rows(statement))
        )
        db.execute(f"INSERT INTO events (id, payload) VALUES {values}")
        rows += statement_rows(statement)
        statement += 1
        # The statement is fsynced (wal_sync="commit"): acknowledge its rows.
        # The ack file is replaced atomically so the parent never reads a
        # torn count.
        with open(tmp_path, "w") as handle:
            handle.write(str(rows))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, ack_path)


def on_disk_state(data_dir: str):
    """``(snapshot, WAL records after it)`` as a crash now would leave them;
    the snapshot is None before the first checkpoint."""
    from repro.storage.snapshot import SNAPSHOT_FILE_NAME, load_snapshot
    from repro.storage.wal import WAL_FILE_NAME, read_wal

    snapshot = load_snapshot(os.path.join(data_dir, SNAPSHOT_FILE_NAME))
    lsn = 0 if snapshot is None else snapshot["lsn"]
    records = read_wal(os.path.join(data_dir, WAL_FILE_NAME)).records
    return snapshot, [record for record in records if record.lsn > lsn]


def parent() -> int:
    data_dir = tempfile.mkdtemp(prefix="recovery_smoke_")
    ack_path = os.path.join(data_dir, ACK_FILE)
    env = dict(os.environ)
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", data_dir], env=env
    )
    try:
        deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
        acknowledged = 0
        while True:
            if process.poll() is not None:
                raise SystemExit(
                    f"child exited early with code {process.returncode}"
                )
            if time.monotonic() > deadline:
                raise SystemExit(
                    f"child acknowledged only {acknowledged} rows in "
                    f"{KILL_TIMEOUT_SECONDS}s, or never stopped with a WAL "
                    "record after a checkpoint"
                )
            try:
                with open(ack_path) as handle:
                    acknowledged = int(handle.read().strip() or 0)
            except (FileNotFoundError, ValueError):
                pass
            if acknowledged >= TARGET_ACKS:
                # Freeze the writer wherever it is: the files now read as a
                # crash at this moment would leave them.
                os.kill(process.pid, signal.SIGSTOP)
                snapshot, tail = on_disk_state(data_dir)
                if snapshot is not None and tail:
                    break
                os.kill(process.pid, signal.SIGCONT)
            time.sleep(0.01)
        # Kill the writer with no chance to clean up: the WAL tail may be
        # torn, and only the kernel releases its flock.
        os.kill(process.pid, signal.SIGKILL)
        process.wait()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    with open(ack_path) as handle:
        acknowledged = int(handle.read().strip())

    from repro.storage.database import Database
    from repro.storage.wal import row_mutations

    # What recovery must read: the heap pages the checkpoint's page directory
    # adopts, then the rows of the WAL records after it.
    (events,) = [entry for entry in snapshot["tables"] if entry["schema"]["name"] == "events"]
    adopted = sum(live for _, _, live in events["pages"])
    replayed = sum(row_mutations(record.data) for record in tail if record.data["op"] == "insert_many")
    assert adopted > 0 and replayed > 0, (adopted, replayed)

    # Reopen: the dead child's flock is gone; recovery replays the log.
    with Database.open(data_dir) as db:
        report = db.last_recovery
        assert report.snapshot_loaded and report.snapshot_lsn == snapshot["lsn"]
        assert report.wal_records_applied == len(tail), (report, len(tail))
        count = db.execute("SELECT COUNT(*) FROM events").scalar()
        assert count == adopted + replayed, (count, adopted, replayed)
        assert count >= acknowledged, (
            f"lost acknowledged commits: recovered {count} < acked {acknowledged}"
        )
        # Row counts at the child's statement boundaries: 0, 1, 4, 5, 8, ...
        boundaries = [0]
        while boundaries[-1] <= acknowledged:
            boundaries.append(boundaries[-1] + statement_rows(len(boundaries) - 1))
        assert acknowledged in boundaries, f"acked {acknowledged} rows mid-statement"
        assert count in boundaries, (
            f"recovered {count} rows: inside a statement, or more than the one "
            f"in flight past the {acknowledged} acknowledged (boundaries end {boundaries[-3:]})"
        )
        # Index consistency: the recovered hash index answers point queries.
        for row_id in (0, adopted - 1, adopted, count - 1):  # both sides of the snapshot
            probe = db.execute(f"SELECT COUNT(*) FROM events WHERE id = {row_id}")
            assert probe.scalar() == 1, row_id
        by_payload = db.execute("SELECT COUNT(*) FROM events WHERE payload = 'p0'")
        assert by_payload.scalar() == len(
            [i for i in range(count) if i % 13 == 0]
        )
        print(
            f"recovery smoke OK: killed after {acknowledged} acked rows, "
            f"recovered {count} rows ({adopted} from checkpointed pages, "
            f"{replayed} from {report.wal_records_applied} replayed WAL records, "
            f"torn tail dropped {report.torn_bytes_dropped} bytes)"
        )
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(sys.argv[2])
    else:
        sys.exit(parent())
