"""Crash recovery: rebuild a database from its snapshot and WAL tail.

Opening a durable database (``Database.open(data_dir=...)``) runs through
here:

1. **Lock** the ``data_dir`` (an exclusive ``flock`` on its ``LOCK`` file —
   released by the kernel the moment the owner dies, so a SIGKILLed
   process never leaves a stale lock and concurrent openers cannot race),
2. **Load the latest valid checkpoint** (:mod:`repro.storage.snapshot`) —
   catalog history, schemas, index definitions, version counters, and the
   page directories that adopt the heap pages already in ``pages.db``,
3. **Replay the WAL tail** (:mod:`repro.storage.wal`): records with an LSN
   at or below the snapshot's are skipped (they are already inside it, which
   makes a crash between "snapshot renamed" and "log truncated" harmless),
   the rest are re-applied in order as each is decoded, and the scan stops
   cleanly at the first torn or corrupt record — exactly the committed
   prefix survives,
4. hand the writer the valid log length so the torn tail is truncated before
   anything new is appended.

Replay applies *logical* records through the same table code paths normal
execution uses (the tables' WAL hooks are not attached yet, so nothing is
re-logged), so indexes, statistics invalidation, and constraint bookkeeping
are rebuilt rather than trusted.  Inserts come back at the row ids they had:
an ``insert_many`` record restores its whole batch at consecutive ids from
its ``rid`` (the frame is read whole or dropped as a torn tail, so a batch is
never half-replayed), and the one-row ``insert`` records of logs written
before batching replay the same way, a batch of one each.  The report counts
the log both in records and in the row mutations they carry — the second is
what presses toward the checkpoint interval.
"""

from __future__ import annotations

import fcntl
import os
from dataclasses import dataclass

from repro.errors import DurabilityError, SchemaError, StorageError
from repro.obs.metrics import engine_timer
from repro.storage.snapshot import (
    SNAPSHOT_FILE_NAME,
    column_from_dict,
    load_snapshot,
    schema_from_dict,
)
from repro.storage.table import Table
from repro.storage.wal import WAL_FILE_NAME, WalReadResult, WalRecord, iter_wal, row_mutations

#: File name of the ownership lock inside a database's ``data_dir``.
LOCK_FILE_NAME = "LOCK"


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    data_dir: str = ""
    snapshot_loaded: bool = False
    snapshot_lsn: int = 0
    #: Records decoded from the log (valid prefix).
    wal_records_scanned: int = 0
    #: Row mutations those records carry (a batch of n rows counts n) — the
    #: unit the checkpoint interval is counted in.
    wal_mutations_scanned: int = 0
    #: Records re-applied (LSN above the snapshot's).
    wal_records_applied: int = 0
    #: Records skipped because the snapshot already contained them.
    wal_records_skipped: int = 0
    #: Byte length of the log's valid prefix (the writer resumes here).
    wal_valid_length: int = 0
    torn_tail: bool = False
    torn_bytes_dropped: int = 0
    #: Highest LSN seen across snapshot and log (LSNs continue from here).
    last_lsn: int = 0
    elapsed_seconds: float = 0.0


# -- data_dir locking -----------------------------------------------------------


@dataclass
class DirectoryLock:
    """An exclusive ``flock`` on a ``data_dir``'s ``LOCK`` file.

    The kernel releases the lock the instant the owning process dies — even
    on SIGKILL — so there is no stale-lock state and no steal race: of any
    number of concurrent openers, exactly one ever holds it.  The file
    itself persists between runs (only the flock matters); its pid content
    is purely diagnostic, shown in the double-open error.
    """

    path: str
    fd: int | None


def acquire_lock(data_dir: str | os.PathLike) -> DirectoryLock:
    """Take exclusive ownership of ``data_dir``.

    Raises :class:`~repro.errors.DurabilityError` when another live database
    — in this process or any other — holds the directory.  A lock file left
    behind by a killed process carries no flock, so reopening after a crash
    just works.
    """
    data_dir = os.fspath(data_dir)
    path = os.path.join(data_dir, LOCK_FILE_NAME)
    fd = os.open(path, os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        holder = _read_lock_pid(fd)
        os.close(fd)
        owner = "another database" if holder is None else f"process {holder}"
        raise DurabilityError(
            f"data_dir {data_dir!r} is already open by {owner}; "
            "close that Database first"
        ) from None
    os.ftruncate(fd, 0)
    os.write(fd, str(os.getpid()).encode("ascii"))
    return DirectoryLock(path=path, fd=fd)


def release_lock(lock: DirectoryLock) -> None:
    """Release a lock taken by :func:`acquire_lock` (idempotent).

    The file stays on disk — unlinking it would race a concurrent opener
    that already holds an fd to the old inode; closing the fd alone drops
    the flock atomically.
    """
    if lock.fd is None:
        return
    try:
        fcntl.flock(lock.fd, fcntl.LOCK_UN)
    except OSError:
        pass
    os.close(lock.fd)
    lock.fd = None


def _read_lock_pid(fd: int) -> int | None:
    try:
        return int(os.pread(fd, 64, 0).decode("ascii").strip())
    except (OSError, ValueError):
        return None


# -- recovery -----------------------------------------------------------------------


def recover(database, data_dir: str | os.PathLike) -> RecoveryReport:
    """Rebuild ``database`` (a fresh, empty instance) from ``data_dir``.

    Loads the snapshot, replays the WAL tail, and reports what happened.
    The caller attaches the WAL writer afterwards (resuming at
    ``report.wal_valid_length`` / ``report.last_lsn``).
    """
    start = engine_timer()
    data_dir = os.fspath(data_dir)
    report = RecoveryReport(data_dir=data_dir)

    snapshot = load_snapshot(os.path.join(data_dir, SNAPSHOT_FILE_NAME))
    if snapshot is not None:
        _restore_snapshot(database, snapshot)
        report.snapshot_loaded = True
        report.snapshot_lsn = int(snapshot.get("lsn", 0))

    # Each record is replayed as it is decoded: the decoded log is never
    # held whole.
    wal = WalReadResult()
    for record in iter_wal(os.path.join(data_dir, WAL_FILE_NAME), wal):
        report.wal_records_scanned += 1
        report.wal_mutations_scanned += row_mutations(record.data)
        if record.lsn <= report.snapshot_lsn:
            report.wal_records_skipped += 1
            continue
        _apply(database, record)
        report.wal_records_applied += 1
    report.wal_valid_length = wal.valid_length
    report.torn_tail = wal.torn_tail
    report.torn_bytes_dropped = wal.bytes_dropped

    report.last_lsn = max(report.snapshot_lsn, wal.last_lsn)
    report.elapsed_seconds = engine_timer() - start
    return report


def _restore_snapshot(database, snapshot: dict) -> None:
    """Load a verified checkpoint payload into a fresh database."""
    schemas = []
    for entry in snapshot["tables"]:
        schema = schema_from_dict(entry["schema"])
        schemas.append(schema)
        table = Table(
            schema,
            store=database._store,
            page_slots=int(entry.get("page_slots", 1)),
            unlogged=entry.get("unlogged", False),
        )
        # Attach the on-disk heap pages first (checksums verified as the
        # chains are walked), then rebuild the derived structures from
        # them — indexes are never checkpointed.
        for ordinal, head_frame, live in entry["pages"]:
            page_id = database._store.adopt_chain(int(head_frame))
            table.restore_page(int(ordinal), page_id, int(live))
        for index in entry["indexes"]:
            _create_index(table, index)
        table.rebuild_indexes()
        table.restore_counters(
            next_row_id=int(entry["next_row_id"]),
            version=int(entry["version"]),
            schema_version=int(entry["schema_version"]),
        )
        database._tables[schema.name.lower()] = table
    catalog = snapshot.get("catalog", {})
    database.catalog.restore(
        schemas,
        changes=catalog.get("changes", []),
        version=int(catalog.get("version", 0)),
    )


#: Index kinds an earlier engine wrote and this one no longer has.  Only an
#: index's definition is ever logged or checkpointed — never its entries — so
#: recovery drops such a definition and loses no data.
_RETIRED_INDEX_KINDS = frozenset({"sorted"})


def _create_index(table, definition: dict) -> None:
    """Re-create a checkpointed or logged index definition on ``table``."""
    if definition["kind"] in _RETIRED_INDEX_KINDS:
        return
    table.create_index(
        definition["name"],
        definition["column"],
        unique=definition["unique"],
        kind=definition["kind"],
    )


def _apply(database, record: WalRecord) -> None:
    """Re-apply one logical WAL record; wraps failures with the LSN."""
    data = record.data
    try:
        op = data["op"]
        if op == "insert_many":
            table = database.table(data["tbl"])
            # DDL replays in LSN order, so a frame this engine wrote names
            # exactly the table's columns at that point of the log.
            if data["cols"] != table.schema.column_names:
                raise SchemaError(
                    f"insert_many columns {data['cols']} do not match table "
                    f"{table.schema.name!r} columns {table.schema.column_names}"
                )
            table.restore_rows(int(data["rid"]), data["rows"])
        elif op == "insert":  # one row per record: logs written before insert_many
            table = database.table(data["tbl"])
            table.restore_rows(int(data["rid"]), table.schema.coerce_rows([data["row"]]))
        elif op == "update":
            database.table(data["tbl"]).update(int(data["rid"]), data["set"])
        elif op == "delete":
            database.table(data["tbl"]).delete(int(data["rid"]))
        elif op == "create_index":
            _create_index(database.table(data["tbl"]), data)
        elif op == "create_table":
            database.create_table(
                schema_from_dict(data["schema"]),
                timestamp=data.get("ts"),
                unlogged=data.get("unlogged", False),
            )
        elif op == "drop_table":
            database.drop_table(data["tbl"], timestamp=data.get("ts"))
        elif op == "alter_table":
            column = (
                None if data.get("column") is None else column_from_dict(data["column"])
            )
            database.alter_table(
                data["tbl"],
                data["action"],
                column=column,
                column_name=data.get("column_name"),
                new_name=data.get("new_name"),
                timestamp=data.get("ts"),
            )
        else:
            raise DurabilityError(f"unknown WAL op {op!r}")
    except DurabilityError:
        raise
    except (StorageError, KeyError, TypeError, ValueError, OSError) as exc:
        # The concrete ways a logical record can fail to apply: engine-level
        # rejection (CatalogError/SchemaError/IntegrityError/ExecutionError),
        # a malformed record payload (KeyError/TypeError/ValueError from the
        # dict accesses and coercions above), or the filesystem.  Anything
        # else — a genuine engine bug — must surface as itself, not be
        # laundered into a DurabilityError.
        raise DurabilityError(
            f"WAL replay failed at lsn {record.lsn} ({data.get('op')!r} on "
            f"{data.get('tbl', data.get('schema', {}).get('name', '?'))!r}): {exc}"
        ) from exc
