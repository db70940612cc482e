"""Checkpoint metadata: the recovery starting point in one atomic file.

A checkpoint bounds recovery time: instead of replaying the write-ahead log
from the beginning of time, :mod:`repro.storage.recovery` loads the latest
checkpoint and replays only the log tail written after it.  There is one
on-disk format (:data:`CHECKPOINT_FORMAT_VERSION`, written by
:func:`write_checkpoint`): only *metadata* — catalog history, schemas, index
definitions, version counters, and each table's **page directory** (heap page
ordinal → head frame in ``pages.db`` → live row count).  The rows themselves
stay in the page file (one ``[slot, [value, …]]`` array per row, in schema
order — no column names): the checkpoint flushes just the dirty pages
(shadow-paged to fresh frames) and fsyncs, so its cost tracks the working set
since the last checkpoint, not the database size.  Recovery refuses a file
that declares any other format.

The publish protocol is the classic one:

1. flush the WAL (everything the checkpoint covers is on disk first),
2. write dirty heap pages to fresh frames and ``fsync`` the page file —
   published frames are never overwritten in place, so the previous
   checkpoint stays intact underneath,
3. write the metadata to ``snapshot.json.tmp``, ``fsync``, then
   **atomically rename** over ``snapshot.json`` (readers only ever see the
   old or the new complete checkpoint, never a half-written one),
4. truncate the WAL (and release the frames only the old checkpoint
   referenced).

A crash between steps 3 and 4 leaves committed records in the log that the
checkpoint already covers; replay skips them by LSN.  A crash before step
3's rename leaves a stale ``.tmp`` file that recovery ignores — and a page
file whose fresh frames are garbage that recovery's free-list reconciliation
reclaims.

The file itself is a one-line header (format version, CRC32 and length of the
body) followed by a JSON body, so recovery can tell a valid checkpoint from a
damaged one without trusting its contents.
"""

from __future__ import annotations

import json
import os
import zlib

from repro.errors import DurabilityError
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType
from repro.storage.wal import fsync_directory

#: File name of the snapshot inside a database's ``data_dir``.
SNAPSHOT_FILE_NAME = "snapshot.json"
#: Suffix of the in-progress file the atomic rename publishes.
SNAPSHOT_TMP_SUFFIX = ".tmp"

_HEADER_PREFIX = "REPRO-SNAPSHOT"
#: The one checkpoint format: metadata plus page directories, rows in the
#: page file as JSON arrays in schema order.  (1 was a full image with the
#: rows inline, 2 stored each page row as a name-keyed object; nothing
#: writes either, and a data directory in either raises on open.)
CHECKPOINT_FORMAT_VERSION = 3


# -- schema (de)serialization --------------------------------------------------
#
# Shared with the WAL's DDL records: a CREATE TABLE logs the same schema dict
# a snapshot stores, so both replay paths build identical TableSchema objects.


def column_to_dict(column: ColumnSchema) -> dict:
    """A JSON-safe rendering of a :class:`ColumnSchema` (snapshot tables,
    WAL CREATE TABLE and ALTER TABLE … ADD COLUMN records)."""
    return {
        "name": column.name,
        "type": column.data_type.value,
        "not_null": column.not_null,
        "primary_key": column.primary_key,
        "unique": column.unique,
    }


def column_from_dict(data: dict) -> ColumnSchema:
    """Rebuild a :class:`ColumnSchema` from :func:`column_to_dict` output."""
    return ColumnSchema(
        name=data["name"],
        data_type=DataType(data["type"]),
        not_null=data["not_null"],
        primary_key=data["primary_key"],
        unique=data["unique"],
    )


def schema_to_dict(schema: TableSchema) -> dict:
    """A JSON-safe rendering of a :class:`TableSchema`."""
    return {
        "name": schema.name,
        "columns": [column_to_dict(column) for column in schema.columns],
    }


def schema_from_dict(data: dict) -> TableSchema:
    """Rebuild a :class:`TableSchema` from :func:`schema_to_dict` output."""
    return TableSchema(
        name=data["name"],
        columns=[column_from_dict(column) for column in data["columns"]],
    )


# -- checkpoint build / write ----------------------------------------------------


def _catalog_to_dict(catalog) -> dict:
    return {
        "version": catalog.version,
        "changes": [
            {
                "version": change.version,
                "timestamp": change.timestamp,
                "kind": change.kind,
                "table": change.table,
                "detail": change.detail,
            }
            for change in catalog.changes()
        ],
    }


def build_checkpoint(database, lsn: int) -> dict:
    """Serialize ``database`` into a checkpoint payload.

    ``lsn`` is the last WAL LSN the checkpoint covers; replay skips records at
    or below it.  Holds no rows: each table contributes its page directory —
    ``[ordinal, head_frame, live_count]`` per heap page — pointing into the
    already-flushed page file (none for an unlogged table, which comes back
    empty).  The caller must have flushed the logged tables' heap pages
    first (:meth:`~repro.storage.buffer_pool.PageStore.flush`),
    or ``page_directory`` will have nothing to point at.
    """
    tables = []
    for name in database.table_names():
        table = database.table(name)
        tables.append(
            {
                "schema": schema_to_dict(table.schema),
                "next_row_id": table.next_row_id,
                "version": table.version,
                "schema_version": table.schema_version,
                "indexes": [
                    {
                        "name": index.name,
                        "column": index.column,
                        "unique": index.unique,
                        "kind": index.kind,
                    }
                    for index in table.index_definitions()
                ],
                "page_slots": table.page_slots,
                # An unlogged table's pages are never flushed for a checkpoint.
                "pages": [] if table.unlogged else table.page_directory(),
                **({"unlogged": True} if table.unlogged else {}),
            }
        )
    return {
        "format": CHECKPOINT_FORMAT_VERSION,
        "name": database.name,
        "lsn": lsn,
        "catalog": _catalog_to_dict(database.catalog),
        "tables": tables,
    }


def write_checkpoint(database, path: str | os.PathLike, lsn: int) -> int:
    """Write an atomic checkpoint of ``database`` to ``path``.

    Returns the number of bytes written — proportional to schema + page
    count, not row count.  The write goes to ``<path>.tmp`` first and is
    published with ``os.replace``; the directory is synced afterwards so the
    rename itself survives a power cut.
    """
    path = os.fspath(path)
    body = json.dumps(build_checkpoint(database, lsn), separators=(",", ":")).encode("utf-8")
    header = (
        f"{_HEADER_PREFIX} v{CHECKPOINT_FORMAT_VERSION} "
        f"crc={zlib.crc32(body):08x} len={len(body)}\n"
    ).encode("ascii")
    tmp_path = path + SNAPSHOT_TMP_SUFFIX
    with open(tmp_path, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_directory(os.path.dirname(path))
    return len(header) + len(body)


def load_snapshot(path: str | os.PathLike) -> dict | None:
    """Load and verify a snapshot; ``None`` when no snapshot exists.

    A stale ``.tmp`` file from a checkpoint that died before its rename is
    ignored (the atomic-rename protocol guarantees the real file is intact).
    A *published* snapshot that fails its header or CRC check, however, is
    unrecoverable — the WAL was truncated when it was written — so that
    raises :class:`~repro.errors.DurabilityError` instead of silently
    opening an empty database over lost data.  So does an intact file that
    declares a format other than :data:`CHECKPOINT_FORMAT_VERSION`: the file
    is input from outside the program, and reading another layout as this
    one would restore garbage.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    newline = raw.find(b"\n")
    if newline < 0 or not raw.startswith(_HEADER_PREFIX.encode("ascii")):
        raise DurabilityError(f"snapshot {path!r} has a damaged header")
    try:
        fields = dict(
            part.split("=", 1)
            for part in raw[:newline].decode("ascii").split()
            if "=" in part
        )
        expected_crc = int(fields["crc"], 16)
        expected_len = int(fields["len"])
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise DurabilityError(f"snapshot {path!r} has a damaged header") from exc
    body = raw[newline + 1 :]
    if len(body) != expected_len or zlib.crc32(body) != expected_crc:
        raise DurabilityError(
            f"snapshot {path!r} failed its integrity check "
            f"(expected {expected_len} bytes, crc {expected_crc:08x})"
        )
    payload = json.loads(body.decode("utf-8"))
    if payload.get("format") != CHECKPOINT_FORMAT_VERSION:
        raise DurabilityError(
            f"snapshot {path!r} declares format {payload.get('format')!r}; "
            f"this engine reads only format {CHECKPOINT_FORMAT_VERSION}"
        )
    return payload
