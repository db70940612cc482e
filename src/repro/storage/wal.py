"""Append-only binary write-ahead log.

The WAL is the first half of the engine's durability story (the second is
:mod:`repro.storage.snapshot`): every logical mutation — row DML, DDL, index
builds — is encoded as one JSON payload and appended to ``wal.log`` inside the
database's ``data_dir`` *after* it has been applied in memory, so that
:mod:`repro.storage.recovery` can rebuild the exact committed state by
replaying the log over the latest snapshot.

Record format (little-endian)::

    +---------+----------+---------+------------------+
    | lsn u64 | len  u32 | crc u32 | payload (len B)  |
    +---------+----------+---------+------------------+

``crc`` is the CRC32 of the packed ``(lsn, len)`` header fields plus the
payload, so a flipped bit anywhere in the record — header or body — is
detected.  LSNs increase monotonically across the database's lifetime and
*survive checkpoint truncation*: the snapshot records the last LSN it
contains, and replay skips records at or below it, which makes a crash
between "snapshot renamed" and "log truncated" harmless.

Inserts are logged a batch to a frame: one ``insert_many`` record per
``Table.insert_many`` call carries the table, the first row id, the column
list once and the rows as arrays::

    {"op":"insert_many","tbl":"Attributes","rid":4096,
     "cols":["qid","attrName","relName"],
     "rows":[[7,"temp","watertemp"],[7,"depth","watertemp"],...]}

A ``JSON`` column's value nests in its row as JSON (an array, never a quoted
string), and replay freezes its arrays back to tuples when it coerces the
row.  A frame is read whole or not at all, so a batch is all in or all out
after a crash.  A payload above :data:`MAX_RECORD_BYTES` is refused at
encoding time (the reader treats such a length as a corrupt tail).  Logs written before
batching hold one ``insert`` record per row; recovery replays both.

Thresholds are counted in **row mutations**, not frames
(:func:`row_mutations`: a batch of n rows counts n, every other record 1):
the group-commit trigger here and the checkpoint interval in
:class:`~repro.storage.database.Database` fire where they fired when every
row was its own record, so putting rows into one frame saves encoding and
framing, not durability.  A batch is never split across flushes.

Sync policies (the classic durability/throughput dial):

* ``"commit"`` — every append is written and ``fsync``\\ ed before it returns;
  an acknowledged statement survives a kill -9 (a batch is one append, one
  ``fsync``).
* ``"batch"`` — appends accumulate in a group-commit buffer that is written
  and synced as **one** write once :data:`DEFAULT_GROUP_SIZE` row mutations
  (or :data:`DEFAULT_GROUP_BYTES`) pile up, amortizing the sync cost; a
  crash can lose at most the unsynced tail of acknowledged work — always
  fewer than :data:`DEFAULT_GROUP_SIZE` row mutations once an append has
  returned.
* ``"off"`` — records are buffered and written without ever calling
  ``fsync``; durability is whatever the OS page cache decides.  Useful as a
  benchmark baseline and for throwaway runs.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import DurabilityError

#: ``(lsn, length, crc)`` header layout of one record.
_HEADER = struct.Struct("<QII")
#: The slice of the header covered by the CRC (everything but the CRC itself).
_CRC_PREFIX = struct.Struct("<QI")

#: Sanity bound on a single record's payload; anything larger in a header is
#: treated as tail corruption rather than an attempt to allocate gigabytes.
MAX_RECORD_BYTES = 1 << 30

#: Valid sync policies, in decreasing durability order.
SYNC_POLICIES = ("commit", "batch", "off")

#: Group-commit batch bounds for ``sync="batch"``.
DEFAULT_GROUP_SIZE = 64
DEFAULT_GROUP_BYTES = 256 * 1024

#: File name of the log inside a database's ``data_dir``.
WAL_FILE_NAME = "wal.log"


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry (not supported everywhere).

    Needed after creating or renaming a file inside it: an ``fsync`` of the
    file persists its *contents*, but the directory entry pointing at it is
    separate metadata a power cut can still lose.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def encode_record(lsn: int, data: dict) -> bytes:
    """Encode one logical record as a framed, checksummed byte string.

    Refuses a payload above :data:`MAX_RECORD_BYTES`: :func:`read_wal` would
    take such a frame for a corrupt tail and drop it with everything after.
    """
    payload = _encode_json(data).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise DurabilityError(
            f"WAL record of {len(payload)} bytes exceeds the {MAX_RECORD_BYTES}-byte "
            "frame bound; insert the rows in smaller batches"
        )
    crc = zlib.crc32(_CRC_PREFIX.pack(lsn, len(payload)) + payload)
    return _HEADER.pack(lsn, len(payload), crc) + payload


def row_mutations(data: dict) -> int:
    """Row mutations one logical record stands for: the batch size of an
    ``insert_many``, 1 for every other record (DDL included).  The writer's
    group-commit and checkpoint thresholds and recovery's backlog all count
    in this unit, so batching rows into one frame moves neither."""
    return len(data["rows"]) if data.get("op") == "insert_many" else 1


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record: its LSN plus the logical payload."""

    lsn: int
    data: dict


@dataclass
class WalReadResult:
    """Everything :func:`read_wal` learned about a log file."""

    records: list[WalRecord] = field(default_factory=list)
    #: Byte length of the valid prefix (where a writer should resume).
    valid_length: int = 0
    #: True when trailing bytes after the valid prefix were torn or corrupt.
    torn_tail: bool = False
    #: Bytes dropped because of the torn/corrupt tail.
    bytes_dropped: int = 0
    #: LSN of the last intact record (0 for an empty log).
    last_lsn: int = 0


def iter_wal(path: str | os.PathLike, result: WalReadResult) -> Iterator[WalRecord]:
    """Decode a WAL file one record at a time, stopping cleanly at the first
    torn/corrupt record.

    Each record is yielded as soon as it is decoded, so a caller that replays
    it at once never holds the decoded log.  The scan fills in ``result``
    (all but its ``records``), which is complete once the iterator is
    exhausted.  A missing file reads as an empty log.  The scan never raises
    on bad bytes: a partial header, an implausible length, a short payload, a
    CRC mismatch, or undecodable JSON all mark the tail as torn and end the
    replayable prefix exactly at the last intact record — which is the
    contract crash recovery needs (a record is either wholly in or wholly
    out).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            break  # torn header
        lsn, length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            break  # implausible length: header corruption
        end = offset + _HEADER.size + length
        if end > total:
            break  # torn payload
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(_CRC_PREFIX.pack(lsn, length) + payload) != crc:
            break  # checksum mismatch
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break  # CRC collision or writer bug; treat as corruption
        offset = end
        result.valid_length = end
        result.last_lsn = lsn
        yield WalRecord(lsn=lsn, data=decoded)
    result.torn_tail = result.valid_length < total
    result.bytes_dropped = total - result.valid_length


def read_wal(path: str | os.PathLike) -> WalReadResult:
    """Decode a whole WAL file (:func:`iter_wal`) into
    :attr:`WalReadResult.records`."""
    result = WalReadResult()
    result.records = list(iter_wal(path, result))
    return result


@dataclass
class WalStats:
    """Counters describing a WAL's activity since the database opened."""

    sync_policy: str = "batch"
    #: Logical records (frames) appended.
    records: int = 0
    #: Row mutations those records carry (:func:`row_mutations`).
    row_mutations: int = 0
    #: Bytes appended (headers + payloads).
    bytes_written: int = 0
    #: ``fsync`` calls issued (0 under ``sync="off"``).
    syncs: int = 0
    #: Group-commit flushes (each writes its whole pending batch at once).
    flushes: int = 0
    #: Largest number of records a single group-commit flush covered.
    max_batch_records: int = 0
    #: LSN of the most recently appended record.
    last_lsn: int = 0
    #: Row mutations logged since the last checkpoint truncated the log.
    records_since_checkpoint: int = 0
    #: Checkpoints taken (snapshot written + log truncated).
    checkpoints: int = 0

    @property
    def avg_batch_records(self) -> float:
        """Mean group-commit batch size (records per flush)."""
        if not self.flushes:
            return 0.0
        return self.records / self.flushes


class WalWriter:
    """Appends framed records to a log file under a configurable sync policy.

    The writer owns the file handle from open to close.  When handed the
    ``valid_length`` of a recovered log it first truncates the torn tail, so
    new records never append after garbage.  LSN assignment continues from
    ``start_lsn`` (the recovered maximum of snapshot and log).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        sync: str = "batch",
        start_lsn: int = 0,
        valid_length: int | None = None,
    ):
        if sync not in SYNC_POLICIES:
            raise DurabilityError(
                f"unknown wal sync policy {sync!r}; expected one of {SYNC_POLICIES}"
            )
        self.path = os.fspath(path)
        self.sync = sync
        self._lsn = start_lsn
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._pending_mutations = 0
        self._closed = False
        self.stats = WalStats(sync_policy=sync, last_lsn=start_lsn)
        # Create the file if missing, then open read-write so a recovered
        # torn tail can be truncated away before the first append.  A fresh
        # log's directory entry is synced immediately: under sync="commit"
        # the very first acknowledged record must not vanish with the whole
        # file on power loss.
        if not os.path.exists(self.path):
            open(self.path, "ab").close()
            if sync != "off":
                fsync_directory(os.path.dirname(self.path))
        self._file = open(self.path, "r+b")
        if valid_length is not None:
            self._file.truncate(valid_length)
        self._file.seek(0, os.SEEK_END)

    # -- appending -----------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._lsn

    def append(self, data: dict) -> int:
        """Append one logical record; returns its LSN.

        The record is encoded immediately (so callers may hand over live row
        dicts) and becomes durable according to the sync policy: right away
        under ``"commit"``, at the next group-commit boundary under
        ``"batch"``, never guaranteed under ``"off"``.
        """
        if self._closed:
            raise DurabilityError(f"write-ahead log {self.path!r} is closed")
        encoded = encode_record(self._lsn + 1, data)  # may refuse: count nothing yet
        mutations = row_mutations(data)
        self._lsn += 1
        self._pending.append(encoded)
        self._pending_bytes += len(encoded)
        self._pending_mutations += mutations
        self.stats.records += 1
        self.stats.row_mutations += mutations
        self.stats.bytes_written += len(encoded)
        self.stats.last_lsn = self._lsn
        self.stats.records_since_checkpoint += mutations
        if (
            self.sync == "commit"
            or self._pending_mutations >= DEFAULT_GROUP_SIZE
            or self._pending_bytes >= DEFAULT_GROUP_BYTES
        ):
            self.flush()
        return self._lsn

    def flush(self) -> None:
        """Write the pending group-commit batch as one write (and sync it).

        Under ``sync="off"`` the batch is handed to the OS but never
        ``fsync``\\ ed.  Flushing an empty buffer is a no-op, so callers may
        flush defensively at statement or checkpoint boundaries.
        """
        if not self._pending:
            return
        batch = b"".join(self._pending)
        batch_records = len(self._pending)
        self._pending.clear()
        self._pending_bytes = 0
        self._pending_mutations = 0
        self._file.write(batch)
        self._file.flush()
        if self.sync != "off":
            os.fsync(self._file.fileno())
            self.stats.syncs += 1
        self.stats.flushes += 1
        self.stats.max_batch_records = max(self.stats.max_batch_records, batch_records)

    # -- checkpoint support -----------------------------------------------------

    def truncate_log(self) -> None:
        """Drop every record (they are covered by a just-written snapshot).

        LSN numbering continues — the snapshot remembers the last LSN it
        contains, which is what keeps replay idempotent if the process dies
        between the snapshot rename and this truncation.
        """
        self._pending.clear()
        self._pending_bytes = 0
        self._pending_mutations = 0
        self._file.truncate(0)
        self._file.seek(0)
        self._file.flush()
        if self.sync != "off":
            os.fsync(self._file.fileno())
        self.stats.records_since_checkpoint = 0
        self.stats.checkpoints += 1

    def close(self) -> None:
        """Flush pending records and release the file handle (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._file.close()
        self._closed = True
