"""Paged heap tables with secondary indexes and cached statistics.

A stored row is a **tuple in schema order**: names live only in the
:class:`~repro.storage.schema.TableSchema` (``as_dict`` gives a name-keyed
view), so a row read from a page is already the row a scan streams.

There is one insert routine, :meth:`Table._insert`: ``insert``,
``insert_many`` and ``Database.insert_rows`` hand it name-keyed rows, SQL
``INSERT`` (``VALUES`` lists and ``INSERT ... SELECT``) positional ones
through ``insert_values``, each as one batch.  What it does once per batch
instead of once per row: coerce the rows against the schema's coercion plan,
check each unique index (against the index and within the batch), pin each
touched heap page, walk each index, drop the statistics cache, advance
``version`` (by the batch's row count) and — on a durable table — emit one
``insert_many`` WAL record.  The batch is atomic: a row that cannot be
coerced, a duplicate or an un-log-able record leaves the table as it was.
An UPDATE's rows change as one unit (:meth:`Table.update_many`); deletes
stay row-at-a-time.  An unchanged table keeps what scans and joins read
again (:meth:`Table.kept`).
"""

from __future__ import annotations

import json
from itertools import chain
from weakref import WeakKeyDictionary

from repro.errors import IntegrityError, SchemaError
from repro.storage.buffer_pool import PageStore
from repro.storage.indexes import HashIndex
from repro.storage.kernels import Columns
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.statistics import TableStatistics
from repro.storage.types import DataType, freeze_json

#: Row slots per heap page.  A row id maps to ``(page ordinal, slot)`` as
#: ``divmod(row_id, HEAP_PAGE_SLOTS)`` — row ids are monotonic and never
#: reused, so the mapping is stable for the lifetime of the table.
HEAP_PAGE_SLOTS = 128


class _HeapPageCodec:
    """(De)serialize one heap page, a slot → row tuple dict, as
    ``[[slot,[value,…]],…]`` in ascending slot order.  A ``JSON`` value is
    nested in its row as JSON; the codec of a table with ``JSON`` columns
    knows their positions and freezes their arrays back to tuples."""

    def __init__(self, json_positions: tuple[int, ...] = ()):
        self._json_positions = json_positions

    @staticmethod
    def encode(page: dict) -> bytes:
        return json.dumps(
            [[slot, page[slot]] for slot in sorted(page)], separators=(",", ":")
        ).encode("utf-8")

    def decode(self, payload: bytes) -> dict:
        page = json.loads(payload.decode("utf-8"))
        positions = self._json_positions
        if positions:
            for _, row in page:
                for position in positions:
                    row[position] = freeze_json(row[position])
        return {int(slot): tuple(row) for slot, row in page}


#: The codec of a table without ``JSON`` columns.
HEAP_PAGE_CODEC = _HeapPageCodec()


def _page_codec(schema: TableSchema) -> _HeapPageCodec:
    """The heap-page codec of a table with ``schema``."""
    positions = tuple(
        position
        for position, column in enumerate(schema.columns)
        if column.data_type is DataType.JSON
    )
    return _HeapPageCodec(positions) if positions else HEAP_PAGE_CODEC


def _install_slots(page: dict, slot: int, rows) -> None:
    """Place ``rows`` at consecutive slots from ``slot``, keeping the page's
    ascending slot order.

    Scans iterate pages in insertion order; normal inserts always append past
    the highest slot so far, so the order is maintained for free.  Restore
    paths (WAL replay, failed-delete rollback) can re-add a low slot after
    higher ones — only then is the dict rebuilt sorted.
    """
    slots = range(slot, slot + len(rows))
    out_of_order = (
        bool(page)
        and slot < next(reversed(page))
        and any(new not in page for new in slots)
    )
    page.update(zip(slots, rows))
    if out_of_order:
        ordered = sorted(page.items())
        page.clear()
        page.update(ordered)


class Kept:
    """What a table keeps at one ``version`` (:meth:`Table.kept`): ``rows`` in
    scan order, their ``columns`` (each made on first use), join ``entries``
    by key positions, and ``matches``: per build table's :class:`Kept` (held
    weakly) and ``(build, probe)`` key positions, each row's match."""

    __slots__ = ("rows", "columns", "entries", "matches", "__weakref__")

    def __init__(self, rows: list[tuple]):
        self.rows, self.columns = rows, Columns(rows)
        self.entries: dict[tuple[int, ...], tuple[dict, bool]] = {}
        self.matches: WeakKeyDictionary = WeakKeyDictionary()


class Table:
    """A heap table: slotted pages behind a buffer pool, plus its indexes.

    Rows are tuples in schema order, stored ``HEAP_PAGE_SLOTS`` to a page;
    every read (:meth:`scan`, :meth:`scan_row_lists`, :meth:`rows`,
    :meth:`get`, :meth:`lookup`) returns the stored tuple itself.  The page
    objects live in a
    :class:`~repro.storage.buffer_pool.PageStore` (shared database-wide, so
    one ``buffer_pool_pages`` budget bounds every table's heap).
    Row ids are monotonically increasing and never reused, which lets
    indexes reference rows stably across deletes and pins each row to one
    ``(page, slot)`` forever.  Each column may carry one hash index for
    equality probes.

    When the owning database is durable it sets ``wal_emit`` to the WAL
    appender: every successful mutation — an insert batch, an update, a
    delete, an index build — then emits one logical log record *after* it has
    been applied, so crash recovery replays exactly the committed operations.
    An ``unlogged`` table (PostgreSQL's ``UNLOGGED``) gets a hook that logs
    only its index builds: its rows never reach the log or a checkpoint, and
    recovery brings it back empty, with its indexes.
    """

    def __init__(
        self,
        schema: TableSchema,
        store: PageStore | None = None,
        page_slots: int = HEAP_PAGE_SLOTS,
        unlogged: bool = False,
    ):
        self._schema = schema
        self._codec = _page_codec(schema)
        self.unlogged = unlogged
        self._store = store if store is not None else PageStore()
        self._page_slots = max(1, int(page_slots))
        self._page_ids: dict[int, int] = {}  # page ordinal -> buffer-pool page id
        self._page_live: dict[int, int] = {}  # page ordinal -> live row count
        self._row_count = 0
        self._next_row_id = 0
        #: Durability hook: ``callable(record_dict)`` appending to the WAL,
        #: or None for an in-memory table (and during recovery replay).
        self.wal_emit = None
        # column (lower-cased) → its index
        self._indexes: dict[str, HashIndex] = {}
        self._stats_cache: TableStatistics | None = None
        # Monotonic change counters consumed by the plan cache: ``version``
        # moves on every mutation (DML, DDL, index builds, statistics
        # refreshes); ``schema_version`` moves only on DDL and index changes,
        # where cached plans require an exact match instead of a drift check.
        self.version = 0
        self.schema_version = 0
        if schema.primary_key is not None:
            self.create_index(
                f"{schema.name.lower()}_pk", schema.primary_key.name, unique=True
            )
        for column in schema.columns:
            if column.unique and not column.primary_key:
                self.create_index(
                    f"{schema.name.lower()}_{column.name.lower()}_unique",
                    column.name,
                    unique=True,
                )

    # -- basic accessors -----------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    def __len__(self) -> int:
        return self._row_count

    @property
    def page_slots(self) -> int:
        return self._page_slots

    @property
    def page_count(self) -> int:
        """Heap pages the table occupies (the planner's I/O cost input)."""
        return len(self._page_ids)

    def rows(self) -> list[tuple]:
        """A snapshot list of all stored rows, in :meth:`scan` order."""
        return list(chain.from_iterable(self.scan_row_lists()))

    def scan(self):
        """Iterate over ``(row_id, row)`` pairs in row-id order.

        Pages are read through the buffer pool without pinning: eviction
        only drops the store's reference, so a page dict being iterated
        stays valid for the iterator holding it, and read-only iteration is
        safe under the engine's statement-at-a-time mutation model.
        """
        for ordinal in sorted(self._page_ids):
            page = self._store.read(self._page_ids[ordinal], self._codec)
            base = ordinal * self._page_slots
            for slot, row in page.items():
                yield base + slot, row

    def scan_row_lists(self):
        """Per-page lists of stored row tuples, in :meth:`scan` order.

        The scans' bulk feed: one C-speed ``list(page.values())`` per page
        instead of a Python-level generator resumption per row, which is
        where a row-granular feed spends most of its time.  Each list is
        fresh, so a caller may keep or reshape it.
        """
        for ordinal in sorted(self._page_ids):
            page = self._store.read(self._page_ids[ordinal], self._codec)
            if page:
                yield list(page.values())

    @property
    def version(self) -> int:
        return self._version

    @version.setter
    def version(self, value: int) -> None:
        self._version = value
        self._drop_kept()

    def _drop_kept(self) -> None:
        self._kept: Kept | None = None
        self._asked_by, self._entries_asked = None, set()  # see kept, join_entry

    def kept(self, statement: object = None) -> Kept | None:
        """This version's :class:`Kept` lists: built at the ask of a second
        ``statement`` (the first's asks only record it; no statement only
        looks), never in a store that evicts (they would outstay its bound)."""
        if self._kept is None and statement is not None and not self._store.evicts:
            if self._asked_by is None:
                self._asked_by = statement
            elif self._asked_by is not statement:
                self._kept = Kept(self.rows())
        return self._kept

    def join_entry(self, positions: tuple[int, ...], build, statement) -> tuple[dict, bool] | None:
        """The kept ``build()`` of the whole table's ``(hash table, unique)`` on
        the columns at ``positions``; a first ask for them only records it."""
        kept = self.kept(statement)
        if kept is None or positions not in self._entries_asked:
            self._entries_asked.add(positions)
            return None
        if positions not in kept.entries:
            kept.entries[positions] = build()  # a write during it orphans ``kept``
        return kept.entries[positions]

    def _bump(self, schema: bool = False) -> None:
        """Advance the change counters after a mutation."""
        self.version += 1
        if schema:
            self.schema_version += 1

    def get(self, row_id: int) -> tuple | None:
        ordinal, slot = divmod(row_id, self._page_slots)
        page_id = self._page_ids.get(ordinal)
        if page_id is None:
            return None
        return self._store.read(page_id, self._codec).get(slot)

    @property
    def next_row_id(self) -> int:
        """The row id the next insert will take (snapshotted for recovery)."""
        return self._next_row_id

    # -- slotted-page plumbing -------------------------------------------------

    def _store_slot(self, row_id: int, row: tuple) -> None:
        """Write ``row`` into its page (pin → mutate → mark dirty → unpin)."""
        self._store_slots(row_id, (row,))

    def _store_slots(self, row_id: int, rows) -> None:
        """Write ``rows`` at consecutive ids from ``row_id``, page by page:
        one pin → mutate → mark dirty → unpin per touched page."""
        done = 0
        while done < len(rows):
            ordinal, slot = divmod(row_id + done, self._page_slots)
            chunk = rows[done : done + self._page_slots - slot]
            page_id = self._page_ids.get(ordinal)
            if page_id is None:
                page_id = self._store.allocate({}, self._codec)
                self._page_ids[ordinal] = page_id
                self._page_live[ordinal] = 0
            page = self._store.fetch(page_id, self._codec)
            try:
                before = len(page)
                _install_slots(page, slot, chunk)
                fresh = len(page) - before
                self._store.mark_dirty(page_id)
            finally:
                self._store.unpin(page_id)
            self._page_live[ordinal] += fresh
            self._row_count += fresh
            done += len(chunk)

    def _discard_slot(self, row_id: int) -> tuple | None:
        """Remove and return the row at ``row_id``; frees emptied pages."""
        ordinal, slot = divmod(row_id, self._page_slots)
        page_id = self._page_ids.get(ordinal)
        if page_id is None:
            return None
        page = self._store.fetch(page_id, self._codec)
        try:
            row = page.pop(slot, None)
            if row is not None:
                self._store.mark_dirty(page_id)
        finally:
            self._store.unpin(page_id)
        if row is None:
            return None
        self._page_live[ordinal] -= 1
        self._row_count -= 1
        if self._page_live[ordinal] <= 0:
            del self._page_ids[ordinal]
            del self._page_live[ordinal]
            self._store.free(page_id)
        return row

    def heap_page_ids(self) -> list[int]:
        """The buffer-pool page ids of every heap page (checkpoint set)."""
        return [self._page_ids[ordinal] for ordinal in sorted(self._page_ids)]

    def page_directory(self) -> list[list[int]]:
        """``[ordinal, head_frame, live]`` rows for the checkpoint metadata.

        Valid only after the owning database flushed the heap pages — every
        page then has an on-disk chain whose head frame recovery can adopt.
        """
        return [
            [ordinal, self._store.chain_head(self._page_ids[ordinal]),
             self._page_live[ordinal]]
            for ordinal in sorted(self._page_ids)
        ]

    def restore_page(self, ordinal: int, page_id: int, live: int) -> None:
        """Recovery: attach an adopted on-disk page at ``ordinal``."""
        self._page_ids[ordinal] = page_id
        self._page_live[ordinal] = live
        self._row_count += live

    def rebuild_indexes(self) -> None:
        """Recovery: repopulate every index from one heap scan.

        Indexes are never checkpointed (they are derived data); after the
        heap pages are attached this rebuilds the exact access paths the
        planner expects.
        """
        indexed = self._indexed()
        for index, _ in indexed:
            index.clear()
        for row_id, row in self.scan():
            for index, position in indexed:
                index.insert(row[position], row_id)
        self._stats_cache = None

    def drop_storage(self) -> None:
        """Release every buffer-pool page this table owns (DROP TABLE)."""
        for index in self._indexes.values():
            index.drop()
        for page_id in self._page_ids.values():
            self._store.free(page_id)
        self._page_ids.clear()
        self._page_live.clear()
        self._row_count = 0
        self._drop_kept()

    # -- indexes --------------------------------------------------------------

    def create_index(
        self, name: str, column: str, unique: bool = False, kind: str = "hash"
    ) -> HashIndex:
        if kind.lower() != HashIndex.kind:
            raise SchemaError(
                f"unknown index kind {kind!r}; expected {HashIndex.kind!r}"
            )
        if not self._schema.has_column(column):
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        canonical = self._schema.column(column).name
        existing = self._indexes.get(canonical.lower())
        if existing is not None:
            if existing.unique != unique:
                raise SchemaError(
                    f"index {existing.name!r} on {self.name}.{canonical} already "
                    f"exists with unique={existing.unique}; cannot create "
                    f"{name!r} with unique={unique}"
                )
            return existing
        index = HashIndex(name=name, column=canonical, unique=unique)
        position = self._schema.position(canonical)
        for row_id, row in self.scan():
            index.insert(row[position], row_id)
        self._indexes[canonical.lower()] = index
        self._bump(schema=True)
        if self.wal_emit is not None:
            try:
                self.wal_emit(
                    {
                        "op": "create_index",
                        "tbl": self.name,
                        "name": name,
                        "column": canonical,
                        "unique": unique,
                        "kind": index.kind,
                    }
                )
            except BaseException:
                self._indexes.pop(canonical.lower()).drop()  # un-log-able: drop the build
                raise
        return index

    def index_definitions(self) -> list[HashIndex]:
        """Every index in deterministic column order — snapshotted so
        recovery rebuilds the exact same access paths."""
        return [self._indexes[column] for column in sorted(self._indexes)]

    def index_for(self, column: str) -> HashIndex | None:
        """The column's index, when one exists."""
        return self._indexes.get(column.lower())

    def _indexed(self) -> list[tuple[HashIndex, int]]:
        """Every index with the stored-row position of its column."""
        position = self._schema.position
        return [(index, position(index.column)) for index in self._indexes.values()]

    def lookup(self, column: str, value: object) -> list[tuple]:
        """Equality lookup, via index when available, else a scan."""
        index = self.index_for(column)
        position = self._schema.position(column)
        if index is not None:
            return [self.get(row_id) for row_id in sorted(index.lookup(value))]
        return [row for _, row in self.scan() if row[position] == value]

    # -- mutation -------------------------------------------------------------

    def insert(self, row: dict[str, object]) -> int:
        """Insert a row, returning its row id."""
        return self.insert_many((row,))[0]

    def insert_many(self, rows) -> range:
        """Insert a batch of row dicts; returns the row ids they took.

        The batch is one unit: every row is coerced and every unique index
        checked — against the index and against the rest of the batch —
        before any state is touched, the rows go in page by page, each index
        is maintained in one pass, and a durable table logs the whole batch
        as **one** ``insert_many`` record.  Any failure leaves heap, indexes,
        counters and log as they were.
        """
        return self._insert(self._schema.coerce_rows(rows))

    def insert_values(self, rows) -> range:
        """:meth:`insert_many` for rows given as value sequences in schema
        order (SQL ``INSERT``, whose rows carry no names)."""
        return self._insert(self._schema.coerce_values(rows))

    def _insert(self, coerced: list[tuple]) -> range:
        first = self._next_row_id
        row_ids = range(first, first + len(coerced))
        if not coerced:
            return row_ids
        indexed = self._indexed()
        for index, position in indexed:
            if not index.unique:
                continue
            seen = set()
            for row in coerced:
                value = row[position]
                if value is None:
                    continue
                if value in seen or index.lookup(value):
                    raise IntegrityError(
                        f"duplicate value {value!r} for unique column "
                        f"{index.column!r} of table {self.name!r}"
                    )
                seen.add(value)
        self._store_slots(first, coerced)
        self._index_rows(first, coerced, indexed)
        if self.wal_emit is not None:
            try:
                self.wal_emit(
                    {
                        "op": "insert_many",
                        "tbl": self.name,
                        "rid": first,
                        "cols": self._schema.column_names,
                        "rows": coerced,  # tuples encode as JSON arrays
                    }
                )
            except BaseException:
                # The batch could not be logged (full disk, closed WAL, a
                # frame past the size bound): undo all of it so live state
                # never diverges from what recovery will rebuild.
                for row_id, row in zip(row_ids, coerced):
                    self._discard_slot(row_id)
                    for index, position in indexed:
                        index.delete(row[position], row_id)
                raise
        self._next_row_id = row_ids.stop
        self._stats_cache = None
        # The plan cache reads version deltas as mutation churn: count rows.
        self.version += len(coerced)
        return row_ids

    def _index_rows(self, first: int, rows: list[tuple], indexed) -> None:
        """Register ``rows`` (at consecutive ids from ``first``) in every index."""
        for index, position in indexed:
            for row_id, row in enumerate(rows, first):
                index.insert(row[position], row_id)

    def restore_rows(self, row_id: int, rows) -> None:
        """Recovery-path insert at fixed, consecutive row ids (never logged).

        Replays a logged batch — value lists in schema order: the rows take
        exactly the ids they had before the crash (indexes and session
        references point at row ids, so they must stay stable), and the
        next-id counter advances past them.
        """
        coerced = self._schema.coerce_values(rows)
        self._store_slots(row_id, coerced)
        self._next_row_id = max(self._next_row_id, row_id + len(coerced))
        self._index_rows(row_id, coerced, self._indexed())
        self._stats_cache = None
        self.version += len(coerced)

    def restore_counters(
        self, next_row_id: int, version: int, schema_version: int
    ) -> None:
        """Overwrite the change counters with snapshotted values (recovery)."""
        self._next_row_id = max(self._next_row_id, next_row_id)
        self.version = version
        self.schema_version = schema_version

    def delete(self, row_id: int) -> None:
        row = self._discard_slot(row_id)
        if row is None:
            return
        indexed = self._indexed()
        for index, position in indexed:
            index.delete(row[position], row_id)
        self._stats_cache = None
        self.version += 1
        if self.wal_emit is not None:
            try:
                self.wal_emit({"op": "delete", "tbl": self.name, "rid": row_id})
            except BaseException:
                self._store_slot(row_id, row)  # un-log-able: restore the row
                for index, position in indexed:
                    index.insert(row[position], row_id)
                raise

    def update(self, row_id: int, changes: dict[str, object]) -> None:
        """Overwrite the named columns of one row (``changes`` maps column
        names, any case, to new values)."""
        self.update_many(((row_id, changes),))

    def update_many(self, updates) -> None:
        """:meth:`update` each ``(row_id, changes)`` in turn as one unit: a value
        refused (also against a row changed before) puts every row back, logs
        nothing; a row whose record cannot be logged puts back it and later ones."""
        schema, indexed = self._schema, self._indexed()
        done: list[tuple] = []  # (row id, old row, new row, positions, index moves)

        def put_back(changed: list[tuple]) -> None:
            for row_id, row, _, _, moves in reversed(changed):
                self._store_slot(row_id, row)
                for index, old_value, new_value in reversed(moves):
                    index.delete(new_value, row_id)
                    index.insert(old_value, row_id)

        try:
            for row_id, changes in updates:
                row = self.get(row_id)
                if row is None:
                    continue
                positions = [schema.position(name) for name in changes]
                updated = list(row)
                for position, value in zip(positions, changes.values()):
                    updated[position] = value
                coerced = schema.coerce_values((updated,))[0]
                moves: list[tuple] = []
                done.append((row_id, row, coerced, positions, moves))
                for index, position in indexed:
                    old_value, new_value = row[position], coerced[position]
                    if old_value == new_value:
                        continue
                    if index.unique and new_value is not None and index.lookup(new_value):
                        raise IntegrityError(
                            f"duplicate value {new_value!r} for unique column "
                            f"{index.column!r} of table {self.name!r}"
                        )
                    index.delete(old_value, row_id)
                    index.insert(new_value, row_id)
                    moves.append((index, old_value, new_value))
                self._store_slot(row_id, coerced)
        except BaseException:
            put_back(done)
            raise
        if done:
            self._stats_cache = None
            self.version += len(done)
        for at, (row_id, _, coerced, positions, _) in enumerate(done if self.wal_emit else ()):
            changed = {schema.columns[position].name: coerced[position] for position in positions}
            try:
                self.wal_emit({"op": "update", "tbl": self.name, "rid": row_id, "set": changed})
            except BaseException:
                put_back(done[at:])
                raise

    # -- schema evolution ------------------------------------------------------

    def _rewrite_pages(self, rewrite_row) -> None:
        """Replace every row with ``rewrite_row(row)``, page by page, under pins."""
        for ordinal in sorted(self._page_ids):
            page_id = self._page_ids[ordinal]
            page = self._store.fetch(page_id, self._codec)
            try:
                for slot, row in page.items():
                    page[slot] = rewrite_row(row)
                self._store.mark_dirty(page_id)
            finally:
                self._store.unpin(page_id)

    def add_column(self, column: ColumnSchema, default: object = None) -> None:
        if column.not_null and default is None and self._row_count:
            raise SchemaError(
                f"cannot add NOT NULL column {column.name!r} without a default"
            )
        self._schema = self._schema.with_column_added(column)
        fill = (column.coerce(default) if default is not None else None,)
        self._rewrite_pages(lambda row: row + fill)
        self._codec = _page_codec(self._schema)
        self._stats_cache = None
        self._bump(schema=True)

    def drop_column(self, name: str) -> None:
        canonical = self._schema.column(name).name
        position = self._schema.position(name)
        index = self._indexes.pop(canonical.lower(), None)
        if index is not None:
            index.drop()
        self._schema = self._schema.with_column_dropped(name)
        self._rewrite_pages(lambda row: row[:position] + row[position + 1 :])
        self._codec = _page_codec(self._schema)  # after the rewrite, which read the old layout
        self._stats_cache = None
        self._bump(schema=True)

    def rename_column(self, old: str, new: str) -> None:
        """Rename a column.  Names live only in the schema, so no page is
        rewritten (or dirtied)."""
        canonical = self._schema.column(old).name
        self._schema = self._schema.with_column_renamed(old, new)
        new_canonical = self._schema.column(new).name
        index = self._indexes.pop(canonical.lower(), None)
        if index is not None:
            index.column = new_canonical
            self._indexes[new_canonical.lower()] = index
        self._stats_cache = None
        self._bump(schema=True)

    def rename(self, new_name: str) -> None:
        self._schema = self._schema.renamed(new_name)
        self._bump(schema=True)

    # -- statistics -------------------------------------------------------------

    def statistics(self, refresh: bool = False) -> TableStatistics:
        """Table statistics; cached until the next mutation."""
        if self._stats_cache is None or refresh:
            self._stats_cache = TableStatistics.compute(
                self.name, self.rows(), columns=self._schema.column_names
            )
            if refresh:
                # An explicit refresh changes the planner's costing inputs;
                # let cached plans re-validate against the new snapshot.
                self.version += 1
        return self._stats_cache

    @property
    def cached_statistics(self) -> TableStatistics | None:
        """The statistics snapshot if still fresh, without recomputing.

        The planner consults this so planning never pays for a full statistics
        build on a hot path; stale or absent statistics fall back to cheap
        row-count and index-cardinality estimates.
        """
        return self._stats_cache
