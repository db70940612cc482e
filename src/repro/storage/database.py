"""The :class:`Database` facade — the "standard DBMS" under the CQMS.

It owns the catalog and the tables, parses and executes SQL, and reports
per-statement execution statistics (elapsed time, cardinality, rows scanned)
which the Query Profiler stores as runtime query features.

A database is in-memory by default (the historical behaviour); opened with
:meth:`Database.open` it becomes *durable*: every mutation is logged to a
write-ahead log (:mod:`repro.storage.wal`), :meth:`Database.checkpoint`
publishes atomic snapshots (:mod:`repro.storage.snapshot`), and reopening the
same ``data_dir`` replays the committed state back
(:mod:`repro.storage.recovery`).
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice

from repro.errors import (
    CatalogError,
    DurabilityError,
    ExecutionError,
    QueryTimeoutError,
    ReproError,
    SchemaError,
)
from repro.obs.metrics import engine_timer
from repro.storage.buffer_pool import BufferPoolStats, PageStore
from repro.storage.catalog import Catalog
from repro.storage.pager import PAGES_FILE_NAME, Pager
from repro.storage.recovery import (
    DirectoryLock,
    RecoveryReport,
    acquire_lock,
    recover,
    release_lock,
)
from repro.storage.snapshot import (
    SNAPSHOT_FILE_NAME,
    column_to_dict,
    schema_to_dict,
    write_checkpoint,
)
from repro.storage.wal import WAL_FILE_NAME, WalStats, WalWriter
from repro.storage.exec_settings import DEFAULT_SETTINGS, ExecutionSettings
from repro.storage.executor import ExecutionStats, Executor
from repro.storage.binder import Binder, table_columns
from repro.storage.expression import compile_expression
from repro.storage.kernels import apply_kernels
from repro.storage.operators import ExecutionContext
from repro.storage.plan_cache import (
    DEFAULT_PLAN_CACHE_SIZE,
    PlanCache,
    PlanCacheStats,
    PreparedStatement,
)
from repro.storage.planner import DmlPlan, PlanExplanation, Planner, SelectPlan
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.statistics import TableStatistics
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.sql.ast_nodes import (
    AlterTableStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.sql.parser import parse


def _plan_with(planner: Planner, statement: Statement) -> SelectPlan | DmlPlan:
    """Plan a SELECT, UPDATE or DELETE with the planner method of its kind."""
    if isinstance(statement, SelectStatement):
        return planner.plan_select(statement)
    if isinstance(statement, UpdateStatement):
        return planner.plan_update(statement)
    return planner.plan_delete(statement)


@dataclass
class QueryResult:
    """The result of :meth:`Database.execute`."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    rowcount: int = 0
    #: The AST of the executed text (None when an AST was passed in), so the
    #: caller need not parse it again.  A SELECT/UPDATE/DELETE run through the
    #: plan cache gives its parameterized template, bound to the text's
    #: constants: that AST is shared with the cached plan and is re-bound by
    #: the next ``execute`` of the template, so nothing may keep it past the
    #: call that made this result (read it, or copy what it says, at once).
    statement: Statement | None = None
    #: The statement cache's prepared form of the text (``statement`` is its
    #: ``statement``): plan-cache key, constants in canonical order and the
    #: token template.  None when the plan cache did not take the statement.
    prepared: PreparedStatement | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def plan_cache_hit(self) -> bool:
        """True when the statement executed through a re-bound cached plan."""
        return self.stats.plan_cache_hit

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        """The first column of the first row, or None for an empty result."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        """All values of the named output column."""
        try:
            index = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"result has no column {name!r}") from None
        return [row[index] for row in self.rows]


class Database:
    """A relational database with a SQL interface (in-memory or durable).

    The ``clock`` argument makes time injectable: the CQMS and the workload
    generators use a simulated clock so that experiments are deterministic.
    ``Database(...)`` is purely in-memory; ``Database.open(data_dir=...)``
    attaches the durability subsystem (WAL + snapshots + crash recovery).
    """

    def __init__(
        self,
        name: str = "db",
        clock=None,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        exec_settings: ExecutionSettings | None = None,
    ):
        self.name = name
        self._catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self._clock = clock if clock is not None else time.monotonic
        #: Batch size, plan verification and buffer-pool size, read by the
        #: planner and executor.
        self.exec_settings = exec_settings or DEFAULT_SETTINGS
        self._plan_cache: PlanCache | None = None
        self.set_plan_cache_size(plan_cache_size)
        #: The page store every heap page of this database lives in.
        #: In-memory databases get an unbounded store (nothing to evict to);
        #: Database.open swaps in a pager-backed one capped at
        #: ``exec_settings.buffer_pool_pages`` before recovery runs.
        self._store = PageStore()
        # Durability state; populated by Database.open for durable databases.
        self._data_dir: str | None = None
        self._wal: WalWriter | None = None
        self._lock: DirectoryLock | None = None
        self._checkpoint_interval = 0
        #: Replayed row mutations still counted in records_since_checkpoint.
        #: They press toward a checkpoint, but never a synchronous one on the
        #: statement path — see _maybe_checkpoint / checkpoint_if_due.
        self._recovered_backlog = 0
        self._closed = False
        #: What crash recovery found when this database was opened (None for
        #: in-memory databases).
        self.last_recovery: RecoveryReport | None = None
        #: Optional telemetry attachment (see :meth:`attach_telemetry`).
        self._telemetry = None
        #: The one duration source for executor seconds and timeout deadlines
        #: — the telemetry registry's timer once telemetry is attached.
        self.statement_timer = engine_timer
        #: The trace of the statement currently executing (set by execute()).
        self._active_trace = None

    # -- durability lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str | os.PathLike,
        name: str = "db",
        clock=None,
        wal_sync: str = "batch",
        checkpoint_interval: int = 0,
        exec_settings: ExecutionSettings | None = None,
    ) -> "Database":
        """Open (creating if needed) a durable database rooted at ``data_dir``.

        Takes an exclusive ``flock`` on the directory's ``LOCK`` file (a
        second open of the same ``data_dir`` raises while the first database
        is alive; the kernel drops the lock automatically when a process is
        killed, so crashed owners never block reopening), runs crash
        recovery — latest valid
        snapshot plus the committed WAL tail — and attaches the write-ahead
        log so every subsequent mutation is logged under ``wal_sync``
        (``"off"`` | ``"commit"`` | ``"batch"``).  ``checkpoint_interval``
        > 0 auto-checkpoints after that many logged row mutations (a batch
        of n rows counts n, like the n records it used to be; DDL counts 1).
        """
        if checkpoint_interval < 0:
            raise DurabilityError("checkpoint_interval must be non-negative")
        data_dir = os.fspath(data_dir)
        os.makedirs(data_dir, exist_ok=True)
        database = cls(name=name, clock=clock, exec_settings=exec_settings)
        lock = acquire_lock(data_dir)
        try:
            database._store = PageStore(
                pager=Pager(os.path.join(data_dir, PAGES_FILE_NAME)),
                capacity=database.exec_settings.buffer_pool_pages,
            )
            report = recover(database, data_dir)
            # Frames outside the adopted checkpoint chains are leftovers of
            # the crashed run's unpublished writes; recycle them.
            database._store.reconcile_free()
            wal = WalWriter(
                os.path.join(data_dir, WAL_FILE_NAME),
                sync=wal_sync,
                start_lsn=report.last_lsn,
                valid_length=report.wal_valid_length,
            )
        except BaseException:
            database._store.close()
            release_lock(lock)
            raise
        database._data_dir = data_dir
        database._lock = lock
        database._wal = wal
        database._checkpoint_interval = checkpoint_interval
        database.last_recovery = report
        # Mutations already sitting in the log count against the checkpoint
        # interval — otherwise a crash-reopen loop that writes fewer than
        # `interval` of them per life would grow the WAL (and recovery time)
        # without bound.  They are remembered as backlog so they press toward
        # the open-time checkpoint below (and checkpoint_if_due), never a
        # synchronous checkpoint inside the first post-recovery statement.
        wal.stats.records_since_checkpoint = report.wal_mutations_scanned
        database._recovered_backlog = report.wal_mutations_scanned
        database._maybe_checkpoint(include_recovered=True)
        for table in database._tables.values():
            database._attach_wal(table)
        return database

    @property
    def is_durable(self) -> bool:
        """True when the database writes a WAL (opened via :meth:`open`)."""
        return self._wal is not None

    @property
    def data_dir(self) -> str | None:
        return self._data_dir

    @property
    def closed(self) -> bool:
        return self._closed

    def checkpoint(self) -> int:
        """Persist a consistent recovery point, then truncate the WAL.

        Incremental: only heap pages dirtied since the last checkpoint are
        written (shadow-paged to fresh frames, so the previous checkpoint
        stays intact until the new one publishes), followed by one small
        metadata file — cost tracks the working set, not the database size.
        Returns the metadata file's size in bytes.  The protocol (flush log
        → flush dirty pages → fsync page file → write ``snapshot.json.tmp``
        → fsync → atomic rename → truncate log) is crash-safe at every
        step; see :mod:`repro.storage.snapshot`.
        """
        self._assert_open()
        if self._wal is None:
            raise DurabilityError(
                "checkpoint() requires a durable database; use Database.open(data_dir=...)"
            )
        self._wal.flush()
        heap_pages = [
            page_id
            for table in self._tables.values()
            if not table.unlogged
            for page_id in table.heap_page_ids()
        ]
        self._store.flush(heap_pages)
        self._store.sync()
        size = write_checkpoint(
            self,
            os.path.join(self._data_dir, SNAPSHOT_FILE_NAME),
            lsn=self._wal.last_lsn,
        )
        self._store.publish(heap_pages)
        self._wal.truncate_log()
        self._recovered_backlog = 0
        return size

    def close(self) -> None:
        """Flush the WAL, release the ``data_dir`` lock, and mark the
        database closed.  Idempotent; further operations raise."""
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()
        self._store.close()
        if self._lock is not None:
            release_lock(self._lock)
            self._lock = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def flush_wal(self) -> None:
        """Force the pending group-commit batch to disk (no-op in-memory)."""
        if self._wal is not None:
            self._wal.flush()

    def wal_stats(self) -> WalStats | None:
        """WAL activity counters, or None for an in-memory database."""
        if self._wal is None:
            return None
        return self._wal.stats

    def buffer_stats(self) -> BufferPoolStats:
        """Buffer-pool counters (hit rate, evictions, dirty pages, pins).

        Always available — an in-memory database reports its unbounded
        store (capacity None, no evictions) so operators can still see
        working-set size.
        """
        return self._store.stats()

    # -- telemetry ---------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Attach an :class:`~repro.obs.telemetry.EngineTelemetry` bundle.

        From then on every executed statement is counted and its latency
        observed into the bundle's registry, traces are recorded (slow ones
        into the ring buffer), and the registry's timer becomes the one
        duration source for executor instrumentation and timeout deadlines.
        """
        self._telemetry = telemetry
        self.statement_timer = telemetry.timer if telemetry is not None else engine_timer

    def _wal_append(self, record: dict) -> None:
        if self._wal is not None:
            self._wal.append(record)

    def _attach_wal(self, table: Table) -> None:
        table.wal_emit = self._wal_append_index if table.unlogged else self._wal_append

    def _wal_append_index(self, record: dict) -> None:
        """An unlogged table's WAL hook: its index builds are logged, its
        row mutations are not."""
        if record["op"] == "create_index":
            self._wal_append(record)

    def _assert_open(self) -> None:
        if self._closed:
            raise DurabilityError(
                f"database {self.name!r} is closed; operations after close() "
                "would not be logged to the write-ahead log"
            )

    def _maybe_checkpoint(self, include_recovered: bool = False) -> None:
        """Auto-checkpoint once enough row mutations were logged since the last.

        On the statement path (``include_recovered=False``) only mutations
        logged *by this process* count: replayed WAL records press toward a
        checkpoint too, but they were already paid for once — triggering a
        synchronous checkpoint inside the first post-recovery statement
        would bill recovery's backlog to an arbitrary unlucky query.  The
        backlog is drained by the explicit open-time call
        (``include_recovered=True``) and by :meth:`checkpoint_if_due`.
        """
        if self._wal is None or self._closed or self._checkpoint_interval <= 0:
            return
        accumulated = self._wal.stats.records_since_checkpoint
        if not include_recovered:
            accumulated -= self._recovered_backlog
        if accumulated >= self._checkpoint_interval:
            self.checkpoint()

    @property
    def checkpoint_due(self) -> bool:
        """True when the interval has been reached, recovered backlog
        included — the signal an off-path scheduler polls."""
        return (
            self._wal is not None
            and not self._closed
            and self._checkpoint_interval > 0
            and self._wal.stats.records_since_checkpoint >= self._checkpoint_interval
        )

    def checkpoint_if_due(self) -> int | None:
        """Checkpoint when :attr:`checkpoint_due`; for explicit scheduling
        *off* the statement path (idle ticks, background threads).  Returns
        the metadata size, or None when nothing was due."""
        if self.checkpoint_due:
            return self.checkpoint()
        return None

    # -- catalog access ----------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def schema_columns(self) -> Mapping[str, frozenset[str]]:
        """The catalog's read-only schema map (:meth:`Catalog.schema_columns`)."""
        return self._catalog.schema_columns()

    # -- schema management (programmatic API) --------------------------------------

    def create_table(
        self, schema: TableSchema, timestamp: float | None = None, unlogged: bool = False
    ) -> Table:
        """Create a table from a programmatic :class:`TableSchema`.

        ``timestamp`` overrides the clock for the catalog event — crash
        recovery passes the originally logged time so the schema-change
        history replays faithfully.  An ``unlogged`` table is logged as DDL
        only (its creation, indexes and ALTERs): its rows skip the WAL and
        checkpoints, so recovery leaves it empty — for data its owner can
        derive again from logged tables.

        DDL follows a validate → log → apply order: every fallible check
        runs before the WAL append, and the apply steps after it cannot
        fail, so a failed append never leaves memory diverged from the log
        (the DML paths achieve the same with explicit rollback).
        """
        self._assert_open()
        timestamp = self._now() if timestamp is None else timestamp
        if self._catalog.has_table(schema.name):
            raise CatalogError(f"table {schema.name!r} already exists")
        record = {"op": "create_table", "schema": schema_to_dict(schema), "ts": timestamp}
        self._wal_append(record | {"unlogged": True} if unlogged else record)
        self._catalog.register(schema, timestamp=timestamp)
        table = Table(schema, store=self._store, unlogged=unlogged)
        self._tables[schema.name.lower()] = table
        if self._wal is not None:
            self._attach_wal(table)
        return table

    def drop_table(self, name: str, timestamp: float | None = None) -> None:
        self._assert_open()
        timestamp = self._now() if timestamp is None else timestamp
        if not self._catalog.has_table(name):
            raise CatalogError(f"unknown table {name!r}")
        self._wal_append({"op": "drop_table", "tbl": name, "ts": timestamp})
        self._catalog.unregister(name, timestamp=timestamp)
        self._tables.pop(name.lower()).drop_storage()

    def insert_rows(self, table_name: str, rows) -> int:
        """Bulk-insert dictionaries into a table; returns the number inserted.

        All of ``rows`` or none of them: see :meth:`Table.insert_many`.
        """
        self._assert_open()
        table = self.table(table_name)
        count = len(table.insert_many(rows))
        self._maybe_checkpoint()
        return count

    def statistics(self, table_name: str, refresh: bool = False) -> TableStatistics:
        return self.table(table_name).statistics(refresh=refresh)

    # -- plan cache -----------------------------------------------------------------

    def set_plan_cache_size(self, size: int) -> None:
        """Resize (or, with 0, disable) the plan cache; existing entries drop."""
        if size <= 0:
            self._plan_cache = None
            return
        self._plan_cache = PlanCache(
            resolve_table=self._resolve_table_for_cache,
            capacity=size,
        )

    def plan_cache_stats(self) -> PlanCacheStats:
        """Hit/miss/invalidation counters of the plan cache."""
        if self._plan_cache is None:
            return PlanCacheStats(capacity=0)
        return self._plan_cache.stats()

    def _resolve_table_for_cache(self, name: str) -> Table | None:
        return self._tables.get(name.lower())

    def _peek_cached_plan(self, statement: Statement):
        """The statement's fresh cached plan, re-bound, without counting a
        lookup (EXPLAIN must not skew the hit rate)."""
        if self._plan_cache is None:
            return None
        prepared = self._plan_cache.prepare(statement)
        return self._plan_cache.lookup(prepared, count=False)

    def _plan(
        self, statement: Statement, prepared=None
    ) -> tuple[SelectPlan | DmlPlan, bool]:
        """A plan for a SELECT/UPDATE/DELETE: from the cache when the template
        is fresh, otherwise freshly planned (and cached).  Returns
        ``(plan, cache_hit)``; a cached plan's parameter nodes are re-bound to
        this instance's constants.

        ``prepared`` is the statement cache's prepared form of raw SQL
        (parameterized and keyed already).
        """
        cache = self._plan_cache
        if cache is not None:
            if prepared is None:
                prepared = cache.prepare(statement)
            cached = cache.lookup(prepared)
            if cached is not None:
                return cached.plan, True
            statement = prepared.statement
        plan = _plan_with(Planner(self), statement)
        if cache is not None:
            cache.store(prepared, plan)
        return plan, False

    def _statement_of(self, text: str):
        """``(statement, prepared, cache_hit)`` of raw SQL.

        With the plan cache on, a SELECT/UPDATE/DELETE comes back prepared:
        ``statement`` is ``prepared.statement``, the parameterized template
        bound to the text's constants.  The statement cache answers a
        byte-identical text with a dict lookup and a text whose token
        template it has admitted with one tokenize (``cache_hit``); any
        other text is parsed from those tokens, prepared, remembered and its
        token template admitted.  Other statements, and every statement with
        the plan cache off, are the parse itself.
        """
        cache = self._plan_cache
        if cache is None:
            return parse(text), None, False
        prepared, tokens = cache.lookup_statement(text)
        if prepared is not None:
            return prepared.statement, prepared, True
        sources: list = []
        statement = parse(text if tokens is None else tokens, sources)
        if not isinstance(statement, (SelectStatement, UpdateStatement, DeleteStatement)):
            return statement, None, False
        prepared = cache.store_statement(text, statement, tokens, sources)
        return prepared.statement, prepared, False

    # -- execution ------------------------------------------------------------------

    def execute(
        self,
        sql_or_statement,
        parameters: None = None,
        timeout_seconds: float | None = None,
    ) -> QueryResult:
        """Parse (if needed) and execute one statement.

        Raw SQL first consults the statement cache (:meth:`_statement_of`):
        a byte-identical resubmission skips the tokenizer and the parser, and
        a text with fresh constants in an admitted token template skips the
        parser — either way the plan-cache key comes memoized.  The result's
        ``statement`` and ``prepared`` hand the bound AST to the caller (the
        Query Profiler builds its record from them).

        ``timeout_seconds`` sets a cooperative budget: past it the executor
        raises :class:`~repro.errors.QueryTimeoutError` at the next batch
        boundary.  DML target scans are materialized before the first write,
        so a timed-out statement never leaves a half-applied mutation.
        """
        self._assert_open()
        telemetry = self._telemetry
        timer = self.statement_timer
        wall_start = timer()
        trace = None
        prepared = None
        cache_hit = False
        text: str | None = None
        if isinstance(sql_or_statement, str):
            text = sql_or_statement
            if telemetry is not None:
                trace = telemetry.begin_trace(text)
                with trace.span("parse") as span:
                    statement, prepared, cache_hit = self._statement_of(text)
                    span["statement_cache_hit"] = cache_hit
            else:
                statement, prepared, cache_hit = self._statement_of(text)
        else:
            statement = sql_or_statement
            if telemetry is not None:
                trace = telemetry.begin_trace(type(statement).__name__)
        deadline = timer() + timeout_seconds if timeout_seconds is not None else None
        start = self._clock()
        self._active_trace = trace
        try:
            result = self._dispatch(statement, prepared, deadline=deadline)
        except QueryTimeoutError:
            if telemetry is not None:
                telemetry.statement_timed_out()
            raise
        except ReproError as error:
            if telemetry is not None:
                telemetry.statement_failed(type(error).__name__)
            raise
        finally:
            self._active_trace = None
        result.stats.elapsed_seconds = max(0.0, self._clock() - start)
        result.stats.statement_cache_hit = cache_hit
        if text is not None:
            result.statement = statement
            result.prepared = prepared
        if telemetry is not None:
            telemetry.observe_statement(
                result.stats.statement_kind,
                max(0.0, timer() - wall_start),
                stats=result.stats,
                trace=trace,
            )
        self._maybe_checkpoint()
        return result

    def explain(self, sql_or_statement, analyze: bool = False) -> PlanExplanation:
        """Plan a statement — and with ``analyze=True``, run it — returning
        the plan tree.

        For SELECT statements the explanation shows the chosen access paths
        (``IndexScan`` vs ``SeqScan``), join order,
        physical join operators with build sides, and per-node cardinality
        estimates.  ``analyze=True`` (EXPLAIN ANALYZE) additionally executes
        the statement and annotates every plan node with its actual row count,
        batch count, and wall time, plus an execution summary line; it is
        supported for SELECT only, since analyzing DML would mutate data.
        """
        statement: Statement = (
            parse(sql_or_statement) if isinstance(sql_or_statement, str) else sql_or_statement
        )
        if analyze:
            if not isinstance(statement, SelectStatement):
                raise ExecutionError(
                    "EXPLAIN ANALYZE supports SELECT statements only "
                    "(analyzing DML would mutate data)"
                )
            return self._explain_analyze(statement)
        if isinstance(statement, (SelectStatement, UpdateStatement, DeleteStatement)):
            kind = type(statement).__name__.removesuffix("Statement").lower()
            cached = self._peek_cached_plan(statement)
            if cached is not None:
                # Cached plans are templates: literals render as '?'.
                lines = cached.plan.explain_lines()
                if lines:
                    lines[0] += "  (cached)"
                return PlanExplanation(
                    statement_kind=kind,
                    lines=lines,
                    root=cached.plan.root,
                    plan_cache_hit=True,
                )
            plan = _plan_with(Planner(self), statement)
            return PlanExplanation(
                statement_kind=kind, lines=plan.explain_lines(), root=plan.root
            )
        if isinstance(statement, InsertStatement):
            Binder(table_columns(self)).values(statement)  # names fail here too
        kind = type(statement).__name__.removesuffix("Statement").lower()
        target = getattr(statement, "table", None)
        line = kind.title() if target is None else f"{kind.title()} [{target}]"
        return PlanExplanation(statement_kind=kind, lines=[line])

    def _explain_analyze(self, statement: SelectStatement) -> PlanExplanation:
        """EXPLAIN ANALYZE a SELECT: execute it collecting per-node actuals.

        The plan comes through the regular plan cache (the execution is real,
        so counting the lookup keeps the hit rate honest); per-node wall times
        use ``time.perf_counter`` while the summary's elapsed time uses the
        database's injectable clock, exactly like :meth:`execute`.
        """
        plan, cache_hit = self._plan(statement)
        executor = Executor(self)
        node_stats: dict = {}
        start = self._clock()
        columns, rows = executor.execute_plan(plan, node_stats=node_stats)
        elapsed = max(0.0, self._clock() - start)
        stats = executor.metrics
        stats.elapsed_seconds = elapsed
        stats.plan_cache_hit = cache_hit
        lines = plan.explain_lines(node_stats=node_stats)
        if cache_hit:
            lines[0] += "  (cached)"
        summary = (
            f"Execution: {len(rows)} rows in {elapsed * 1000.0:.3f} ms "
            f"(rows_scanned={stats.rows_scanned}, batches={stats.batches}, "
            f"index_lookups={stats.index_lookups})"
        )
        if plan.aggregate is not None:
            summary += (
                f" aggregation: groups={stats.groups_emitted} "
                f"in {stats.agg_seconds * 1000.0:.3f} ms"
            )
        lines.append(summary)
        return PlanExplanation(
            statement_kind="select",
            lines=lines,
            root=plan.root,
            plan_cache_hit=cache_hit,
            analyzed=True,
            stats=stats,
        )

    def _dispatch(
        self,
        statement: Statement,
        prepared=None,
        deadline: float | None = None,
    ) -> QueryResult:
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement, prepared, deadline=deadline)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, deadline=deadline)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement, prepared, deadline=deadline)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, prepared, deadline=deadline)
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTableStatement):
            return self._execute_drop_table(statement)
        if isinstance(statement, AlterTableStatement):
            return self._execute_alter_table(statement)
        if isinstance(statement, CreateIndexStatement):
            return self._execute_create_index(statement)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_select(
        self,
        statement: SelectStatement,
        prepared=None,
        deadline: float | None = None,
    ) -> QueryResult:
        telemetry = self._telemetry
        trace = self._active_trace
        if trace is not None:
            with trace.span("plan") as span:
                plan, cache_hit = self._plan(statement, prepared)
                span["plan_cache_hit"] = cache_hit
        else:
            plan, cache_hit = self._plan(statement, prepared)
        executor = Executor(self, deadline=deadline)
        node_stats: dict | None = None
        if telemetry is not None and telemetry.trace_operators:
            node_stats = {}
        if trace is not None:
            with trace.span("execute"):
                columns, rows = executor.execute_plan(plan, node_stats=node_stats)
        else:
            columns, rows = executor.execute_plan(plan, node_stats=node_stats)
        if node_stats:
            self._report_operator_stats(plan, node_stats, trace)
        stats = executor.metrics
        stats.plan_cache_hit = cache_hit
        return QueryResult(columns=columns, rows=rows, stats=stats, rowcount=len(rows))

    def _report_operator_stats(self, plan, node_stats: dict, trace) -> None:
        """Turn collected NodeStats into trace spans + per-operator series.

        Walks the plan tree in execution order so the span list reads like
        EXPLAIN ANALYZE output; keyed by operator class name because that is
        the stable, low-cardinality label the registry can afford.
        """
        labeled: list[tuple[str, object]] = []
        stack = [plan.root]
        while stack:
            op = stack.pop()
            stats = node_stats.get(id(op))
            if stats is not None:
                labeled.append((type(op).__name__, stats))
            stack.extend(reversed(op.children))
        if trace is not None:
            for op_name, stats in labeled:
                trace.add_span(
                    f"op:{op_name}",
                    stats.wall_seconds,
                    rows=stats.rows,
                    batches=stats.batches,
                )
        if self._telemetry is not None and labeled:
            self._telemetry.observe_operators(labeled)

    def _execute_insert(
        self, statement: InsertStatement, deadline: float | None = None
    ) -> QueryResult:
        table = self.table(statement.table)
        rows = Binder(table_columns(self)).values(statement)  # checks the column list
        stats = ExecutionStats(statement_kind="insert")
        target_columns = list(statement.columns) or table.schema.column_names
        if statement.select is not None:
            # The readable half of INSERT ... SELECT honors the timeout
            # budget; once writes begin the statement runs to completion so a
            # cancellation never leaves a half-applied mutation.
            select_result = self._execute_select(statement.select, deadline=deadline)
            # Reading the source is the work an INSERT ... SELECT does.
            stats.rows_scanned = select_result.stats.rows_scanned
            stats.rows_joined = select_result.stats.rows_joined
            stats.index_lookups = select_result.stats.index_lookups
            if len(select_result.columns) != len(target_columns):
                raise ExecutionError(
                    f"INSERT into {statement.table!r} selects "
                    f"{len(select_result.columns)} columns for "
                    f"{len(target_columns)} target columns"
                )
            value_lists = select_result.rows
        else:
            value_lists = [[compile_expression(expr, [])(()) for expr in row] for row in rows]
            for values in value_lists:
                if len(values) != len(target_columns):
                    raise ExecutionError(
                        f"INSERT into {statement.table!r} supplies {len(values)} values "
                        f"for {len(target_columns)} columns"
                    )
        width = len(table.schema.columns)
        positions = [table.schema.position(column) for column in target_columns]
        if positions != list(range(width)):
            # A column list: each value goes to its column's position, and
            # the columns the list leaves out are NULL.
            placed = []
            for values in value_lists:
                row = [None] * width
                for position, value in zip(positions, values):
                    row[position] = value
                placed.append(row)
            value_lists = placed
        # One batch per statement: a row the table rejects leaves none behind.
        count = len(table.insert_values(value_lists))
        stats.result_cardinality = count
        return QueryResult(stats=stats, rowcount=count)

    def _find_dml_targets(
        self, plan: DmlPlan, executor: Executor, deadline: float | None = None
    ) -> list[tuple[int, tuple]]:
        """Candidate ``(row_id, row tuple)`` pairs of a planned UPDATE/DELETE.

        The plan's access path (an index scan when the WHERE allows it)
        produces candidates; residual conjuncts are re-checked 128 at a
        time.  The list is materialized before any mutation so the scan
        never observes its own writes — which is also why the timeout budget
        is only checked here, during the read phase: a cancelled DML
        statement has written nothing.
        """
        ctx = ExecutionContext(
            metrics=executor.metrics,
            run_subquery=executor._run_subquery,
            deadline=deadline,
            timer=self.statement_timer,
        )
        plan.frame.enter(ctx)
        pairs = plan.scan.pairs(ctx)
        matches = []
        while chunk := list(islice(pairs, 128)):
            ctx.tick()
            rows = [row for _, row in chunk]
            matches.extend(chunk[i] for i in apply_kernels(plan.kernels, rows))
        return matches

    def _execute_update(
        self,
        statement: UpdateStatement,
        prepared=None,
        deadline: float | None = None,
    ) -> QueryResult:
        table = self.table(statement.table)
        executor = Executor(self, deadline=deadline)
        plan, cache_hit = self._plan(statement, prepared)
        # All values first, then one unit of rows: a refused UPDATE changes nothing.
        updates = [
            (row_id, {column: value(row) for column, value in plan.values})
            for row_id, row in self._find_dml_targets(plan, executor, deadline)
        ]
        table.update_many(updates)
        return self._dml_result(executor, "update", len(updates), cache_hit)

    def _execute_delete(
        self,
        statement: DeleteStatement,
        prepared=None,
        deadline: float | None = None,
    ) -> QueryResult:
        table = self.table(statement.table)
        executor = Executor(self, deadline=deadline)
        plan, cache_hit = self._plan(statement, prepared)
        doomed = self._find_dml_targets(plan, executor, deadline)
        for row_id, _ in doomed:
            table.delete(row_id)
        return self._dml_result(executor, "delete", len(doomed), cache_hit)

    @staticmethod
    def _dml_result(executor: Executor, kind: str, count: int, cache_hit: bool) -> QueryResult:
        """The executor's record of an UPDATE/DELETE, completed by the facade."""
        stats = executor.metrics
        stats.statement_kind = kind
        stats.result_cardinality = count
        stats.plan_cache_hit = cache_hit
        return QueryResult(stats=stats, rowcount=count)

    def _execute_create_table(self, statement: CreateTableStatement) -> QueryResult:
        if self.has_table(statement.table):
            if statement.if_not_exists:
                return QueryResult(stats=ExecutionStats(statement_kind="create_table"))
            raise CatalogError(f"table {statement.table!r} already exists")
        columns = [
            ColumnSchema(
                name=column.name,
                data_type=DataType.from_sql(column.type_name),
                not_null=column.not_null,
                primary_key=column.primary_key,
                unique=column.unique,
            )
            for column in statement.columns
        ]
        self.create_table(TableSchema(name=statement.table, columns=columns))
        return QueryResult(stats=ExecutionStats(statement_kind="create_table"))

    def _execute_drop_table(self, statement: DropTableStatement) -> QueryResult:
        if not self.has_table(statement.table):
            if statement.if_exists:
                return QueryResult(stats=ExecutionStats(statement_kind="drop_table"))
            raise CatalogError(f"unknown table {statement.table!r}")
        self.drop_table(statement.table)
        return QueryResult(stats=ExecutionStats(statement_kind="drop_table"))

    def alter_table(
        self,
        table_name: str,
        action: str,
        column: ColumnSchema | None = None,
        column_name: str | None = None,
        new_name: str | None = None,
        timestamp: float | None = None,
    ) -> None:
        """Apply one schema-evolution action (the data-level ALTER TABLE).

        Shared by SQL execution and WAL replay: the log stores exactly these
        arguments, so recovery re-runs the same code path (with its original
        ``timestamp``) instead of a parallel implementation.

        Like the other DDL entry points this validates everything fallible
        *before* appending the WAL record (dry-running the schema change on
        the immutable :class:`TableSchema`), so the apply steps after the
        append cannot fail and memory never diverges from the log.
        """
        self._assert_open()
        table = self.table(table_name)
        timestamp = self._now() if timestamp is None else timestamp
        if action == "add_column":
            assert column is not None
            table.schema.with_column_added(column)  # dry-run: duplicate check
            if column.not_null and len(table):
                raise SchemaError(
                    f"cannot add NOT NULL column {column.name!r} without a default"
                )
        elif action == "drop_column":
            table.schema.with_column_dropped(column_name)
        elif action == "rename_column":
            table.schema.with_column_renamed(column_name, new_name)
        elif action == "rename_table":
            # Renaming onto another table would silently destroy it (and the
            # WAL would replay the destruction).  Case-only self-renames are
            # fine — the old and new keys coincide.
            if (
                new_name.lower() != table_name.lower()
                and self._catalog.has_table(new_name)
            ):
                raise CatalogError(
                    f"cannot rename table {table_name!r} to {new_name!r}: "
                    "a table with that name already exists"
                )
        else:
            raise ExecutionError(f"unsupported ALTER action {action!r}")
        self._wal_append(
            {
                "op": "alter_table",
                "tbl": table_name,
                "action": action,
                "column": None if column is None else column_to_dict(column),
                "column_name": column_name,
                "new_name": new_name,
                "ts": timestamp,
            }
        )
        if action == "add_column":
            table.add_column(column)
            detail = column.name
        elif action == "drop_column":
            table.drop_column(column_name)
            detail = column_name or ""
        elif action == "rename_column":
            table.rename_column(column_name, new_name)
            detail = f"{column_name}->{new_name}"
        else:  # rename_table
            table.rename(new_name)
            # Remove the old key before inserting the new one: a case-only
            # rename (t -> T) maps both names to the same key, and the
            # delete-after-insert order would drop the table entirely.
            del self._tables[table_name.lower()]
            self._tables[new_name.lower()] = table
            detail = f"{table_name}->{new_name}"
        self._catalog.replace_schema(
            table_name,
            table.schema,
            kind=action,
            detail=detail,
            timestamp=timestamp,
        )

    def _execute_alter_table(self, statement: AlterTableStatement) -> QueryResult:
        column: ColumnSchema | None = None
        if statement.action == "add_column":
            assert statement.column is not None
            column = ColumnSchema(
                name=statement.column.name,
                data_type=DataType.from_sql(statement.column.type_name),
                not_null=statement.column.not_null,
                unique=statement.column.unique,
            )
        self.alter_table(
            statement.table,
            statement.action,
            column=column,
            column_name=statement.column_name,
            new_name=statement.new_name,
        )
        return QueryResult(stats=ExecutionStats(statement_kind="alter_table"))

    def _execute_create_index(self, statement: CreateIndexStatement) -> QueryResult:
        """``CREATE INDEX``.  An index name belongs to one (table, column,
        unique) definition database-wide, as in sqlite; re-creating that
        exact definition is a no-op (the Query Storage re-runs its index
        DDL on every reopen)."""
        table = self.table(statement.table)
        name, column = statement.name.lower(), statement.column.lower()
        for other in self._tables.values():
            for index in other.index_definitions():
                if index.name.lower() == name and not (
                    other is table
                    and index.column.lower() == column
                    and index.unique == statement.unique
                ):
                    raise SchemaError(
                        f"index {statement.name!r} already exists on "
                        f"{other.name}.{index.column}"
                    )
        table.create_index(
            statement.name,
            statement.column,
            unique=statement.unique,
            kind=statement.kind,
        )
        return QueryResult(stats=ExecutionStats(statement_kind="create_index"))

    # -- misc ---------------------------------------------------------------------

    def _now(self) -> float:
        return float(self._clock())

    def total_rows(self) -> int:
        """Total number of rows across all tables (used in tests and examples)."""
        return sum(len(table) for table in self._tables.values())
