"""The per-engine telemetry bundle the storage layer reports into.

:class:`EngineTelemetry` owns nothing exotic — it is a
:class:`~repro.obs.metrics.MetricsRegistry` (usually shared between the
user database and the Query Storage, distinguished by the ``engine``
label), a :class:`~repro.obs.tracing.SlowQueryLog`, and the handful of
observation methods ``Database.execute`` calls per statement.  Keeping the
methods here — rather than scattering ``registry.counter(...)`` calls
through the storage layer — pins the metric naming scheme in one place:

* every series carries the ``engine`` label (``database`` /
  ``query_storage``),
* counters end in ``_total`` and only go up; the engine owns its counters
  (ExecutionStats, PlanCacheStats, WalStats, BufferPoolStats) and the
  registry reads them through the tables below, which pin the series names,
* latencies are histograms over the shared
  :data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS` ladder with
  p50/p90/p99 readout.

The module is duck-typed against the engine's stats dataclasses on purpose:
``obs`` sits *below* ``storage`` in the import order so the storage layer
may depend on it.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import SlowQueryLog, Trace


# The ``(field, series, help)`` tables of the engine-owned records the
# registry reads.  ExecutionStats amounts are added per statement; the others
# are running totals (counters) and levels (gauges) read at scrape time.
_EXECUTION_COUNTERS = (
    ("rows_scanned", "rows_scanned", "rows fetched by access paths"),
    ("rows_joined", "rows_joined", "rows produced by join operators"),
    ("result_cardinality", "rows_output", "rows returned to clients"),
    ("index_lookups", "index_lookups", "index probes performed"),
    ("batches", "exec_batches", "operator batches consumed"),
    ("groups_emitted", "groups_emitted", "aggregation groups formed"),
    ("agg_seconds", "agg_seconds", "seconds inside the aggregation stage"),
)
_PLAN_CACHE_COUNTERS = (
    ("hits", "plan_cache_hits", "plan-cache template hits"),
    ("misses", "plan_cache_misses", "plan-cache template misses"),
    ("statement_hits", "statement_cache_hits", "statement-cache hits"),
    ("statement_misses", "statement_cache_misses", "statement-cache misses"),
    ("invalidated_ddl", "plan_cache_invalidated_ddl", "plans invalidated by DDL"),
    (
        "invalidated_drift",
        "plan_cache_invalidated_drift",
        "plans invalidated by statistics drift",
    ),
    ("evictions", "plan_cache_evictions", "plans evicted by capacity"),
)
_PLAN_CACHE_GAUGES = (
    ("size", "plan_cache_size", "cached plan templates resident"),
    ("capacity", "plan_cache_capacity", "plan cache capacity"),
)
_WAL_COUNTERS = (
    ("records", "wal_records", "WAL records appended"),
    ("row_mutations", "wal_row_mutations", "row mutations the WAL records carry"),
    ("bytes_written", "wal_bytes_written", "WAL bytes appended"),
    ("syncs", "wal_syncs", "WAL fsync calls"),
    ("flushes", "wal_flushes", "WAL group-commit flushes"),
    ("checkpoints", "wal_checkpoints", "checkpoints taken"),
)
_WAL_GAUGES = (
    ("last_lsn", "wal_last_lsn", "newest assigned log sequence number"),
    (
        "records_since_checkpoint",
        "wal_records_since_checkpoint",
        "row mutations pressing toward the next checkpoint",
    ),
    ("max_batch_records", "wal_max_batch_records", "largest group-commit batch"),
)
_BUFFER_POOL_COUNTERS = (
    ("hits", "buffer_pool_hits", "page requests served from the pool"),
    ("misses", "buffer_pool_misses", "page requests that went to disk"),
    ("evictions", "buffer_pool_evictions", "pages evicted"),
    ("writebacks", "buffer_pool_writebacks", "dirty pages written back"),
    ("pages_allocated", "buffer_pool_pages_allocated", "pages ever allocated"),
)
_BUFFER_POOL_GAUGES = (
    ("resident", "buffer_pool_resident", "pages resident in the pool"),
    ("dirty", "buffer_pool_dirty", "dirty pages resident"),
    ("pins", "buffer_pool_pins", "currently pinned pages"),
    (
        "capacity",
        "buffer_pool_capacity",
        "pool page capacity (0 = unbounded in-memory store)",
    ),
)


class EngineTelemetry:
    """Metrics + tracing attachment point for one database engine."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        engine: str = "database",
        clock: Callable[[], float] | None = None,
        timer: Callable[[], float] | None = None,
        slow_query_threshold_seconds: float = 1.0,
        trace_operators: bool = False,
    ):
        self.registry = registry or MetricsRegistry(clock=clock, timer=timer)
        self.engine = engine
        self.slow_queries = SlowQueryLog(threshold_seconds=slow_query_threshold_seconds)
        #: When True, regular execution collects per-operator NodeStats and
        #: reports them as trace spans + per-operator latency histograms
        #: (the EXPLAIN ANALYZE machinery, always on — costs a few percent).
        self.trace_operators = trace_operators
        self._clock = clock
        self.last_trace: Trace | None = None

    # -- time sources ---------------------------------------------------------

    @property
    def timer(self) -> Callable[[], float]:
        """The duration source every instrumented site shares."""
        return self.registry.timer

    def timestamp(self) -> float:
        """An injectable-clock timestamp (0.0 when no clock was provided)."""
        if self._clock is not None:
            return float(self._clock())
        return 0.0

    # -- per-statement observation --------------------------------------------

    def statement_histogram(self) -> Histogram:
        return self.registry.histogram(
            "statement_seconds",
            "wall latency of executed statements",
            engine=self.engine,
        )

    def begin_trace(self, sql: str) -> Trace:
        return Trace(sql=sql, timestamp=self.timestamp(), timer=self.timer)

    def observe_statement(
        self,
        kind: str,
        wall_seconds: float,
        stats: object | None = None,
        trace: Trace | None = None,
    ) -> None:
        """Record one completed statement (called by ``Database.execute``)."""
        self.registry.counter(
            "statements",
            "statements executed, by statement kind",
            engine=self.engine,
            kind=kind,
        ).inc()
        self.statement_histogram().observe(wall_seconds)
        if stats is not None:
            self._mirror(stats, _EXECUTION_COUNTERS, accumulate=True)
        if trace is not None:
            trace.total_seconds = wall_seconds
            self.last_trace = trace
            self.slow_queries.offer(trace)

    def statement_failed(self, error: str) -> None:
        self.registry.counter(
            "statements_failed",
            "statements that raised, by error class",
            engine=self.engine,
            error=error,
        ).inc()

    def statement_timed_out(self) -> None:
        self.registry.counter(
            "queries_timed_out",
            "statements cancelled at a batch boundary by their timeout budget",
            engine=self.engine,
        ).inc()

    def _mirror(self, stats: object, counters=(), gauges=(), accumulate=False) -> None:
        """Read an engine-owned record into the registry.

        ``accumulate`` adds a per-statement record's amounts to the counters
        (creating a series only once it counts something); otherwise the
        record holds running totals, which the counters are set to.  A field
        the record lacks or holds as None reads as 0.
        """
        for table, is_gauge in ((counters, False), (gauges, True)):
            for field_name, metric, help_text in table:
                value = getattr(stats, field_name, 0) or 0
                if is_gauge:
                    self.registry.gauge(metric, help_text, engine=self.engine).set(value)
                elif not accumulate:
                    self.registry.counter(metric, help_text, engine=self.engine).set_total(value)
                elif value:
                    self.registry.counter(metric, help_text, engine=self.engine).inc(value)

    # -- per-operator observation ---------------------------------------------

    def observe_operators(self, labeled_stats: list[tuple[str, object]]) -> None:
        """Record per-operator actuals (``(operator name, NodeStats)``)."""
        for op_name, stats in labeled_stats:
            wall = getattr(stats, "wall_seconds", 0.0)
            rows = getattr(stats, "rows", 0)
            self.registry.histogram(
                "operator_seconds",
                "inclusive wall time per plan operator execution",
                engine=self.engine,
                op=op_name,
            ).observe(wall)
            if rows:
                self.registry.counter(
                    "operator_rows",
                    "rows produced per plan operator",
                    engine=self.engine,
                    op=op_name,
                ).inc(rows)

    # -- cache / durability mirrors (scrape-time sync) --------------------------

    def sync_engine(self, database: object) -> None:
        """Mirror a Database's cache/durability stats (one scrape's worth)."""
        self._mirror(database.plan_cache_stats(), _PLAN_CACHE_COUNTERS, _PLAN_CACHE_GAUGES)
        wal = database.wal_stats()
        if wal is not None:  # an in-memory database has none
            self._mirror(wal, _WAL_COUNTERS, _WAL_GAUGES)
        self._mirror(database.buffer_stats(), _BUFFER_POOL_COUNTERS, _BUFFER_POOL_GAUGES)
