"""The Query Profiler (paper Sections 3 and 4.1).

The profiler sits between the client and the DBMS: it receives standard SQL,
forwards it to the DBMS, and logs the query — together with its features,
runtime statistics, and an output summary — into the Query Storage.  The
paper's key requirement is that it "should not hinder ordinary data
processing"; the profiler therefore supports three modes whose overhead the
C1 experiment measures:

* ``off`` — forward only, nothing is logged (the no-CQMS baseline),
* ``text`` — log the raw query text and runtime statistics only,
* ``features`` — additionally shred syntactic features and summarize output
  (the full query-by-feature data model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.config import CQMSConfig
from repro.core.query_store import QueryStore
from repro.core.records import (
    LoggedQuery,
    OutputSummary,
    RuntimeStats,
    statement_artefacts,
    template_artefacts,
)
from repro.errors import ReproError
from repro.obs.metrics import engine_timer
from repro.sql.tokenizer import strip_comments
from repro.storage.database import Database, QueryResult
from repro.storage.statistics import summarize_output

#: A logged query joining at least this many tables prompts its author for an
#: annotation (Section 2.1: "queries with more than a specified number of
#: tables").
ANNOTATION_MIN_TABLES = 3
#: ... as does one with at least this many nested subqueries ("queries that
#: include nesting").
ANNOTATION_MIN_NESTING = 1


class ProfilingMode(enum.Enum):
    """How much the profiler records about each query."""

    OFF = "off"
    TEXT = "text"
    FEATURES = "features"

    @classmethod
    def parse(cls, value: "ProfilingMode | str") -> "ProfilingMode":
        if isinstance(value, ProfilingMode):
            return value
        return cls(value.lower())


@dataclass
class ProfiledExecution:
    """What the profiler returns to the client for one submitted query."""

    result: QueryResult | None
    record: LoggedQuery | None
    error: str | None = None
    annotation_requested: bool = False

    @property
    def succeeded(self) -> bool:
        return self.error is None


class QueryProfiler:
    """Logs and pre-processes queries while forwarding them to the DBMS."""

    def __init__(
        self,
        database: Database,
        store: QueryStore,
        config: CQMSConfig | None = None,
        clock=None,
        registry=None,
    ):
        self._db = database
        self._store = store
        self._config = config or CQMSConfig()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._mode = ProfilingMode.parse(self._config.profiling_mode)
        #: Metrics registry recording the per-mode logging overhead the C1
        #: experiment ("should not hinder ordinary data processing") measures.
        self._registry = registry
        self._timer = registry.timer if registry is not None else engine_timer

    # -- mode management -------------------------------------------------------

    def set_mode(self, mode: ProfilingMode | str) -> None:
        self._mode = ProfilingMode.parse(mode)

    # -- main entry point --------------------------------------------------------

    def profile(
        self,
        user: str,
        group: str,
        sql: str,
        visibility: str | None = None,
        timestamp: float | None = None,
        timeout_seconds: float | None = None,
    ) -> ProfiledExecution:
        """Execute ``sql`` on the DBMS and (depending on mode) log it.

        Execution errors do not raise: the failed attempt is still logged
        (failed queries are exactly what the correction features learn from)
        and the error is reported in the returned :class:`ProfiledExecution`.
        A statement cancelled by ``timeout_seconds`` is logged the same way —
        the cancellation happened at a batch boundary, so the store and the
        DBMS are both consistent.
        """
        timestamp = self._now() if timestamp is None else timestamp
        result: QueryResult | None = None
        error: str | None = None
        try:
            result = self._db.execute(sql, timeout_seconds=timeout_seconds)
        except ReproError as exc:
            error = str(exc)

        overhead_start = self._timer()
        if self._mode is ProfilingMode.OFF:
            self._observe_overhead(overhead_start)
            return ProfiledExecution(result=result, record=None, error=error)

        record = self._log_record(
            user=user,
            group=group,
            sql=sql,
            visibility=visibility or self._config.default_visibility,
            timestamp=timestamp,
            result=result,
            error=error,
        )
        annotation_requested = self._should_request_annotation(record)
        self._observe_overhead(overhead_start)
        return ProfiledExecution(
            result=result,
            record=record,
            error=error,
            annotation_requested=annotation_requested,
        )

    def _observe_overhead(self, started: float) -> None:
        """Record logging overhead (everything but the DBMS execution)."""
        if self._registry is None:
            return
        self._registry.histogram(
            "profiler_overhead_seconds",
            "profiler logging overhead per submitted query, by mode",
            mode=self._mode.value,
        ).observe(max(0.0, self._timer() - started))

    # -- record construction --------------------------------------------------------

    def _log_record(
        self,
        user: str,
        group: str,
        sql: str,
        visibility: str,
        timestamp: float,
        result: QueryResult | None,
        error: str | None,
    ) -> LoggedQuery:
        """Build the record of one submit and add it to the Query Storage."""
        qid = self._store.next_qid()
        clean_text = sql
        if "--" in sql or "/*" in sql:
            try:
                clean_text = strip_comments(sql)
            except ReproError:
                # An unterminated literal or comment: nothing tokenizes, so
                # the attempt is logged as typed and reads as ``invalid``.
                pass
        clean_text = clean_text.strip()
        runtime = RuntimeStats(
            elapsed_seconds=result.stats.elapsed_seconds if result is not None else 0.0,
            result_cardinality=result.stats.result_cardinality if result is not None else 0,
            rows_scanned=result.stats.rows_scanned if result is not None else 0,
            succeeded=error is None,
            error=error,
        )
        with_features = self._mode is ProfilingMode.FEATURES
        # Features resolve unqualified columns against the schema, and text
        # mode canonicalises differently: artefacts filed under another key
        # are derived again.
        version = self._db.catalog.version
        key = (with_features, version)
        artefacts = self._store.artefacts(clean_text, key)
        if artefacts is None:
            # The user DBMS's AST is the logged text's: stripping comments
            # keeps the token stream.
            schema = self._db.schema_columns() if with_features else None
            prepared = result.prepared if result is not None else None
            if prepared is None or not with_features:
                parsed = result.statement if result is not None else None
                artefacts = statement_artefacts(clean_text, schema, with_features, parsed)
            else:
                shared = self._store.template_artefacts(
                    prepared.template, key, lambda: template_artefacts(prepared, schema)
                )
                artefacts = shared.artefacts(prepared, schema)
        kind, features, canonical, template = artefacts
        record = LoggedQuery(
            qid=qid,
            user=user,
            group=group,
            text=clean_text,
            timestamp=timestamp,
            canonical_text=canonical,
            template_text=template,
            statement_kind=kind,
            features=features,
            runtime=runtime,
            visibility=visibility,
            catalog_version=version,
        )
        if features is not None and result is not None and kind == "select":
            record.output = self._summarize_output(result)
        self._store.add(record, artefacts_key=key)
        return record

    def _summarize_output(self, result: QueryResult) -> OutputSummary:
        """Adaptive output summarization (Section 4.1)."""
        rows = summarize_output(
            result.rows,
            result.columns,
            execution_time=result.stats.elapsed_seconds,
            base_budget=self._config.output_sample_base_budget,
        )
        return OutputSummary(
            columns=list(result.columns),
            rows=[tuple(row) for row in rows],
            total_rows=len(result.rows),
            complete=len(rows) >= len(result.rows),
        )

    def _should_request_annotation(self, record: LoggedQuery) -> bool:
        """Whether the client should prompt the author for an annotation.

        The paper (Section 2.1) proposes requesting annotations "especially
        for queries that are difficult to re-use without proper documentation
        (e.g. queries with more than a specified number of tables, or queries
        that include nesting)".
        """
        if record.features is None:
            return False
        if record.features.num_tables >= ANNOTATION_MIN_TABLES:
            return True
        return record.features.num_subqueries >= ANNOTATION_MIN_NESTING

    def _now(self) -> float:
        return float(self._clock())
