"""The CQMS facade: the whole Figure 4 architecture behind one object.

``CQMS`` wires together the DBMS, the Query Storage, and the four server
components (Query Profiler, Meta-Query Executor, Query Miner, Query
Maintenance), and exposes one method per client interaction mode:

* **Traditional** — :meth:`CQMS.submit` forwards SQL through the profiler,
  :meth:`CQMS.annotate` attaches documentation,
* **Search & Browse** — :meth:`CQMS.search_keyword`, :meth:`CQMS.search_features`,
  :meth:`CQMS.search_sql`, :meth:`CQMS.search_parse_tree`, :meth:`CQMS.search_by_data`,
  :meth:`CQMS.similar_queries`, :meth:`CQMS.browser`,
* **Assisted** — :meth:`CQMS.assist` returns completions, corrections, and
  recommendations for a partially written query (the Figure 3 panel),
* **Administrative** — :meth:`CQMS.admin`, :meth:`CQMS.run_miner`,
  :meth:`CQMS.run_maintenance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import SimulatedClock
from repro.core.access_control import AccessControl, Principal, Visibility
from repro.core.admin import Administrator
from repro.core.browse import QueryBrowser
from repro.core.completion import CompletionEngine, CompletionSuggestion
from repro.core.config import CQMSConfig
from repro.core.correction import Correction, CorrectionEngine
from repro.core.maintenance import MaintenanceReport, QueryMaintenance
from repro.core.meta_query import DataCondition, FeatureCondition, MetaQueryExecutor
from repro.core.miner import MiningReport, QueryMiner
from repro.core.profiler import ProfiledExecution, ProfilingMode, QueryProfiler
from repro.core.query_store import QueryStore
from repro.core.ranking import RankingFunction, RankingWeights
from repro.core.recommender import QueryRecommender, Recommendation
from repro.core.records import LoggedQuery, draft_features
from repro.core.tutorial import TutorialGenerator, TutorialSection
from repro.errors import ReproError
from repro.obs import AdmissionController, EngineTelemetry, MetricsRegistry, QueryLimits
from repro.sql.parse_tree import TreePattern
from repro.storage.database import Database
from repro.storage.exec_settings import ExecutionSettings


@dataclass
class AssistResponse:
    """Everything the assisted-interaction client displays (Figure 3)."""

    completions: dict[str, list[CompletionSuggestion]] = field(default_factory=dict)
    corrections: list[Correction] = field(default_factory=list)
    similar_queries: list[Recommendation] = field(default_factory=list)

    @property
    def has_content(self) -> bool:
        return bool(
            any(self.completions.values()) or self.corrections or self.similar_queries
        )


class CQMS:
    """A Collaborative Query Management System over a DBMS."""

    def __init__(
        self,
        database: Database,
        config: CQMSConfig | None = None,
        clock: SimulatedClock | None = None,
    ):
        self.config = config or CQMSConfig()
        self.config.validate()
        self.clock = clock or SimulatedClock()
        self.database = database
        self.store = QueryStore(
            clock=self.clock,
            exec_settings=ExecutionSettings(buffer_pool_pages=self.config.buffer_pool_pages),
            data_dir=self.config.data_dir,
            wal_sync=self.config.wal_sync,
            checkpoint_interval=self.config.checkpoint_interval,
            schema=database.schema_columns,
        )
        self.access_control = AccessControl(
            default_visibility=Visibility.parse(self.config.default_visibility)
        )
        # -- observability + admission control ------------------------------
        # One shared registry; the two engines are told apart by the
        # ``engine`` label.  Admission runs with telemetry on or off (only
        # its counters need the registry); its token buckets refill from the
        # simulated clock, so rate-limit tests are deterministic.
        self.metrics: MetricsRegistry | None = None
        self.telemetry: EngineTelemetry | None = None
        self.store_telemetry: EngineTelemetry | None = None
        if self.config.telemetry_enabled:
            self.metrics = MetricsRegistry(clock=self.clock)
            self.telemetry = EngineTelemetry(
                registry=self.metrics,
                engine="database",
                clock=self.clock,
                slow_query_threshold_seconds=self.config.slow_query_threshold_seconds,
                trace_operators=self.config.trace_operators,
            )
            self.store_telemetry = EngineTelemetry(
                registry=self.metrics,
                engine="query_storage",
                clock=self.clock,
                slow_query_threshold_seconds=self.config.slow_query_threshold_seconds,
                trace_operators=self.config.trace_operators,
            )
            database.attach_telemetry(self.telemetry)
            self.store.attach_telemetry(self.store_telemetry)
        self.admission = AdmissionController(
            self.metrics,
            clock=self.clock,
            defaults=QueryLimits(
                rate_limit_qps=self.config.rate_limit_qps,
                rate_limit_burst=self.config.rate_limit_burst,
                statement_timeout_seconds=self.config.statement_timeout_seconds,
            ),
        )
        ranking = RankingFunction(RankingWeights.from_config(self.config.ranking))
        self.ranking = ranking
        self.profiler = QueryProfiler(
            database, self.store, self.config, clock=self.clock, registry=self.metrics
        )
        self.meta_query = MetaQueryExecutor(
            self.store, self.access_control, self.config, ranking=ranking, clock=self.clock
        )
        self.completion = CompletionEngine(self.store)
        self.correction = CorrectionEngine(self.store)
        self.recommender = QueryRecommender(
            self.store,
            self.meta_query,
            self.access_control,
            self.config,
            ranking=ranking,
            clock=self.clock,
        )
        self.miner = QueryMiner(self.store, self.config)
        self.maintenance = QueryMaintenance(
            database, self.store, self.config, access_control=self.access_control
        )
        self._browser = QueryBrowser(
            self.store, self.access_control, ranking=ranking, clock=self.clock
        )
        self._admin = Administrator(
            self.store, self.access_control, self.config, self.miner, self.maintenance
        )
        self._tutorial = TutorialGenerator(self.store)

    # -- user management ------------------------------------------------------------

    def register_user(self, name: str, group: str, is_admin: bool = False) -> Principal:
        """Register a CQMS user belonging to a collaboration group."""
        return self.access_control.register(name, group, is_admin=is_admin)

    # -- Traditional Interaction Mode --------------------------------------------------

    def submit(
        self,
        user: str,
        sql: str,
        visibility: str | None = None,
        timestamp: float | None = None,
    ) -> ProfiledExecution:
        """Submit a standard SQL query; it is executed and logged.

        Submission first passes admission control: a rate-limited principal
        gets a typed :class:`~repro.errors.RateLimitedError` *before* any
        parsing, execution, or logging, and the admitted statement carries
        its effective timeout budget (config default overridden by the
        principal's :class:`~repro.obs.admission.QueryLimits`).  An unknown
        ``visibility`` raises :class:`~repro.errors.AccessControlError` before
        the statement runs; a known one is stored lower-cased.
        """
        principal = self.access_control.principal(user)
        if visibility is not None:
            visibility = Visibility.parse(visibility).value
        budget = self.admission.admit(
            principal.name, self.access_control.limits_for(principal.name)
        )
        return self.profiler.profile(
            user=principal.name,
            group=principal.group,
            sql=sql,
            visibility=visibility,
            timestamp=timestamp,
            timeout_seconds=budget.timeout_seconds,
        )

    def explain(self, user: str, sql: str, analyze: bool = False):
        """EXPLAIN a user query against the DBMS.

        Returns the engine's plan tree (access paths, join order, estimates);
        with ``analyze=True`` the query is executed and every node carries its
        actual rows, batches, and wall time (SELECT only).
        """
        self.access_control.principal(user)
        return self.database.explain(sql, analyze=analyze)

    def explain_meta(self, user: str, meta_sql: str, analyze: bool = False):
        """EXPLAIN (optionally ANALYZE) a SQL meta-query over the Query
        Storage feature relations."""
        self.access_control.principal(user)
        return self.meta_query.explain_meta_sql(meta_sql, analyze=analyze)

    # -- observability ----------------------------------------------------------

    def set_user_limits(self, user: str, limits: QueryLimits | None) -> None:
        """Set (or clear) a principal's admission limits.

        Unset fields inherit the config-wide defaults
        (``rate_limit_qps`` / ``rate_limit_burst`` /
        ``statement_timeout_seconds``).
        """
        self.access_control.set_limits(user, limits)

    def metrics_text(self) -> str:
        """Both engines' metrics in Prometheus text exposition format.

        Scrape-time mirrors (plan cache, WAL, buffer pool) are refreshed
        first, so the rendering is a consistent point-in-time view.
        """
        if self.metrics is None:
            raise ReproError("telemetry is disabled (config.telemetry_enabled)")
        self.telemetry.sync_engine(self.database)
        self.store_telemetry.sync_engine(self.store.meta_database)
        return self.metrics.render()

    def slow_queries(self) -> list:
        """Slow-query traces of both engines, newest last per engine."""
        entries: list = []
        for telemetry in (self.telemetry, self.store_telemetry):
            if telemetry is not None:
                entries.extend(telemetry.slow_queries.entries())
        return entries

    def plan_cache_stats(self) -> dict[str, object]:
        """Plan-cache counters of both engines the CQMS runs on.

        ``"database"`` is the user DBMS, ``"query_storage"`` the meta-database
        holding the feature relations (where the templated Figure 1
        meta-queries make the hit rate interesting).
        """
        return {
            "database": self.database.plan_cache_stats(),
            "query_storage": self.store.plan_cache_stats(),
        }

    # -- durability ---------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the Query Storage meta-database and truncate its WAL.

        Requires ``config.data_dir`` (a durable Query Storage); raises
        :class:`~repro.errors.DurabilityError` otherwise.
        """
        return self.store.checkpoint()

    def close(self) -> None:
        """Flush and release the durable Query Storage (idempotent).

        The user DBMS is owned by the caller and is *not* closed here — but
        ``CQMS`` works as a context manager for the common script shape
        ``with CQMS(db, config=...) as cqms: ...``.
        """
        self.store.close()

    def __enter__(self) -> "CQMS":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def durability_stats(self) -> dict[str, object]:
        """WAL counters of both engines (None marks an in-memory engine).

        ``"database"`` is the user DBMS, ``"query_storage"`` the meta-database
        holding the feature relations — the one ``config.data_dir`` makes
        durable, where logged-query volume makes the group-commit batch sizes
        interesting.
        """
        return {
            "database": self.database.wal_stats(),
            "query_storage": self.store.wal_stats(),
            "database buffer pool": self.database.buffer_stats(),
            "query_storage buffer pool": self.store.buffer_stats(),
        }

    # -- static analysis of the query log ---------------------------------------------

    def lint_log(self, mark: bool = True) -> dict[int, list]:
        """Lint every logged query against the live user-database schema.

        Delegates to :meth:`~repro.core.query_store.QueryStore.lint_log` with
        the user DBMS's catalog (full types and indexes, so the type-mismatch
        and non-sargable rules participate).  With ``mark=True``, hard errors
        auto-populate ``Queries.invalidReason``.
        """
        return self.store.lint_log(
            catalog=self.database.catalog,
            table_provider=self.database,
            mark=mark,
        )

    def query_health(self) -> dict[str, dict[str, object]]:
        """Per-user lint summary of the query log (the Workbench panel data).

        For each user: their query count, lint finding counts by severity,
        how many of their queries are currently flagged invalid, and up to
        three example findings (worst first).  Linting here never marks —
        the panel observes; :meth:`lint_log` enforces.
        """
        from repro.analysis.framework import Severity

        findings = self.lint_log(mark=False)
        health: dict[str, dict[str, object]] = {}
        for record in self.store.all_queries():
            entry = health.setdefault(
                record.user,
                {
                    "queries": 0,
                    "flagged_invalid": 0,
                    "errors": 0,
                    "warnings": 0,
                    "info": 0,
                    "examples": [],
                },
            )
            entry["queries"] += 1
            if record.flagged_invalid:
                entry["flagged_invalid"] += 1
            for diagnostic in findings.get(record.qid, ()):
                if diagnostic.severity is Severity.ERROR:
                    entry["errors"] += 1
                elif diagnostic.severity is Severity.WARNING:
                    entry["warnings"] += 1
                else:
                    entry["info"] += 1
        for entry_user, entry in health.items():
            examples = [
                diagnostic
                for record in self.store.all_queries()
                if record.user == entry_user
                for diagnostic in findings.get(record.qid, ())
            ]
            examples.sort(key=lambda d: -int(d.severity))
            entry["examples"] = [d.format() for d in examples[:3]]
        return health

    def annotate(self, user: str, qid: int, body: str) -> None:
        """Attach an annotation to a query the user can see."""
        principal = self.access_control.principal(user)
        record = self.store.get(qid)
        if not self.access_control.can_see(principal, record):
            # Users may only annotate queries they are allowed to see.
            self.access_control.require_owner_or_admin(principal, record)
        self.store.add_annotation(qid, author=principal.name, body=body, timestamp=self.clock.now)

    # -- Search & Browse Interaction Mode ------------------------------------------------

    def search_keyword(self, user: str, keywords, limit: int | None = None) -> list[LoggedQuery]:
        return self.meta_query.keyword_search(user, keywords, limit=limit)

    def search_substring(self, user: str, needle: str, limit: int | None = None) -> list[LoggedQuery]:
        return self.meta_query.substring_search(user, needle, limit=limit)

    def search_features(
        self, user: str, condition: FeatureCondition, limit: int | None = None
    ) -> list[LoggedQuery]:
        return self.meta_query.by_feature(user, condition, limit=limit)

    def search_sql(self, user: str, meta_sql: str) -> list[LoggedQuery]:
        return self.meta_query.by_feature_sql(user, meta_sql)

    def search_like_partial(self, user: str, partial_sql: str) -> list[LoggedQuery]:
        """The Figure 1 flow: auto-generate and run the feature meta-query."""
        return self.meta_query.find_queries_like_partial(user, partial_sql)

    def search_parse_tree(
        self, user: str, pattern: TreePattern, limit: int | None = None
    ) -> list[LoggedQuery]:
        return self.meta_query.by_parse_tree(user, pattern, limit=limit)

    def search_by_data(
        self, user: str, condition: DataCondition, limit: int | None = None
    ) -> list[LoggedQuery]:
        return self.meta_query.by_data(user, condition, limit=limit)

    def similar_queries(self, user: str, sql: str, k: int | None = None) -> list[LoggedQuery]:
        return self.meta_query.knn(user, sql, k=k)

    def browser(self) -> QueryBrowser:
        """The Search & Browse view layer."""
        return self._browser

    # -- Assisted Interaction Mode -----------------------------------------------------------

    def assist(self, user: str, partial_sql: str, k: int = 3) -> AssistResponse:
        """Everything the assisted client shows while the user types (Figure 3)."""
        response = AssistResponse()
        draft = draft_features(partial_sql)
        response.completions = self.completion.suggest(draft, limit=k)
        response.corrections = self.correction.correct_names(draft)
        try:
            response.similar_queries = self.recommender.recommend(user, draft, k=k)
        except ReproError:
            response.similar_queries = []
        return response

    def recommend(self, user: str, sql: str, k: int = 5) -> list[Recommendation]:
        """Full query recommendations for the user's current query."""
        return self.recommender.recommend(user, sql, k=k)

    def correct(self, user: str, sql: str) -> list[Correction]:
        """Name corrections plus, if the query ran empty, predicate corrections."""
        corrections = self.correction.correct_names(sql)
        try:
            result = self.database.execute(sql)
            if result.stats.statement_kind == "select" and not result.rows:
                corrections.extend(self.correction.correct_empty_result(sql))
        except ReproError:
            pass
        return corrections

    def tutorial(self, max_relations: int | None = None) -> list[TutorialSection]:
        """Generate the dataset tutorial from the current query log."""
        report = self.miner.last_report
        return self._tutorial.generate(
            max_relations=max_relations,
            corrections=self.correction.correction_log,
            edit_patterns=report.edit_patterns if report is not None else None,
        )

    # -- Administrative Interaction Mode ----------------------------------------------------------

    def admin(self) -> Administrator:
        return self._admin

    def run_miner(self) -> MiningReport:
        """Run the background Query Miner once (normally periodic)."""
        report = self.miner.run()
        # Refresh the completion engine with the freshly mined rules.
        self.completion.refresh(rule_index=report.rule_index)
        return report

    def run_maintenance(self) -> MaintenanceReport:
        """Run the background Query Maintenance once (normally periodic)."""
        return self.maintenance.check_schema_validity()

    # -- convenience -------------------------------------------------------------------------------

    def replay_workload(self, events, run_miner_every: int | None = None) -> int:
        """Replay a generated workload (``WorkloadQuery`` events) into the CQMS.

        Users are auto-registered, the simulated clock follows the event
        timestamps, annotations attached to events are stored, and the miner
        can be run periodically.  Returns the number of queries submitted.
        """
        submitted = 0
        for event in events:
            if not self.access_control.has_principal(event.user):
                self.register_user(event.user, event.group)
            if event.timestamp > self.clock.now:
                self.clock.set(event.timestamp)
            execution = self.submit(event.user, event.sql, timestamp=event.timestamp)
            submitted += 1
            if event.annotation and execution.record is not None:
                self.annotate(event.user, execution.record.qid, event.annotation)
            if run_miner_every and submitted % run_miner_every == 0:
                self.run_miner()
        return submitted
