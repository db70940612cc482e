"""CQMS configuration.

The paper's System Administrative Interaction mode (Section 2.4) requires
administrators to "adjust tunable parameters such as the sample size for the
query-by-data approach", give preference to ranking functions, and exclude
irrelevant features from similarity functions.  All such knobs live here so
that the :class:`~repro.core.admin.Administrator` can change them at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RankingWeightsConfig:
    """Weights of the composite ranking function (Section 2.3).

    Each component is normalized to [0, 1] before weighting; a weight of zero
    disables the component (used by the A2 ranking ablation).
    """

    similarity: float = 1.0
    popularity: float = 0.4
    recency: float = 0.2
    runtime: float = 0.15
    cardinality: float = 0.1
    quality: float = 0.15


@dataclass
class CQMSConfig:
    """All tunable parameters of the CQMS engine."""

    # -- profiling (Section 2.1 / 4.1) --------------------------------------
    profiling_mode: str = "features"          # "off" | "text" | "features"
    output_sample_base_budget: int = 32       # rows kept for a fast query
    output_sample_seconds_per_row: float = 0.05
    output_sample_max_budget: int = 2000
    annotation_request_min_tables: int = 3    # ask for annotations on complex queries
    annotation_request_min_nesting: int = 1

    # -- sessions (Section 2.2 / Figure 2) -----------------------------------
    session_gap_seconds: float = 900.0        # idle gap that closes a session
    session_min_similarity: float = 0.05      # similarity keeping a query in-session

    # -- meta-querying (Section 4.2) ------------------------------------------
    knn_default_k: int = 10
    query_by_data_sample_size: int = 32

    # -- mining (Section 4.3) ---------------------------------------------------
    rule_min_support: float = 0.02
    rule_min_confidence: float = 0.3
    cluster_count: int = 8
    feature_weights: dict[str, float] = field(
        default_factory=lambda: {
            "tables": 3.0,
            "joins": 2.0,
            "predicates": 2.0,
            "projections": 1.0,
            "group_by": 1.0,
            "aggregates": 0.5,
        }
    )

    # -- ranking (Section 2.3) ---------------------------------------------------
    ranking: RankingWeightsConfig = field(default_factory=RankingWeightsConfig)

    # -- maintenance (Section 4.4) -------------------------------------------------
    statistics_drift_threshold: float = 0.25
    auto_repair_renames: bool = True
    drop_invalid_after_flags: int = 3

    # -- plan cache (meta-database hot path) ------------------------------------------
    plan_cache_size: int = 128                # cached meta-query templates (0 = off)

    # -- durability (Query Storage persistence across restarts) -------------------------
    #: Directory the Query Storage meta-database persists into (WAL +
    #: snapshots); None keeps the historical in-memory behaviour.  The paper's
    #: premise is a long-lived shared repository, so real deployments set this.
    data_dir: str | None = None
    wal_sync: str = "batch"                   # "off" | "commit" | "batch"
    checkpoint_interval: int = 0              # auto-checkpoint after N logged row mutations (0 = manual)
    buffer_pool_pages: int = 1024             # resident page cap of a durable store

    # -- execution engine (batched scans over the feature relations) --------------------
    exec_batch_size: int = 256                # rows per operator batch
    exec_verify_plans: bool = False           # verify every plan before execution

    # -- access control (Sections 1 / 2.4) --------------------------------------------
    default_visibility: str = "group"          # "private" | "group" | "public"

    # -- observability (metrics registry, tracing, slow-query log) ----------------------
    telemetry_enabled: bool = True             # metrics + traces for both engines
    slow_query_threshold_seconds: float = 1.0  # traces slower than this are retained
    slow_query_log_size: int = 128             # slow-query ring-buffer capacity
    trace_operators: bool = False              # per-operator spans + histograms (costly)

    # -- admission control (per-principal budgets) ----------------------------------------
    #: Cooperative per-statement timeout; a statement past it is cancelled at
    #: the next batch boundary.  None disables (per-principal QueryLimits can
    #: still impose one).
    statement_timeout_seconds: float | None = None
    rate_limit_qps: float | None = None        # default submissions/second per principal
    rate_limit_burst: float | None = None      # bucket depth (None = max(qps, 1))

    def validate(self) -> None:
        """Raise ``ValueError`` for out-of-range parameters."""
        if self.profiling_mode not in ("off", "text", "features"):
            raise ValueError(f"invalid profiling_mode {self.profiling_mode!r}")
        if self.default_visibility not in ("private", "group", "public"):
            raise ValueError(f"invalid default_visibility {self.default_visibility!r}")
        if self.session_gap_seconds <= 0:
            raise ValueError("session_gap_seconds must be positive")
        if not 0.0 <= self.rule_min_support <= 1.0:
            raise ValueError("rule_min_support must be in [0, 1]")
        if not 0.0 <= self.rule_min_confidence <= 1.0:
            raise ValueError("rule_min_confidence must be in [0, 1]")
        if self.output_sample_base_budget < 0 or self.output_sample_max_budget < 0:
            raise ValueError("output sample budgets must be non-negative")
        if self.output_sample_seconds_per_row <= 0:
            raise ValueError("output_sample_seconds_per_row must be positive")
        if self.knn_default_k < 1:
            raise ValueError("knn_default_k must be at least 1")
        if self.plan_cache_size < 0:
            raise ValueError("plan_cache_size must be non-negative")
        # Imported lazily to keep the module-level import direction core → storage.
        from repro.storage.wal import SYNC_POLICIES

        if self.wal_sync not in SYNC_POLICIES:
            raise ValueError(f"invalid wal_sync {self.wal_sync!r}")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if self.buffer_pool_pages < 8:
            raise ValueError("buffer_pool_pages must be at least 8")
        if self.exec_batch_size < 1:
            raise ValueError("exec_batch_size must be at least 1")
        if self.slow_query_threshold_seconds < 0:
            raise ValueError("slow_query_threshold_seconds must be non-negative")
        if self.slow_query_log_size < 1:
            raise ValueError("slow_query_log_size must be at least 1")
        if self.statement_timeout_seconds is not None and self.statement_timeout_seconds <= 0:
            raise ValueError("statement_timeout_seconds must be positive when set")
        if self.rate_limit_qps is not None and self.rate_limit_qps <= 0:
            raise ValueError("rate_limit_qps must be positive when set")
        if self.rate_limit_burst is not None and self.rate_limit_burst < 1:
            raise ValueError("rate_limit_burst must be at least 1 when set")

    def exec_settings(self):
        """The storage-layer :class:`~repro.storage.exec_settings.ExecutionSettings`
        equivalent of the ``exec_*`` knobs (built lazily to keep the import
        direction core → storage)."""
        from repro.storage.exec_settings import ExecutionSettings

        return ExecutionSettings(
            batch_size=self.exec_batch_size,
            verify_plans=self.exec_verify_plans,
            buffer_pool_pages=self.buffer_pool_pages,
        )
