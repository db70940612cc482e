"""CQMS configuration.

The paper's System Administrative Interaction mode (Section 2.4) requires
administrators to "adjust tunable parameters such as the sample size for the
query-by-data approach" (``output_sample_base_budget``: the rows of a query's
output kept for query-by-data), give preference to ranking functions
(``ranking``), and exclude irrelevant features from similarity functions
(``feature_weights``).  Those knobs, the durability settings and the few
observability and admission settings are the whole surface.

A field lives here only if a benchmark workload, a paper-claim test, an
example, an analysis tool or the :class:`~repro.core.admin.Administrator`
sets it (``tests/test_core_config_records_store.py`` checks the rule).  Every
other tuning value is a named constant next to the code that uses it.
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

    # -- meta-querying (Section 4.2) ------------------------------------------
    knn_default_k: int = 10

    # -- similarity (Section 4.3) -----------------------------------------------
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
    drop_invalid_after_flags: int = 3

    # -- durability (Query Storage persistence across restarts) -------------------------
    #: Directory the Query Storage meta-database persists into (WAL +
    #: snapshots); None keeps the historical in-memory behaviour.  The paper's
    #: premise is a long-lived shared repository, so real deployments set this.
    data_dir: str | None = None
    wal_sync: str = "batch"                   # "off" | "commit" | "batch"
    checkpoint_interval: int = 0              # auto-checkpoint after N logged row mutations (0 = manual)
    buffer_pool_pages: int = 1024             # resident page cap of a durable store

    # -- access control (Sections 1 / 2.4) --------------------------------------------
    default_visibility: str = "group"          # "private" | "group" | "public"

    # -- observability (metrics registry, tracing, slow-query log) ----------------------
    telemetry_enabled: bool = True             # metrics + traces for both engines
    slow_query_threshold_seconds: float = 1.0  # traces slower than this are retained
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
        if self.output_sample_base_budget < 0:
            raise ValueError("output_sample_base_budget must be non-negative")
        if self.knn_default_k < 1:
            raise ValueError("knn_default_k must be at least 1")
        # Imported lazily to keep the module-level import direction core → storage.
        from repro.storage.wal import SYNC_POLICIES

        if self.wal_sync not in SYNC_POLICIES:
            raise ValueError(f"invalid wal_sync {self.wal_sync!r}")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if self.buffer_pool_pages < 8:
            raise ValueError("buffer_pool_pages must be at least 8")
        if self.slow_query_threshold_seconds < 0:
            raise ValueError("slow_query_threshold_seconds must be non-negative")
        if self.statement_timeout_seconds is not None and self.statement_timeout_seconds <= 0:
            raise ValueError("statement_timeout_seconds must be positive when set")
        if self.rate_limit_qps is not None and self.rate_limit_qps <= 0:
            raise ValueError("rate_limit_qps must be positive when set")
        if self.rate_limit_burst is not None and self.rate_limit_burst < 1:
            raise ValueError("rate_limit_burst must be at least 1 when set")
