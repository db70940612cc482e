"""The Query Miner (paper Sections 3 and 4.3).

The miner runs in the background and extracts useful information from the
query log:

* **session identification** — segments each user's stream into query sessions
  and stores them (with diff-labelled edges) back into the Query Storage,
* **popularity statistics** — duplicate counting over canonical query texts
  and table usage counts,
* **association rules** — over table co-occurrence and feature tokens, feeding
  the context-aware completion engine,
* **query clustering** — groups queries by information goal using the weighted
  feature similarity (and can also cluster whole sessions),
* **edit-pattern mining** — counts the kinds of edits users make between
  consecutive queries in a session (the raw material for tutorials and better
  correction suggestions).

The miner is deliberately *not* incremental per query — the paper places such
heavier analyses in a periodic background component; :meth:`QueryMiner.run`
recomputes everything and is cheap at laptop scale, while
:meth:`QueryMiner.run_if_stale` gives the facade a simple periodic trigger.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.config import CQMSConfig
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery
from repro.core.sessions import QuerySession, SessionDetector
from repro.mining.association_rules import RuleIndex, mine_rules
from repro.mining.clustering import ClusteringResult, k_medoids
from repro.mining.similarity import weighted_feature_similarity

#: Clusters a mining pass asks k-medoids for (fewer when there are fewer
#: distinct templates or sessions).
CLUSTER_COUNT = 8


@dataclass
class MiningReport:
    """Everything the miner produced during one run."""

    num_queries: int = 0
    sessions: list[QuerySession] = field(default_factory=list)
    popularity: Mapping[str, int] = field(default_factory=dict)
    table_popularity: dict[str, int] = field(default_factory=dict)
    rule_index: RuleIndex | None = None
    query_clusters: ClusteringResult | None = None
    session_clusters: ClusteringResult | None = None
    edit_patterns: Counter = field(default_factory=Counter)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def num_rules(self) -> int:
        return len(self.rule_index) if self.rule_index is not None else 0


class QueryMiner:
    """Periodic background analysis of the Query Storage."""

    def __init__(
        self,
        store: QueryStore,
        config: CQMSConfig | None = None,
        max_cluster_items: int = 300,
    ):
        self._store = store
        self._config = config or CQMSConfig()
        self._max_cluster_items = max_cluster_items
        self._last_report: MiningReport | None = None
        self._last_run_size = -1

    # -- public API ---------------------------------------------------------------

    @property
    def last_report(self) -> MiningReport | None:
        return self._last_report

    def run(self, cluster: bool = True) -> MiningReport:
        """Run a full mining pass over the Query Storage."""
        records = [record for record in self._store.all_queries() if record.is_mined]
        report = MiningReport(num_queries=len(records))

        report.sessions = self._detect_sessions(records)
        self._store.record_sessions(report.sessions)

        report.popularity = self._store.popularity()
        report.table_popularity = self._store.table_popularity()
        report.rule_index = self._mine_rules(records)
        report.edit_patterns = self._mine_edit_patterns(report.sessions)
        if cluster and records:
            report.query_clusters = self._cluster_queries(records)
            report.session_clusters = self._cluster_sessions(records, report.sessions)

        self._last_report = report
        self._last_run_size = len(self._store)
        return report

    def run_if_stale(self, min_new_queries: int = 25, cluster: bool = True) -> MiningReport | None:
        """Re-run only when enough new queries arrived since the last pass."""
        if self._last_run_size >= 0 and len(self._store) - self._last_run_size < min_new_queries:
            return None
        return self.run(cluster=cluster)

    # -- sessions -------------------------------------------------------------------

    def _detect_sessions(self, records: list[LoggedQuery]) -> list[QuerySession]:
        return SessionDetector().detect(records)

    # -- association rules ----------------------------------------------------------

    def _mine_rules(self, records: list[LoggedQuery]) -> RuleIndex:
        transactions: list[list[str]] = []
        for record in records:
            features = record.features
            tokens = [f"table:{table}" for table in set(features.tables)]
            tokens += [
                f"pred:{predicate.relation}.{predicate.attribute}"
                for predicate in features.predicates
            ]
            transactions.append(tokens)
        return RuleIndex(mine_rules(transactions))

    # -- clustering -------------------------------------------------------------------

    def _cluster_queries(self, records: list[LoggedQuery]) -> ClusteringResult:
        """Cluster distinct query templates by feature similarity."""
        by_template: dict[str, LoggedQuery] = {}
        for record in records:
            template = record.template_text or record.canonical_text or record.text
            by_template.setdefault(template, record)
        representatives = list(by_template.values())[: self._max_cluster_items]
        k = min(CLUSTER_COUNT, max(1, len(representatives)))
        return k_medoids(
            representatives,
            k=k,
            distance=self._query_distance,
            seed=0,
        )

    def _cluster_sessions(
        self, records: list[LoggedQuery], sessions: list[QuerySession]
    ) -> ClusteringResult | None:
        """Cluster sessions by the union of their member queries' features."""
        if not sessions:
            return None
        by_qid = {record.qid: record for record in records}
        session_profiles = []
        usable_sessions = []
        for session in sessions[: self._max_cluster_items]:
            tokens: set[str] = set()
            for qid in session.qids:
                record = by_qid.get(qid)
                if record is not None:
                    tokens.update(record.feature_tokens())
            if tokens:
                session_profiles.append(frozenset(tokens))
                usable_sessions.append(session)
        if not session_profiles:
            return None
        k = min(CLUSTER_COUNT, max(1, len(session_profiles)))
        result = k_medoids(session_profiles, k=k, distance=_token_set_distance, seed=0)
        # Attach the sessions as items so callers can map clusters back.
        result.items = usable_sessions
        return result

    def _query_distance(self, first: LoggedQuery, second: LoggedQuery) -> float:
        similarity = weighted_feature_similarity(
            first.feature_sets(), second.feature_sets(), self._config.feature_weights
        )
        return 1.0 - similarity

    # -- edit patterns ---------------------------------------------------------------------

    def _mine_edit_patterns(self, sessions: list[QuerySession]) -> Counter:
        """Frequencies of edit kinds across all session edges."""
        patterns: Counter = Counter()
        for session in sessions:
            for edge in session.edges:
                patterns[edge.edge_type] += 1
                for part in edge.diff_summary.split(", "):
                    if part and part != "none":
                        # Normalize "+2 pred" -> "+pred" so counts aggregate.
                        tokens = part.split()
                        if len(tokens) == 2:
                            patterns[f"{tokens[0][0]}{tokens[1]}"] += 1
        return patterns


def _token_set_distance(first: frozenset[str], second: frozenset[str]) -> float:
    if not first and not second:
        return 0.0
    union = first | second
    if not union:
        return 0.0
    return 1.0 - len(first & second) / len(union)
