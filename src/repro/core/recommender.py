"""Full query recommendation (paper Section 2.3).

"A CQMS could also perform complete query recommendations, showing logged
queries similar to those the user recently issued" — this module does that,
producing the ranked similar-query panel of Figure 3 (score, query, diff,
annotations).  Besides the full CQMS recommender, two baselines are provided
for the C5/A2 experiments:

* **popularity-only** — recommend the most frequently issued queries,
  regardless of what the user is doing,
* **random** — a lower bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.access_control import AccessControl, Principal
from repro.core.config import CQMSConfig
from repro.core.meta_query import MetaQueryExecutor
from repro.core.query_store import QueryStore
from repro.core.ranking import RankingContext, RankingFunction
from repro.core.records import Draft, LoggedQuery, draft_features
from repro.errors import ReproError
from repro.sql.diff import diff_queries


@dataclass
class Recommendation:
    """One recommended query, as displayed in the Figure 3 panel."""

    record: LoggedQuery
    score: float
    diff_summary: str
    annotations: list[str] = field(default_factory=list)
    components: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> tuple[str, str, str, str]:
        """(score, query, diff, annotations) — the panel's columns."""
        return (
            f"{self.score * 100:.0f}%",
            self.record.describe(),
            self.diff_summary,
            "; ".join(self.annotations) if self.annotations else "",
        )


class QueryRecommender:
    """Recommends logged queries relevant to what the user is working on."""

    def __init__(
        self,
        store: QueryStore,
        meta_query: MetaQueryExecutor,
        access_control: AccessControl,
        config: CQMSConfig | None = None,
        ranking: RankingFunction | None = None,
        clock=None,
    ):
        self._store = store
        self._meta = meta_query
        self._access = access_control
        self._config = config or CQMSConfig()
        self._ranking = ranking or RankingFunction()
        self._clock = clock if clock is not None else (lambda: 0.0)

    # -- main API ------------------------------------------------------------

    def recommend(
        self,
        principal: Principal | str,
        current_sql: Draft,
        k: int = 5,
        exclude_own_duplicates: bool = True,
    ) -> list[Recommendation]:
        """Recommend up to ``k`` logged queries similar to ``current_sql``.

        The candidates are the most similar visible queries up to, not
        including, the first one that would bring a (k+1)-th distinct
        canonical text (a (k+1)-th query without ``exclude_own_duplicates``);
        ranking reorders them and keeps the best-ranked query per canonical
        text, so the panel holds min(k, distinct similar canonical texts).
        """
        current_features = draft_features(current_sql)
        if current_features is None:
            return []
        candidates: list[tuple[LoggedQuery, float]] = []
        distinct: set = set()
        for record, similarity in self._meta.nearest(principal, current_features):
            key = (record.canonical_text or record.text) if exclude_own_duplicates else record.qid
            if key not in distinct:
                if len(distinct) == k:
                    break
                distinct.add(key)
            candidates.append((record, similarity))
        context = RankingContext.from_store(self._store, now=float(self._clock()))
        ranked = self._ranking.rank(candidates, context)
        recommendations: list[Recommendation] = []
        seen_canonical: set[str] = set()
        for item in ranked:
            record = item.record
            if exclude_own_duplicates:
                canonical = record.canonical_text or record.text
                if canonical in seen_canonical:
                    continue
                seen_canonical.add(canonical)
            diff_summary = self._diff_summary(current_features, record)
            recommendations.append(
                Recommendation(
                    record=record,
                    score=item.score,
                    diff_summary=diff_summary,
                    annotations=list(record.annotations),
                    components=dict(item.components),
                )
            )
            if len(recommendations) >= k:
                break
        return recommendations

    def recommend_for_session(
        self, principal: Principal | str, session_qids: list[int], k: int = 5
    ) -> list[Recommendation]:
        """Recommend queries relevant to an entire session (its last query)."""
        if not session_qids:
            return []
        last = self._store.get(session_qids[-1])
        return self.recommend(principal, last.text, k=k)

    # -- baselines (for the C5 / A2 experiments) ----------------------------------

    def recommend_popular(
        self, principal: Principal | str, k: int = 5
    ) -> list[Recommendation]:
        """Popularity-only baseline: the most frequently issued visible queries."""
        popularity = self._store.popularity()
        best_by_canonical: dict[str, LoggedQuery] = {}
        for record in self._visible_selects(principal):
            canonical = record.canonical_text or record.text
            if canonical not in best_by_canonical or record.timestamp > best_by_canonical[canonical].timestamp:
                best_by_canonical[canonical] = record
        ranked = sorted(
            best_by_canonical.items(),
            key=lambda item: (-popularity.get(item[0], 0), item[1].qid),
        )
        max_count = max(popularity.values(), default=1)
        recommendations = []
        for canonical, record in ranked[:k]:
            recommendations.append(
                Recommendation(
                    record=record,
                    score=popularity.get(canonical, 0) / max_count,
                    diff_summary="n/a",
                    annotations=list(record.annotations),
                )
            )
        return recommendations

    def recommend_random(
        self, principal: Principal | str, k: int = 5, seed: int = 0
    ) -> list[Recommendation]:
        """Random baseline."""
        visible = self._visible_selects(principal)
        rng = random.Random(seed)
        rng.shuffle(visible)
        return [
            Recommendation(record=record, score=0.0, diff_summary="n/a",
                           annotations=list(record.annotations))
            for record in visible[:k]
        ]

    # -- internals --------------------------------------------------------------------

    def _diff_summary(self, current_features, record: LoggedQuery) -> str:
        if record.features is None:
            return "n/a"
        try:
            return diff_queries(record.features, current_features).summary()
        except ReproError:
            return "n/a"

    def _visible_selects(self, principal: Principal | str) -> list[LoggedQuery]:
        """The SELECTs the principal may see, in qid order."""
        return [
            record for record in self._access.visible_log(principal, self._store)
            if record.is_select
        ]
