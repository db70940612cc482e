"""Composite ranking functions.

The paper asks "how to construct ranking functions that combine similarity
measures together and with other desired properties (e.g. high popularity,
efficient runtime, small result cardinality, etc.)" (Section 2.3).  The
:class:`RankingFunction` here is that combination: a weighted sum of
normalized component scores.  The A2 ablation benchmark sweeps the weights.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

from repro.core.config import RankingWeightsConfig
from repro.core.records import LoggedQuery


@dataclass
class RankingWeights:
    """Weights of the ranking components (all non-negative)."""

    similarity: float = 1.0
    popularity: float = 0.4
    recency: float = 0.2
    runtime: float = 0.15
    cardinality: float = 0.1
    quality: float = 0.15

    @classmethod
    def from_config(cls, config: RankingWeightsConfig) -> "RankingWeights":
        return cls(
            similarity=config.similarity,
            popularity=config.popularity,
            recency=config.recency,
            runtime=config.runtime,
            cardinality=config.cardinality,
            quality=config.quality,
        )

    @classmethod
    def similarity_only(cls) -> "RankingWeights":
        """The ablation baseline: rank purely by similarity."""
        return cls(similarity=1.0, popularity=0.0, recency=0.0, runtime=0.0, cardinality=0.0, quality=0.0)

    def total(self) -> float:
        return sum(getattr(self, field.name) for field in fields(self))


@dataclass
class RankingContext:
    """Shared normalization context for one ranking pass."""

    now: float = 0.0
    popularity: Mapping[str, int] | None = None
    max_popularity: int = 1
    recency_half_life: float = 7 * 24 * 3600.0

    @classmethod
    def from_store(cls, store, now: float) -> "RankingContext":
        popularity = store.popularity()
        return cls(
            now=now,
            popularity=popularity,
            max_popularity=max(popularity.values(), default=1),
        )


@dataclass
class RankedQuery:
    """One ranked candidate with its component scores (for explanations)."""

    record: LoggedQuery
    score: float
    components: dict[str, float]

    def explanation(self) -> str:
        """Human-readable explanation shown in the client's similar-query panel."""
        parts = [f"{name}={value:.2f}" for name, value in sorted(self.components.items())]
        return f"score={self.score:.3f} ({', '.join(parts)})"


class RankingFunction:
    """Scores candidate queries as weighted sums of normalized components."""

    def __init__(self, weights: RankingWeights | None = None):
        self.weights = weights or RankingWeights()

    def score(
        self,
        record: LoggedQuery,
        similarity: float,
        context: RankingContext,
    ) -> RankedQuery:
        """Score one candidate given its similarity to the probe."""
        components = {
            "similarity": _clamp(similarity),
            "popularity": self._popularity_score(record, context),
            "recency": self._recency_score(record, context),
            "runtime": self._runtime_score(record),
            "cardinality": self._cardinality_score(record),
            "quality": _clamp(record.quality),
        }
        total_weight = self.weights.total()
        if total_weight <= 0:
            return RankedQuery(record=record, score=0.0, components=components)
        weighted = (
            self.weights.similarity * components["similarity"]
            + self.weights.popularity * components["popularity"]
            + self.weights.recency * components["recency"]
            + self.weights.runtime * components["runtime"]
            + self.weights.cardinality * components["cardinality"]
            + self.weights.quality * components["quality"]
        )
        return RankedQuery(
            record=record, score=weighted / total_weight, components=components
        )

    def rank(
        self,
        candidates: list[tuple[LoggedQuery, float]],
        context: RankingContext,
        limit: int | None = None,
    ) -> list[RankedQuery]:
        """Rank ``(record, similarity)`` candidates, best first."""
        ranked = [self.score(record, similarity, context) for record, similarity in candidates]
        ranked.sort(key=lambda item: (-item.score, item.record.qid))
        if limit is not None:
            return ranked[:limit]
        return ranked

    # -- components -----------------------------------------------------------

    def _popularity_score(self, record: LoggedQuery, context: RankingContext) -> float:
        if not context.popularity or not record.canonical_text:
            return 0.0
        count = context.popularity.get(record.canonical_text, 0)
        if context.max_popularity <= 1:
            return float(count > 0)
        return math.log1p(count) / math.log1p(context.max_popularity)

    def _recency_score(self, record: LoggedQuery, context: RankingContext) -> float:
        age = max(0.0, context.now - record.timestamp)
        if context.recency_half_life <= 0:
            return 0.0
        return 0.5 ** (age / context.recency_half_life)

    def _runtime_score(self, record: LoggedQuery) -> float:
        """Prefer efficient queries: 1 for instant, decaying with elapsed time."""
        return 1.0 / (1.0 + record.runtime.elapsed_seconds)

    def _cardinality_score(self, record: LoggedQuery) -> float:
        """Prefer small, digestible result sets (paper Section 2.2)."""
        return 1.0 / (1.0 + math.log1p(max(0, record.runtime.result_cardinality)))


def _clamp(value: float) -> float:
    return max(0.0, min(1.0, float(value)))
