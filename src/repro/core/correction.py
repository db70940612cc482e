"""Automated query correction (paper Section 2.3).

"Like a spell checker, while a user types a query, the CQMS suggests
corrections to relation and attribute names but also changes to entire query
clauses.  For instance, if a predicate causes a query to return the empty set,
the CQMS could suggest similar, previously issued predicates that return a
non-empty set for the query."

The correction engine implements both mechanisms:

* **name corrections** — misspelled relation or attribute names are matched
  against the catalog by trigram similarity,
* **empty-result predicate corrections** — when a query returns no rows, each
  of its predicates is compared with predicates that logged, non-empty queries
  applied to the same attribute, and the most popular alternatives are
  suggested.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.query_store import QueryStore
from repro.core.records import Draft, draft_features
from repro.errors import ReproError
from repro.mining.similarity import best_match
from repro.sql.features import extract_features


@dataclass(frozen=True)
class Correction:
    """One suggested correction."""

    kind: str            # "table_name" | "attribute_name" | "predicate"
    original: str        # the text believed to be wrong
    suggestion: str      # the replacement
    confidence: float    # [0, 1]
    reason: str

    def __str__(self) -> str:
        return f"{self.original} -> {self.suggestion}  ({self.reason}, {self.confidence:.2f})"


class CorrectionEngine:
    """Suggests corrections for names and for empty-result predicates."""

    def __init__(
        self,
        store: QueryStore,
        min_name_similarity: float = 0.3,
    ):
        self._store = store
        self._min_name_similarity = min_name_similarity
        self._correction_log: list[Correction] = []

    @property
    def correction_log(self) -> list[Correction]:
        """All corrections ever suggested (mined by the tutorial generator)."""
        return list(self._correction_log)

    # -- name corrections --------------------------------------------------------

    def correct_names(self, sql: Draft) -> list[Correction]:
        """Spell-check relation and attribute names against the catalog."""
        corrections: list[Correction] = []
        features = draft_features(sql)
        if features is None:
            return corrections
        schema = self._store.schema_columns()
        known_tables = set(schema)
        for table in features.tables:
            if table in known_tables:
                continue
            match, score = best_match(table, known_tables, minimum=self._min_name_similarity)
            if match is not None:
                corrections.append(
                    Correction(
                        kind="table_name",
                        original=table,
                        suggestion=match,
                        confidence=score,
                        reason="unknown relation; closest catalog name",
                    )
                )
        for attribute, relation in features.attributes:
            if relation == "?" or relation not in known_tables:
                continue
            columns = schema[relation]
            if attribute in columns:
                continue
            match, score = best_match(attribute, columns, minimum=self._min_name_similarity)
            if match is not None:
                corrections.append(
                    Correction(
                        kind="attribute_name",
                        original=f"{relation}.{attribute}",
                        suggestion=f"{relation}.{match}",
                        confidence=score,
                        reason="unknown attribute; closest column of the relation",
                    )
                )
        self._correction_log.extend(corrections)
        return corrections

    # -- empty-result predicate corrections -------------------------------------------

    def correct_empty_result(self, sql: str, limit: int = 3) -> list[Correction]:
        """Suggest replacement predicates when ``sql`` returned an empty result.

        For every selection predicate of the query, look at predicates that
        *successful, non-empty* logged queries applied to the same
        ``relation.attribute`` and suggest the most popular differing ones.
        """
        try:
            features = extract_features(sql)
        except ReproError:
            return []
        corrections: list[Correction] = []
        alternatives = self._non_empty_predicates()
        for predicate in features.predicates:
            key = (predicate.relation, predicate.attribute)
            options = alternatives.get(key)
            if not options:
                continue
            original = _render_predicate(
                predicate.relation, predicate.attribute, predicate.op, predicate.constant
            )
            total = sum(options.values())
            for (op, constant), count in options.most_common():
                candidate = _render_predicate(predicate.relation, predicate.attribute, op, constant)
                if candidate == original:
                    continue
                corrections.append(
                    Correction(
                        kind="predicate",
                        original=original,
                        suggestion=candidate,
                        confidence=count / total,
                        reason="popular predicate with non-empty results on the same attribute",
                    )
                )
                if len([c for c in corrections if c.original == original]) >= limit:
                    break
        self._correction_log.extend(corrections)
        return corrections

    def _non_empty_predicates(self) -> dict[tuple[str, str], Counter]:
        """Predicates of logged queries that succeeded with a non-empty result."""
        index: dict[tuple[str, str], Counter] = {}
        for record in self._store.select_queries():
            if record.features is None:
                continue
            if not record.runtime.succeeded or record.runtime.result_cardinality == 0:
                continue
            for predicate in record.features.predicates:
                key = (predicate.relation, predicate.attribute)
                index.setdefault(key, Counter())[
                    (predicate.op, _freeze(predicate.constant))
                ] += 1
        return index


def _freeze(constant: object) -> object:
    if isinstance(constant, list):
        return tuple(constant)
    return constant


def _render_predicate(relation: str, attribute: str, op: str, constant: object) -> str:
    if constant is None:
        return f"{relation}.{attribute} {op}"
    if isinstance(constant, str):
        rendered = f"'{constant}'"
    elif isinstance(constant, (tuple, list)):
        rendered = "(" + ", ".join(
            f"'{item}'" if isinstance(item, str) else str(item) for item in constant
        ) + ")"
    else:
        rendered = str(constant)
    return f"{relation}.{attribute} {op} {rendered}"
