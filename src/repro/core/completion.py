"""Context-aware query completion (paper Section 2.3).

The completion engine suggests, while the user types:

* relation names for the FROM clause — *context-aware*: the suggestions are
  conditioned on the tables already present ("if the user has already included
  WaterSalinity, the system should suggest WaterTemp over CityLocations"),
* attribute names for SELECT / WHERE, conditioned on the chosen tables,
* predicates for the WHERE clause, taken from the most popular predicates that
  logged queries apply to the same tables,
* join conditions connecting a newly added table to the ones already there.

Context-awareness comes from association rules mined over the query log
(:mod:`repro.mining.association_rules`); the popularity-only baseline that the
paper's own example argues against is available as
:meth:`CompletionEngine.popular_tables` and is used as the C4 baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.query_store import QueryStore
from repro.core.records import Draft, draft_features
from repro.mining.association_rules import RuleIndex, mine_rules


@dataclass(frozen=True)
class CompletionSuggestion:
    """One completion suggestion shown in the client drop-down."""

    kind: str          # "table" | "attribute" | "predicate" | "join"
    text: str          # what would be inserted
    score: float       # confidence / popularity in [0, 1]
    source: str        # "rule" | "popularity" | "schema"

    def __str__(self) -> str:
        return f"{self.text}  [{self.kind}, {self.score:.2f}, {self.source}]"


class CompletionEngine:
    """Suggests completions for partially written queries."""

    def __init__(self, store: QueryStore):
        self._store = store
        self._rule_index: RuleIndex | None = None
        self._table_counts: Counter[str] = Counter()
        self._attribute_counts: Counter[tuple[str, str]] = Counter()
        self._predicate_counts: Counter[tuple[str, str, str, str]] = Counter()
        self._join_counts: Counter[tuple[str, str, str, str]] = Counter()
        # The QueryStore.generation the counters and rules were fitted on.
        self._fitted_on: int | None = None

    # -- model fitting -----------------------------------------------------------

    def refresh(self, rule_index: RuleIndex | None = None) -> None:
        """Re-fit popularity counters and (optionally reuse) association rules.

        The Query Miner calls this periodically; it can pass its own mined
        :class:`RuleIndex` so the rules are not recomputed twice.
        """
        records = [
            record
            for record in self._store.select_queries()
            if record.features is not None
        ]
        self._table_counts.clear()
        self._attribute_counts.clear()
        self._predicate_counts.clear()
        self._join_counts.clear()
        transactions: list[list[str]] = []
        for record in records:
            features = record.features
            self._table_counts.update(set(features.tables))
            self._attribute_counts.update(set(features.attributes))
            for predicate in features.predicates:
                self._predicate_counts[
                    (
                        predicate.relation,
                        predicate.attribute,
                        predicate.op,
                        _render_constant(predicate.constant),
                    )
                ] += 1
            for join in features.joins:
                normalized = join.normalized()
                self._join_counts[
                    (
                        normalized.left_relation,
                        normalized.left_attribute,
                        normalized.right_relation,
                        normalized.right_attribute,
                    )
                ] += 1
            transactions.append([f"table:{table}" for table in set(features.tables)])
        if rule_index is not None:
            self._rule_index = rule_index
        else:
            self._rule_index = RuleIndex(mine_rules(transactions))
        self._fitted_on = self._store.generation

    def _ensure_fitted(self) -> None:
        if self._fitted_on != self._store.generation:
            self.refresh()

    # -- table completion -----------------------------------------------------------

    def suggest_tables(
        self, partial_sql: Draft, limit: int = 5, context_aware: bool = True
    ) -> list[CompletionSuggestion]:
        """Suggest relations to add to the FROM clause of ``partial_sql``.

        With ``context_aware=False`` the engine degrades to the global
        popularity baseline (the behaviour the paper's example criticises).
        """
        self._ensure_fitted()
        context_tables = _draft_tables(partial_sql)
        if not context_aware or not context_tables or self._rule_index is None:
            return self.popular_tables(limit=limit, exclude=context_tables)
        context_tokens = [f"table:{table}" for table in context_tables]
        rule_suggestions = self._rule_index.suggestions(context_tokens, limit=limit * 2)
        suggestions: list[CompletionSuggestion] = []
        seen: set[str] = set()
        for token, confidence in rule_suggestions:
            if not token.startswith("table:"):
                continue
            table = token[len("table:"):]
            if table in context_tables or table in seen:
                continue
            seen.add(table)
            suggestions.append(
                CompletionSuggestion(
                    kind="table", text=table, score=min(1.0, confidence), source="rule"
                )
            )
            if len(suggestions) >= limit:
                break
        if len(suggestions) < limit:
            for fallback in self.popular_tables(limit=limit, exclude=context_tables | seen):
                suggestions.append(fallback)
                if len(suggestions) >= limit:
                    break
        return suggestions

    def popular_tables(
        self, limit: int = 5, exclude: set[str] | None = None
    ) -> list[CompletionSuggestion]:
        """The globally most popular relations (context-free baseline)."""
        self._ensure_fitted()
        exclude = {table.lower() for table in (exclude or set())}
        total = sum(self._table_counts.values()) or 1
        suggestions = []
        for table, count in self._table_counts.most_common():
            if table in exclude:
                continue
            suggestions.append(
                CompletionSuggestion(
                    kind="table", text=table, score=count / total, source="popularity"
                )
            )
            if len(suggestions) >= limit:
                break
        return suggestions

    # -- attribute / predicate / join completion ----------------------------------------

    def suggest_attributes(self, partial_sql: Draft, limit: int = 8) -> list[CompletionSuggestion]:
        """Suggest attributes of the tables already present in the query."""
        self._ensure_fitted()
        context_tables = _draft_tables(partial_sql)
        suggestions: list[CompletionSuggestion] = []
        if not context_tables:
            return suggestions
        total = sum(self._attribute_counts.values()) or 1
        for (attribute, relation), count in self._attribute_counts.most_common():
            if relation not in context_tables:
                continue
            suggestions.append(
                CompletionSuggestion(
                    kind="attribute",
                    text=f"{relation}.{attribute}",
                    score=count / total,
                    source="popularity",
                )
            )
            if len(suggestions) >= limit:
                return suggestions
        # Fall back to schema columns never seen in the log.
        seen = {suggestion.text for suggestion in suggestions}
        schema = self._store.schema_columns()
        for table in sorted(context_tables):
            for column in sorted(schema.get(table, ())):
                text = f"{table}.{column}"
                if text in seen:
                    continue
                suggestions.append(
                    CompletionSuggestion(kind="attribute", text=text, score=0.0, source="schema")
                )
                if len(suggestions) >= limit:
                    return suggestions
        return suggestions

    def suggest_predicates(self, partial_sql: Draft, limit: int = 5) -> list[CompletionSuggestion]:
        """Suggest popular WHERE predicates over the tables in the query."""
        self._ensure_fitted()
        context_tables = _draft_tables(partial_sql)
        if not context_tables:
            return []
        total = sum(self._predicate_counts.values()) or 1
        suggestions = []
        for (relation, attribute, op, constant), count in self._predicate_counts.most_common():
            if relation not in context_tables:
                continue
            text = f"{relation}.{attribute} {op} {constant}" if constant else f"{relation}.{attribute} {op}"
            suggestions.append(
                CompletionSuggestion(
                    kind="predicate", text=text, score=count / total, source="popularity"
                )
            )
            if len(suggestions) >= limit:
                break
        return suggestions

    def suggest_joins(self, partial_sql: Draft, limit: int = 5) -> list[CompletionSuggestion]:
        """Suggest join conditions connecting the tables in the query."""
        self._ensure_fitted()
        context_tables = _draft_tables(partial_sql)
        if len(context_tables) < 2:
            return []
        total = sum(self._join_counts.values()) or 1
        suggestions = []
        for (left_rel, left_attr, right_rel, right_attr), count in self._join_counts.most_common():
            if left_rel in context_tables and right_rel in context_tables:
                suggestions.append(
                    CompletionSuggestion(
                        kind="join",
                        text=f"{left_rel}.{left_attr} = {right_rel}.{right_attr}",
                        score=count / total,
                        source="popularity",
                    )
                )
                if len(suggestions) >= limit:
                    break
        return suggestions

    def suggest(self, partial_sql: Draft, limit: int = 5) -> dict[str, list[CompletionSuggestion]]:
        """All suggestion kinds at once (what the Figure 3 panel displays)."""
        draft = draft_features(partial_sql)
        return {
            "tables": self.suggest_tables(draft, limit=limit),
            "attributes": self.suggest_attributes(draft, limit=limit),
            "predicates": self.suggest_predicates(draft, limit=limit),
            "joins": self.suggest_joins(draft, limit=limit),
        }


def _draft_tables(draft: Draft) -> set[str]:
    """The relations a draft already names (the context of a suggestion)."""
    features = draft_features(draft)
    return set(features.tables) if features is not None else set()


def _render_constant(constant: object) -> str:
    if constant is None:
        return ""
    if isinstance(constant, str):
        return f"'{constant}'"
    if isinstance(constant, (tuple, list)):
        return "(" + ", ".join(_render_constant(item) for item in constant) + ")"
    return str(constant)
