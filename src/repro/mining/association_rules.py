"""Apriori frequent-itemset and association-rule mining.

The paper proposes that the CQMS "efficiently mine the query log for
association rules" (Section 2.3) to power context-aware completion ("for
queries that also include WaterSalinity, the most popular is WaterTemp") and
to mine common edit patterns (Section 4.3).  Transactions here are sets of
query-feature tokens; rules such as ``{table:watersalinity} ->
{table:watertemp}`` then drive the completion engine.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


@dataclass(frozen=True)
class Itemset:
    """A frequent itemset with its absolute support count."""

    items: frozenset[str]
    support_count: int

    def support(self, num_transactions: int) -> float:
        if num_transactions == 0:
            return 0.0
        return self.support_count / num_transactions


@dataclass(frozen=True)
class AssociationRule:
    """An association rule ``antecedent -> consequent`` with its statistics."""

    antecedent: frozenset[str]
    consequent: frozenset[str]
    support: float
    confidence: float
    lift: float

    def __str__(self) -> str:
        left = ", ".join(sorted(self.antecedent))
        right = ", ".join(sorted(self.consequent))
        return (
            f"{{{left}}} -> {{{right}}} "
            f"(support={self.support:.3f}, confidence={self.confidence:.3f}, lift={self.lift:.2f})"
        )


def apriori(
    transactions: list[Iterable[str]],
    min_support: float = 0.05,
    max_size: int = 3,
) -> list[Itemset]:
    """Frequent itemsets of up to ``max_size`` items with support ≥ ``min_support``."""
    materialized = [frozenset(transaction) for transaction in transactions]
    num_transactions = len(materialized)
    if num_transactions == 0:
        return []
    min_count = max(1, int(min_support * num_transactions + 0.999999))

    # Frequent 1-itemsets.
    counts: Counter[str] = Counter()
    for transaction in materialized:
        counts.update(transaction)
    current = {
        frozenset([item]): count for item, count in counts.items() if count >= min_count
    }
    all_frequent: list[Itemset] = [
        Itemset(items=items, support_count=count) for items, count in current.items()
    ]

    size = 1
    while current and size < max_size:
        size += 1
        candidates = _generate_candidates(set(current), size)
        if not candidates:
            break
        candidate_counts: dict[frozenset[str], int] = defaultdict(int)
        for transaction in materialized:
            if len(transaction) < size:
                continue
            for candidate in candidates:
                if candidate <= transaction:
                    candidate_counts[candidate] += 1
        current = {
            candidate: count
            for candidate, count in candidate_counts.items()
            if count >= min_count
        }
        all_frequent.extend(
            Itemset(items=items, support_count=count) for items, count in current.items()
        )
    all_frequent.sort(key=lambda itemset: (-itemset.support_count, sorted(itemset.items)))
    return all_frequent


def _generate_candidates(frequent: set[frozenset[str]], size: int) -> set[frozenset[str]]:
    """Join step of Apriori with pruning of candidates having infrequent subsets."""
    items = sorted({item for itemset in frequent for item in itemset})
    candidates: set[frozenset[str]] = set()
    frequent_list = sorted(frequent, key=sorted)
    for index, first in enumerate(frequent_list):
        for second in frequent_list[index + 1 :]:
            union = first | second
            if len(union) != size:
                continue
            if all(frozenset(subset) in frequent for subset in combinations(union, size - 1)):
                candidates.add(union)
    # For size 2 the join above may miss pairs when 1-itemsets are singletons
    # with no overlap; generate pairs directly in that case.
    if size == 2:
        singles = [next(iter(itemset)) for itemset in frequent if len(itemset) == 1]
        for first, second in combinations(sorted(singles), 2):
            candidates.add(frozenset([first, second]))
    return candidates


def mine_rules(
    transactions: list[Iterable[str]],
    min_support: float = 0.02,
    min_confidence: float = 0.3,
    max_size: int = 3,
) -> list[AssociationRule]:
    """Association rules from frequent itemsets, sorted by confidence then lift."""
    materialized = [frozenset(transaction) for transaction in transactions]
    num_transactions = len(materialized)
    frequent = apriori(materialized, min_support=min_support, max_size=max_size)
    support_map = {itemset.items: itemset.support_count for itemset in frequent}
    rules: list[AssociationRule] = []
    for itemset in frequent:
        if len(itemset.items) < 2:
            continue
        for antecedent_size in range(1, len(itemset.items)):
            for antecedent_items in combinations(sorted(itemset.items), antecedent_size):
                antecedent = frozenset(antecedent_items)
                consequent = itemset.items - antecedent
                antecedent_count = support_map.get(antecedent)
                consequent_count = support_map.get(consequent)
                if not antecedent_count or not consequent_count:
                    continue
                confidence = itemset.support_count / antecedent_count
                if confidence < min_confidence:
                    continue
                support = itemset.support_count / num_transactions
                consequent_support = consequent_count / num_transactions
                lift = confidence / consequent_support if consequent_support else 0.0
                rules.append(
                    AssociationRule(
                        antecedent=antecedent,
                        consequent=consequent,
                        support=support,
                        confidence=confidence,
                        lift=lift,
                    )
                )
    rules.sort(key=lambda rule: (-rule.confidence, -rule.lift, sorted(rule.antecedent)))
    return rules


class RuleIndex:
    """Rules indexed by antecedent for fast lookup during query completion.

    Given the set of feature tokens already present in a partially written
    query, :meth:`suggestions` returns consequent tokens ordered by the
    confidence of the best matching rule — exactly the paper's
    "context-aware suggestions" mechanism.
    """

    def __init__(self, rules: list[AssociationRule]):
        self._rules = list(rules)
        self._by_antecedent: dict[frozenset[str], list[AssociationRule]] = defaultdict(list)
        for rule in rules:
            self._by_antecedent[rule.antecedent].append(rule)

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> list[AssociationRule]:
        return list(self._rules)

    def suggestions(
        self, context: Iterable[str], limit: int = 10, exclude_context: bool = True
    ) -> list[tuple[str, float]]:
        """Consequent tokens applicable to ``context`` with their best confidence."""
        context_set = frozenset(context)
        scores: dict[str, float] = {}
        for antecedent, rules in self._by_antecedent.items():
            if not antecedent <= context_set:
                continue
            for rule in rules:
                for token in rule.consequent:
                    if exclude_context and token in context_set:
                        continue
                    weight = rule.confidence * (1.0 + 0.01 * len(antecedent))
                    if weight > scores.get(token, 0.0):
                        scores[token] = weight
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:limit]
