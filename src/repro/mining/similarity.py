"""Similarity and distance measures.

The paper lists several candidate notions of query similarity (Sections 2.3,
4.2, 4.3): string similarity, parse-tree similarity (possibly after removing
constants), feature similarity, and output-data similarity.  The functions
here are the generic building blocks; :mod:`repro.core.ranking` combines them
into the ranking functions used for recommendations.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence, Set as AbstractSet

_EMPTY: frozenset = frozenset()


def jaccard_similarity(first: Iterable, second: Iterable) -> float:
    """Jaccard similarity of two sets (1.0 when both are empty)."""
    a, b = set(first), set(second)
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def overlap_coefficient(first: Iterable, second: Iterable) -> float:
    """Szymkiewicz–Simpson overlap coefficient: |A ∩ B| / min(|A|, |B|)."""
    a, b = set(first), set(second)
    if not a or not b:
        return 1.0 if not a and not b else 0.0
    return len(a & b) / min(len(a), len(b))


def dice_similarity(first: Iterable, second: Iterable) -> float:
    """Sørensen–Dice coefficient of two sets."""
    a, b = set(first), set(second)
    if not a and not b:
        return 1.0
    return 2 * len(a & b) / (len(a) + len(b))


def weighted_feature_similarity(
    first: Mapping[str, AbstractSet],
    second: Mapping[str, AbstractSet],
    weights: Mapping[str, float] | None = None,
) -> float:
    """Weighted average of per-feature-class Jaccard similarities.

    ``first`` and ``second`` map a feature-class name (``tables``,
    ``predicates``, ...) to the (frozen) set of features of that class.
    Classes empty on both sides are skipped; missing weights default to 1.0.
    The classes are summed in sorted order, so the float result does not
    depend on set iteration order (two shapes that tie stay tied under any
    hash seed).
    """
    weights = weights or {}
    total_weight = 0.0
    score = 0.0
    for key in sorted(first.keys() | second.keys()):
        a = first.get(key, _EMPTY)
        b = second.get(key, _EMPTY)
        if not a and not b:
            continue
        weight = float(weights.get(key, 1.0))
        if weight <= 0.0:
            continue
        shared = len(a & b)
        total_weight += weight
        score += weight * (shared / (len(a) + len(b) - shared))
    if total_weight == 0.0:
        return 1.0
    return score / total_weight


def edit_distance(first: Sequence, second: Sequence, max_distance: int | None = None) -> int:
    """Levenshtein distance between two sequences (strings or token lists).

    ``max_distance`` enables early exit: once every value in a row exceeds the
    bound the function returns ``max_distance + 1``.
    """
    if first == second:
        return 0
    if not first:
        return len(second)
    if not second:
        return len(first)
    previous = list(range(len(second) + 1))
    for i, item in enumerate(first, start=1):
        current = [i] + [0] * len(second)
        best = current[0]
        for j, other in enumerate(second, start=1):
            cost = 0 if item == other else 1
            current[j] = min(
                previous[j] + 1,      # deletion
                current[j - 1] + 1,   # insertion
                previous[j - 1] + cost,  # substitution
            )
            best = min(best, current[j])
        if max_distance is not None and best > max_distance:
            return max_distance + 1
        previous = current
    return previous[-1]


def normalized_edit_similarity(first: Sequence, second: Sequence) -> float:
    """1 - edit_distance / max(len) in [0, 1]."""
    longest = max(len(first), len(second))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(first, second) / longest


def _trigrams(text: str) -> set[str]:
    padded = f"  {text.lower()} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def text_trigram_similarity(first: str, second: str) -> float:
    """Jaccard similarity of character trigrams — a cheap string similarity.

    This is the "string similarity" baseline the paper says a CQMS "needs to
    go beyond" (Section 4.3); it is still useful for name spell-correction.
    """
    return jaccard_similarity(_trigrams(first), _trigrams(second))


def best_match(
    candidate: str, options: Iterable[str], minimum: float = 0.0
) -> tuple[str | None, float]:
    """Most trigram-similar option to ``candidate`` above ``minimum``."""
    best_option: str | None = None
    best_score = minimum
    for option in options:
        score = text_trigram_similarity(candidate, option)
        if score > best_score:
            best_option, best_score = option, score
    return best_option, (best_score if best_option is not None else 0.0)


def rank_by_similarity(
    target,
    candidates: Iterable,
    similarity,
    limit: int | None = None,
) -> list[tuple[object, float]]:
    """Rank ``candidates`` by ``similarity(target, candidate)``, descending."""
    scored = [(candidate, float(similarity(target, candidate))) for candidate in candidates]
    scored.sort(key=lambda pair: -pair[1])
    if limit is not None:
        return scored[:limit]
    return scored
