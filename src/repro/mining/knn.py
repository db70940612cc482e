"""k-nearest-neighbour search.

The Meta-Query Executor must answer kNN meta-queries ("show me the k logged
queries most similar to what I am typing") interactively (paper Sections 3 and
4.2).  The index below supports:

* brute-force search under an arbitrary similarity function, and
* an inverted-index accelerated search for sparse vectors / token bags, which
  only scores candidates sharing at least one token with the probe — the same
  trick real recommendation systems use and the reason feature-based models
  are cheaper than black-box ones (paper Section 4.1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

Key = TypeVar("Key", bound=Hashable)


@dataclass(frozen=True)
class Neighbor(Generic[Key]):
    """One kNN result: the item key and its similarity to the probe."""

    key: Key
    similarity: float


class KNNIndex(Generic[Key]):
    """An index over items described by token bags.

    Items are added with :meth:`add`; :meth:`nearest` returns the ``k`` most
    similar items to a probe bag.  The default similarity is the Jaccard
    similarity of the token sets; a custom similarity over token *lists* can
    be supplied.
    """

    def __init__(self, similarity: Callable[[list[str], list[str]], float] | None = None):
        self._tokens: dict[Key, list[str]] = {}
        self._inverted: dict[str, set[Key]] = defaultdict(set)
        self._similarity = similarity

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, key: Key) -> bool:
        return key in self._tokens

    def add(self, key: Key, tokens: list[str]) -> None:
        """Add or replace an item."""
        if key in self._tokens:
            self.remove(key)
        self._tokens[key] = list(tokens)
        for token in set(tokens):
            self._inverted[token].add(key)

    def remove(self, key: Key) -> None:
        tokens = self._tokens.pop(key, None)
        if tokens is None:
            return
        for token in set(tokens):
            bucket = self._inverted.get(token)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._inverted[token]

    def candidates(self, tokens: list[str]) -> set[Key]:
        """Keys sharing at least one token with the probe."""
        result: set[Key] = set()
        for token in set(tokens):
            result |= self._inverted.get(token, set())
        return result

    def nearest(
        self,
        tokens: list[str],
        k: int = 10,
        exclude: set[Key] | None = None,
        candidates_only: bool = True,
        min_similarity: float = 0.0,
    ) -> list[Neighbor[Key]]:
        """The ``k`` items most similar to the probe bag.

        ``candidates_only=True`` restricts scoring to items sharing a token
        with the probe (fast path); setting it to False scores everything,
        which is only needed for similarities that can be non-zero without
        token overlap.
        """
        exclude = exclude or set()
        pool = self.candidates(tokens) if candidates_only else set(self._tokens)
        scored: list[Neighbor[Key]] = []
        for key in pool:
            if key in exclude:
                continue
            score = self._score(tokens, self._tokens[key])
            if score > min_similarity:
                scored.append(Neighbor(key=key, similarity=score))
        scored.sort(key=lambda neighbor: (-neighbor.similarity, str(neighbor.key)))
        return scored[:k]

    def _score(self, probe: list[str], item: list[str]) -> float:
        if self._similarity is not None:
            return float(self._similarity(probe, item))
        a, b = set(probe), set(item)
        if not a and not b:
            return 1.0
        union = a | b
        if not union:
            return 1.0
        return len(a & b) / len(union)
