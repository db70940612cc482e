"""Secondary indexes for heap tables.

The engine has one index kind, :class:`HashIndex`: equality lookups, enough
for the Query Storage's frequent probes by ``qid``, ``relName``, and
``attrName`` during meta-query execution.  Range predicates and ORDER BY are
served by filtered scans and the executor's sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IntegrityError


@dataclass
class HashIndex:
    """A hash index mapping a column value to the set of row ids holding it."""

    name: str
    column: str
    unique: bool = False
    _buckets: dict[object, set[int]] = field(default_factory=dict, repr=False)

    kind = "hash"

    def insert(self, value: object, row_id: int) -> None:
        """Register ``row_id`` under ``value``; NULLs are not indexed."""
        if value is None:
            return
        bucket = self._buckets.setdefault(value, set())
        if self.unique and bucket:
            raise IntegrityError(
                f"unique index {self.name!r} violated for value {value!r}"
            )
        bucket.add(row_id)

    def delete(self, value: object, row_id: int) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is None:
            return
        bucket.discard(row_id)
        if not bucket:
            del self._buckets[value]

    def lookup(self, value: object) -> set[int]:
        """Row ids whose indexed column equals ``value`` (empty set for NULL)."""
        if value is None:
            return set()
        return set(self._buckets.get(value, set()))

    def distinct_values(self) -> int:
        return len(self._buckets)

    def clear(self) -> None:
        self._buckets.clear()

    def drop(self) -> None:
        """Release the index's storage (it owns no pages; just forget)."""
        self._buckets.clear()

