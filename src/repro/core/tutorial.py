"""Automatic tutorial generation (paper Section 2.3).

"By analyzing the set of all queries and the evolution of query sessions, we
hypothesize that a CQMS may be able to automatically produce a tutorial on the
new data set ... e.g. the system could introduce each relation and its schema
by showing the user the most popular queries that include the relation."

The generator produces one section per relation (schema, usage statistics,
most popular example queries, commonly co-used relations) plus a closing
section of common mistakes derived from the correction log and mined edit
patterns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.correction import Correction
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery


@dataclass
class TutorialSection:
    """One section of the generated tutorial."""

    title: str
    lines: list[str] = field(default_factory=list)
    example_queries: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"== {self.title} =="]
        parts.extend(self.lines)
        if self.example_queries:
            parts.append("Popular queries:")
            parts.extend(f"  {index}. {sql}" for index, sql in enumerate(self.example_queries, 1))
        return "\n".join(parts)


class TutorialGenerator:
    """Builds a dataset tutorial from the query log."""

    def __init__(self, store: QueryStore):
        self._store = store

    def generate(
        self,
        max_relations: int | None = None,
        examples_per_relation: int = 3,
        corrections: list[Correction] | None = None,
        edit_patterns: Counter | None = None,
    ) -> list[TutorialSection]:
        """Produce the tutorial sections, most-used relations first."""
        records = [r for r in self._store.all_queries() if r.is_mined]
        table_popularity = self._store.table_popularity()
        schema = self._store.schema_columns()
        ordered_tables = sorted(
            schema or table_popularity,
            key=lambda table: (-table_popularity.get(table, 0), table),
        )
        if max_relations is not None:
            ordered_tables = ordered_tables[:max_relations]

        sections = [
            self._relation_section(
                table, records, table_popularity, examples_per_relation
            )
            for table in ordered_tables
        ]
        closing = self._mistakes_section(corrections or [], edit_patterns or Counter())
        if closing is not None:
            sections.append(closing)
        return sections

    # -- sections ---------------------------------------------------------------

    def _relation_section(
        self,
        table: str,
        records: list[LoggedQuery],
        popularity: dict[str, int],
        examples: int,
    ) -> TutorialSection:
        section = TutorialSection(title=f"Relation {table}")
        columns = sorted(self._store.schema_columns().get(table, ()))
        if columns:
            section.lines.append(f"Columns: {', '.join(columns)}")
        usage = popularity.get(table, 0)
        section.lines.append(f"Referenced by {usage} logged queries.")

        companions: Counter[str] = Counter()
        attribute_usage: Counter[str] = Counter()
        candidates: list[LoggedQuery] = []
        for record in records:
            if table not in record.features.table_set():
                continue
            candidates.append(record)
            for other in record.features.tables:
                if other != table:
                    companions[other] += 1
            for attribute, relation in record.features.attributes:
                if relation == table:
                    attribute_usage[attribute] += 1
        if companions:
            top = ", ".join(name for name, _ in companions.most_common(3))
            section.lines.append(f"Commonly joined or combined with: {top}.")
        if attribute_usage:
            top_attrs = ", ".join(name for name, _ in attribute_usage.most_common(4))
            section.lines.append(f"Most queried attributes: {top_attrs}.")

        canonical_counts: Counter[str] = Counter()
        best_record: dict[str, LoggedQuery] = {}
        for record in candidates:
            canonical = record.canonical_text or record.text
            canonical_counts[canonical] += 1
            best_record.setdefault(canonical, record)
        for canonical, _count in canonical_counts.most_common(examples):
            record = best_record[canonical]
            example = record.describe(max_length=100)
            if record.annotations:
                example += f"   -- {record.annotations[0]}"
            section.example_queries.append(example)
        return section

    def _mistakes_section(
        self, corrections: list[Correction], edit_patterns: Counter
    ) -> TutorialSection | None:
        if not corrections and not edit_patterns:
            return None
        section = TutorialSection(title="Common mistakes and practices")
        if corrections:
            mistake_counts: Counter[str] = Counter()
            for correction in corrections:
                mistake_counts[f"{correction.kind}: {correction.original} -> {correction.suggestion}"] += 1
            section.lines.append("Frequent corrections suggested by the system:")
            for description, count in mistake_counts.most_common(5):
                section.lines.append(f"  - {description} (seen {count}x)")
        if edit_patterns:
            section.lines.append("Typical ways queries evolve within a session:")
            for pattern, count in edit_patterns.most_common(5):
                section.lines.append(f"  - {pattern} ({count}x)")
        return section

    def render(self, sections: list[TutorialSection] | None = None) -> str:
        """Render the whole tutorial to text."""
        sections = sections if sections is not None else self.generate()
        return "\n\n".join(section.render() for section in sections)
