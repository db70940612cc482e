"""The Query Maintenance component (paper Sections 3 and 4.4).

Maintenance keeps the Query Storage up-to-date as the underlying database
changes:

* **schema validity** — queries referencing relations/columns that no longer
  exist are flagged (identified by comparing each query's catalog version with
  the catalog's change log, exactly the timestamp comparison the paper
  suggests), and — when the change was a rename — automatically repaired,
* **statistics freshness** — per-table statistics snapshots are compared with
  fresh ones; when a table's data distribution drifts past a threshold, the
  runtime statistics of queries over that table are refreshed by re-executing
  a bounded number of them,
* **query quality** — a [0, 1] score combining success, runtime, result size
  and documentation, used by the ranking function.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.core.config import CQMSConfig
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery, statement_artefacts
from repro.errors import ReproError
from repro.sql.tokenizer import TokenType, tokenize
from repro.storage.database import Database
from repro.storage.plan_cache import DEFAULT_MAX_DRIFT
from repro.storage.statistics import TableStatistics


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance pass."""

    checked: int = 0
    flagged: list[int] = field(default_factory=list)
    repaired: list[int] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    drifted_tables: list[str] = field(default_factory=list)
    refreshed_queries: list[int] = field(default_factory=list)

    @property
    def num_flagged(self) -> int:
        return len(self.flagged)

    @property
    def num_repaired(self) -> int:
        return len(self.repaired)


class QueryMaintenance:
    """Keeps stored queries, statistics, and quality scores up to date."""

    def __init__(
        self,
        database: Database,
        store: QueryStore,
        config: CQMSConfig | None = None,
    ):
        self._db = database
        self._store = store
        self._config = config or CQMSConfig()
        self._statistics_snapshots: dict[str, TableStatistics] = {}

    # -- schema validity ---------------------------------------------------------

    def check_schema_validity(self, repair: bool = True) -> MaintenanceReport:
        """Flag (and, by default, repair) queries broken by schema evolution."""
        report = MaintenanceReport()
        catalog = self._db.catalog
        schema_columns = self._db.schema_columns()
        rename_maps = self._build_rename_maps()
        current: list[int] = []
        for record in self._store.all_queries():
            if not record.is_select or record.features is None:
                continue
            # Cheap pre-filter: only queries older than the last schema change
            # on one of their input relations need re-checking (Section 4.4).
            # A reopened record is stamped -1, so it is re-checked once.
            if record.catalog_version >= catalog.version and not record.flagged_invalid:
                continue
            report.checked += 1
            problems = _validity_problems(record.features, schema_columns)
            if not problems:
                if record.flagged_invalid:
                    self._store.mark_valid(record.qid)
                current.append(record.qid)
                continue
            if repair:
                repaired = self._try_repair(record, rename_maps, schema_columns)
                if repaired:
                    report.repaired.append(record.qid)
                    current.append(record.qid)
                    continue
            self._store.mark_invalid(record.qid, reason="; ".join(problems))
            report.flagged.append(record.qid)
        self._store.set_catalog_version(current, catalog.version)
        return report

    def _build_rename_maps(self) -> dict[str, dict[str, str]]:
        """Extract rename mappings from the catalog's change log.

        Returns ``{"tables": {old: new}, "columns": {"table.old": "new"}}``
        where table keys are lower-cased.
        """
        tables: dict[str, str] = {}
        columns: dict[str, str] = {}
        for change in self._db.catalog.changes():
            if change.kind == "rename_table" and "->" in change.detail:
                old, new = change.detail.split("->", 1)
                tables[old.lower()] = new.lower()
            elif change.kind == "rename_column" and "->" in change.detail:
                old, new = change.detail.split("->", 1)
                columns[f"{change.table.lower()}.{old.lower()}"] = new.lower()
        return {"tables": tables, "columns": columns}

    def _try_repair(
        self,
        record: LoggedQuery,
        rename_maps: dict[str, dict[str, str]],
        schema_columns: Mapping[str, frozenset[str]],
    ) -> bool:
        """Attempt a textual repair of a query broken only by renames."""
        new_text = record.text
        changed = False
        for old_table, new_table in rename_maps["tables"].items():
            if old_table in record.features.tables:
                new_text = _replace_identifier(new_text, old_table, new_table)
                changed = True
        for qualified, new_column in rename_maps["columns"].items():
            table, old_column = qualified.split(".", 1)
            uses_column = any(
                attribute == old_column and relation in (table, rename_maps["tables"].get(table, table))
                for attribute, relation in record.features.attributes
            )
            if uses_column:
                new_text = _replace_identifier(new_text, old_column, new_column)
                changed = True
        if not changed:
            return False
        _, features, canonical, template = statement_artefacts(
            new_text, schema_columns, with_features=True
        )
        if features is None or _validity_problems(features, schema_columns):
            return False
        self._store.replace_text(record.qid, new_text, features, canonical, template)
        return True

    # -- dropping obsolete queries ---------------------------------------------------

    def drop_obsolete(self) -> MaintenanceReport:
        """Remove queries that stayed invalid through several maintenance passes."""
        report = MaintenanceReport()
        for record in list(self._store.all_queries()):
            if (
                record.flagged_invalid
                and record.flag_count >= self._config.drop_invalid_after_flags
            ):
                self._store.remove(record.qid)
                report.dropped.append(record.qid)
        return report

    # -- statistics freshness ------------------------------------------------------------

    def snapshot_statistics(self) -> None:
        """Record the current per-table statistics as the reference snapshot."""
        self._statistics_snapshots = {
            name.lower(): self._db.statistics(name, refresh=True)
            for name in self._db.table_names()
        }

    def detect_drift(self) -> list[str]:
        """Tables whose data distribution drifted past the plan cache's drift
        budget: the drift that makes a cached plan stale also makes the logged
        runtime statistics over that table stale."""
        drifted: list[str] = []
        for name in self._db.table_names():
            snapshot = self._statistics_snapshots.get(name.lower())
            if snapshot is None:
                continue
            current = self._db.statistics(name, refresh=True)
            if snapshot.drift(current) > DEFAULT_MAX_DRIFT:
                drifted.append(name.lower())
        return drifted

    def refresh_statistics(self, max_queries: int = 50) -> MaintenanceReport:
        """Re-execute queries over drifted tables to refresh runtime statistics.

        The naive alternative — re-running *all* queries periodically — is
        exactly what the paper calls "overly expensive"; only queries touching
        drifted tables are refreshed, most popular first, up to ``max_queries``.
        """
        report = MaintenanceReport()
        report.drifted_tables = self.detect_drift()
        if not report.drifted_tables:
            return report
        drifted = set(report.drifted_tables)
        popularity = self._store.popularity()
        candidates = [
            record
            for record in self._store.select_queries()
            if not record.flagged_invalid and drifted & set(record.tables)
        ]
        candidates.sort(
            key=lambda record: (-popularity.get(record.canonical_text, 0), record.qid)
        )
        for record in candidates[:max_queries]:
            try:
                result = self._db.execute(record.text)
            except ReproError:
                continue
            self._store.set_runtime(
                record.qid,
                replace(
                    record.runtime,
                    elapsed_seconds=result.stats.elapsed_seconds,
                    result_cardinality=result.stats.result_cardinality,
                    rows_scanned=result.stats.rows_scanned,
                ),
            )
            report.refreshed_queries.append(record.qid)
        # The refreshed state becomes the new reference point.
        self.snapshot_statistics()
        return report

    # -- quality ---------------------------------------------------------------------------

    def score_quality(self, record: LoggedQuery) -> float:
        """Compute a [0, 1] quality score for one query, and store it when
        the query is in the Query Storage (:meth:`QueryStore.set_quality`).

        Quality combines: execution success, runtime efficiency, result-set
        digestibility, documentation (annotations), and validity — the axes
        the paper lists as candidate quality definitions (Section 4.4).
        """
        score = _quality(record)
        if record.qid in self._store:
            self._store.set_quality({record.qid: score})
        return score

    def score_all_quality(self) -> dict[int, float]:
        """Score and store every logged query; returns qid → quality."""
        scores = {record.qid: _quality(record) for record in self._store.all_queries()}
        self._store.set_quality(scores)
        return scores


def _quality(record: LoggedQuery) -> float:
    """The quality score of :meth:`QueryMaintenance.score_quality`."""
    if not record.runtime.succeeded or record.flagged_invalid:
        return 0.0
    runtime_score = 1.0 / (1.0 + record.runtime.elapsed_seconds)
    cardinality = max(0, record.runtime.result_cardinality)
    size_score = 1.0 / (1.0 + math.log1p(cardinality)) if cardinality else 0.5
    documentation_score = 1.0 if record.annotations else 0.3
    return round(0.4 * runtime_score + 0.3 * size_score + 0.3 * documentation_score, 4)


def _validity_problems(features, schema_columns: Mapping[str, frozenset[str]]) -> list[str]:
    """What of a query's features the schema no longer has."""
    problems: list[str] = []
    for table in features.tables:
        if table not in schema_columns:
            problems.append(f"missing relation {table}")
    for attribute, relation in features.attributes:
        if relation == "?":
            continue
        columns = schema_columns.get(relation)
        if columns is not None and attribute not in columns:
            problems.append(f"missing attribute {relation}.{attribute}")
    return problems


def _replace_identifier(text: str, old: str, new: str) -> str:
    """Replace every IDENTIFIER token spelled ``old`` (case-insensitively) by
    ``new``, spliced at the token's position; a quoted identifier keeps its
    quotes.  String literals, keywords and the rest of the text stay as they
    were.  A text that does not tokenize comes back unchanged."""
    try:
        tokens = tokenize(text)
    except ReproError:
        return text
    old = old.lower()
    pieces, end = [], 0
    for token in tokens:
        if token.type is TokenType.IDENTIFIER and token.value.lower() == old:
            quoted = text[token.position] == '"'
            pieces += [text[end:token.position], f'"{new}"' if quoted else new]
            end = token.position + len(token.value) + 2 * quoted
    return "".join(pieces) + text[end:]
