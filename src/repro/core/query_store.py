"""The Query Storage: feature relations plus the query-record index.

The paper's Figure 1 shows the feature relations of the query-by-feature data
model::

    Queries(qid, qText)
    DataSources(qid, relName)
    Attributes(qid, attrName, relName)
    Predicates(qid, attrName, relName, op, const)

The Query Storage here materializes those relations (plus ``Projections``,
``Joins``, ``RuntimeStats``, ``OutputSamples``, ``Annotations``, ``Sessions``
and ``SessionEdges``) inside an instance of the same relational engine that
backs the user database, so that meta-queries are ordinary SQL exactly as the
paper envisions.  Alongside the relations it keeps the full
:class:`~repro.core.records.LoggedQuery` objects for the components that need
cheap object access (miner, recommender, maintenance), and one *statement
table* entry per distinct query text: whatever has been derived from a text
(its lower-cased form, its parse tree) is derived once and shared by every
record that carries it — logs are dominated by repeated statements.  That
includes the record's own artefacts, so a resubmitted text is not parsed again.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections import OrderedDict
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.core.records import (
    LoggedQuery,
    OutputSummary,
    RuntimeStats,
    TemplateArtefacts,
    statement_artefacts,
)
from repro.errors import DurabilityError, MetaQueryError, ReproError
from repro.sql.parse_tree import ParseTreeNode, TreePattern, match_pattern, to_parse_tree
from repro.storage.database import Database, QueryResult
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType


#: Statement templates whose shared artefacts the template table keeps.
TEMPLATE_TABLE_SIZE = 512


def _schema(name: str, *columns: tuple[str, DataType]) -> TableSchema:
    return TableSchema(
        name=name,
        columns=[ColumnSchema(name=column, data_type=data_type) for column, data_type in columns],
    )


#: Schemas of the Query Storage feature relations.
FEATURE_RELATIONS: list[TableSchema] = [
    _schema(
        "Queries",
        ("qid", DataType.INTEGER),
        ("qText", DataType.TEXT),
        ("userName", DataType.TEXT),
        ("groupName", DataType.TEXT),
        ("ts", DataType.FLOAT),
        ("statementKind", DataType.TEXT),
        ("visibility", DataType.TEXT),
        ("valid", DataType.BOOLEAN),
        ("invalidReason", DataType.TEXT),
        ("flagCount", DataType.INTEGER),
    ),
    _schema("DataSources", ("qid", DataType.INTEGER), ("relName", DataType.TEXT)),
    _schema(
        "Attributes",
        ("qid", DataType.INTEGER),
        ("attrName", DataType.TEXT),
        ("relName", DataType.TEXT),
    ),
    _schema(
        "Predicates",
        ("qid", DataType.INTEGER),
        ("attrName", DataType.TEXT),
        ("relName", DataType.TEXT),
        ("op", DataType.TEXT),
        ("const", DataType.TEXT),
    ),
    _schema(
        "Projections",
        ("qid", DataType.INTEGER),
        ("attrName", DataType.TEXT),
        ("relName", DataType.TEXT),
    ),
    _schema(
        "Joins",
        ("qid", DataType.INTEGER),
        ("leftRel", DataType.TEXT),
        ("leftAttr", DataType.TEXT),
        ("rightRel", DataType.TEXT),
        ("rightAttr", DataType.TEXT),
    ),
    _schema(
        "RuntimeStats",
        ("qid", DataType.INTEGER),
        ("elapsedSeconds", DataType.FLOAT),
        ("cardinality", DataType.INTEGER),
        ("rowsScanned", DataType.INTEGER),
        ("succeeded", DataType.BOOLEAN),
    ),
    # One row per summarized output: the summary's column names and its
    # sampled rows, each a JSON array (rows as positional arrays).
    _schema(
        "OutputSamples",
        ("qid", DataType.INTEGER),
        ("columnNames", DataType.TEXT),
        ("sampleRows", DataType.TEXT),
    ),
    _schema(
        "Annotations",
        ("qid", DataType.INTEGER),
        ("author", DataType.TEXT),
        ("ts", DataType.FLOAT),
        ("body", DataType.TEXT),
    ),
    _schema(
        "Sessions",
        ("sessionId", DataType.INTEGER),
        ("userName", DataType.TEXT),
        ("startTs", DataType.FLOAT),
        ("endTs", DataType.FLOAT),
        ("numQueries", DataType.INTEGER),
    ),
    _schema(
        "SessionEdges",
        ("sessionId", DataType.INTEGER),
        ("fromQid", DataType.INTEGER),
        ("toQid", DataType.INTEGER),
        ("edgeType", DataType.TEXT),
        ("diffSummary", DataType.TEXT),
    ),
    # Engine bookkeeping, not a paper relation: persists counters like the
    # qid high-water mark so identifiers are never reused across restarts
    # of a durable store (removals would otherwise lower max(qid)).
    _schema("StoreMeta", ("key", DataType.TEXT), ("value", DataType.INTEGER)),
]


@dataclass(slots=True)
class _Statement:
    """What the Query Storage keeps per distinct statement text."""

    lowered: str
    #: Live records carrying the text; the entry dies with the last one.
    count: int = 0
    #: Built by the first structural search that needs it; stays ``None``
    #: for a text that does not parse.
    tree: ParseTreeNode | None = None
    tree_built: bool = False
    #: ``(statement_kind, features, canonical_text, template_text)`` — the
    #: objects the text's records hold — and the key they were derived under
    #: (the profiler's mode and user-DB catalog version; ``None`` at reopen).
    artefacts: tuple | None = None
    artefacts_key: tuple | None = None


@dataclass(slots=True)
class Shape:
    """The SELECTs of the log that share one constant-free feature set.

    ``sets`` is :meth:`~repro.sql.features.QueryFeatures.feature_sets` — all
    the weighted feature similarity reads of a record — kept once for every
    record filed here; ``qids`` are those records, ascending.
    """

    sets: dict[str, frozenset]
    qids: list[int]


def _shape_key(sets: dict[str, frozenset]) -> tuple:
    """The hashable form of a feature-set dict (its classes in a fixed order)."""
    return tuple(sets.items())


def _posting_keys(tree: ParseTreeNode) -> set:
    """The postings a tree is filed under: each label and each (label, value)."""
    keys: set = set()
    for node in tree.walk():
        keys.add(node.label)
        if node.value:
            keys.add((node.label, node.value))
    return keys


def _pattern_keys(pattern: TreePattern) -> set:
    """The postings every tree matching ``pattern`` must be filed under."""
    keys = {(pattern.label, pattern.value) if pattern.value else pattern.label}
    for child in pattern.children:
        keys |= _pattern_keys(child)
    return keys


class QueryStore:
    """Query Storage: feature relations + the in-memory record index.

    With ``data_dir`` set the meta-database is durable: every shredded
    feature row goes through the write-ahead log, and reopening the same
    directory recovers the relations and rebuilds the in-memory record index
    from them — the paper's long-lived shared repository survives restarts.
    ``profiling_mode`` (``CQMSConfig.profiling_mode``) says whether the
    records of this log carry features: the rebuild derives each text's
    artefacts the way the profiler did when it logged it, so a record reads
    the same before a restart and after.  Only ``"text"`` logs without
    features (``"off"`` logs nothing and reads an existing log as the
    default mode wrote it); a log written under a mode switched at run time
    (:meth:`QueryProfiler.set_mode`) rebuilds under the current mode.
    """

    def __init__(
        self,
        clock=None,
        exec_settings=None,
        data_dir: str | None = None,
        wal_sync: str = "batch",
        checkpoint_interval: int = 0,
        schema: Callable[[], Mapping[str, frozenset[str]]] | None = None,
        profiling_mode: str = "features",
    ):
        if data_dir is not None:
            self._meta_db = Database.open(
                data_dir,
                name="query_storage",
                clock=clock,
                wal_sync=wal_sync,
                checkpoint_interval=checkpoint_interval,
                exec_settings=exec_settings,
            )
        else:
            self._meta_db = Database(name="query_storage", clock=clock, exec_settings=exec_settings)
        self._schema = schema or dict  # no user database: an empty map
        self._with_features = profiling_mode != "text"
        for table_schema in FEATURE_RELATIONS:
            # On a recovered data_dir the relations already exist, and must
            # have the shape this version reads.
            if not self._meta_db.has_table(table_schema.name):
                self._meta_db.create_table(table_schema)
                continue
            found = self._meta_db.table(table_schema.name).schema.column_names
            if found != table_schema.column_names:
                self._meta_db.close()
                raise DurabilityError(
                    f"data directory {data_dir!r} holds {table_schema.name}"
                    f"({', '.join(found)}); this version reads "
                    f"{table_schema.name}({', '.join(table_schema.column_names)})"
                )
        for table, column in (
            ("DataSources", "qid"),
            ("Attributes", "qid"),
            ("Predicates", "qid"),
            ("Projections", "qid"),
            ("Joins", "qid"),
            ("Queries", "qid"),
            ("RuntimeStats", "qid"),
            ("OutputSamples", "qid"),
            ("Annotations", "qid"),
            ("SessionEdges", "sessionId"),
            # Search columns of the Figure 1 meta-queries: the planner turns
            # equality conditions on these into IndexScans.
            ("DataSources", "relName"),
            ("Attributes", "attrName"),
            ("Attributes", "relName"),
            ("Predicates", "attrName"),
            ("Projections", "attrName"),
        ):
            self._meta_db.table(table).create_index(f"{table.lower()}_{column.lower()}", column)
        self._records: dict[int, LoggedQuery] = {}
        # Secondary indexes so per-user / per-group lookups (called once per
        # recommendation) do not scan the whole log.
        self._qids_by_user: dict[str, set[int]] = {}
        self._qids_by_group: dict[str, set[int]] = {}
        # The Figure 1 postings: a DataSources relName or an Attributes
        # (attrName, relName) -> the qids of the records with that row.
        self._feature_postings: dict[object, set[int]] = {}
        # The shape table: every SELECT with features filed under its
        # constant-free feature sets (see :meth:`shapes`).
        self._shapes: dict[tuple, Shape] = {}
        # The statement table, and the inverted index over the parse trees
        # built so far: label or (label, value) -> texts whose tree has it.
        self._statements: dict[str, _Statement] = {}
        self._tree_postings: dict[object, set[str]] = {}
        # The template table: what the instances of a user-DBMS token
        # template share, filed per (template, profiler key); LRU-bounded.
        self._templates: OrderedDict[tuple, TemplateArtefacts] = OrderedDict()
        self._generation = 0
        self._ordered: list[LoggedQuery] | None = None
        self._popularity: Mapping[str, int] | None = None
        self._telemetry = None
        self._next_qid = 1
        self._next_qid_row_id = self._init_store_meta()
        if data_dir is not None and len(self._meta_db.table("Queries")):
            self._rebuild_record_index()

    # -- basic access ---------------------------------------------------------

    def schema_columns(self) -> Mapping[str, frozenset[str]]:
        """The *user* database's schema map as it is now.

        ``schema`` (``Database.schema_columns``) is called on every read, so
        completion, correction, the tutorial and the reopen rebuild all see
        the live catalog; a store built without one reads an empty map.
        """
        return self._schema()

    @property
    def meta_database(self) -> Database:
        """The relational database holding the feature relations."""
        return self._meta_db

    def attach_telemetry(self, telemetry) -> None:
        """Attach an :class:`~repro.obs.telemetry.EngineTelemetry` bundle.

        The bundle instruments the meta-database (statement latency, operator
        counters) and receives the per-user / per-group workload series
        :meth:`add` maintains for the Workbench metrics panel.
        """
        self._telemetry = telemetry
        self._meta_db.attach_telemetry(telemetry)

    # -- durability lifecycle ----------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the meta-database and truncate its WAL (durable only)."""
        return self._meta_db.checkpoint()

    def close(self) -> None:
        """Flush the WAL and release the ``data_dir`` lock (idempotent)."""
        self._meta_db.close()

    def wal_stats(self):
        """WAL counters of the meta-database (None when in-memory)."""
        return self._meta_db.wal_stats()

    def buffer_stats(self):
        """Buffer-pool counters of the meta-database's page store."""
        return self._meta_db.buffer_stats()

    def _rebuild_record_index(self) -> None:
        """Repopulate the in-memory :class:`LoggedQuery` index after recovery.

        The feature relations are the durable source of truth; the record
        objects are a cache over them.  Text, user/group, timestamps,
        validity, statement kind, runtime statistics, annotations, and output
        samples come straight from the relations; syntactic features and
        canonical/template texts are re-derived from the recovered query text
        by :func:`~repro.core.records.statement_artefacts` (the function the
        profiler logged them with) — once per distinct text, filed on the
        text's statement-table entry with no profiler key: records carrying
        the same text share one feature object, which nothing mutates in
        place.  Parse trees are not built here; they stay
        lazy (see :meth:`texts_matching`).  Session membership is
        matched back from the ``Sessions`` time windows (same user, timestamp
        inside ``[startTs, endTs]``), so the per-session query counts stay
        consistent when a recovered query is later removed.  Output
        summaries come back as they were stored (see :func:`_output_row`).
        """
        relation = self._relation_dicts
        runtime_by_qid: dict[int, RuntimeStats] = {}
        for row in relation("RuntimeStats"):
            runtime_by_qid[row["qid"]] = RuntimeStats(
                elapsed_seconds=row["elapsedSeconds"] or 0.0,
                result_cardinality=row["cardinality"] or 0,
                rows_scanned=row["rowsScanned"] or 0,
                succeeded=bool(row["succeeded"]),
            )
        annotations_by_qid: dict[int, list[tuple[float, str]]] = {}
        for row in relation("Annotations"):
            annotations_by_qid.setdefault(row["qid"], []).append(
                (row["ts"] or 0.0, row["body"] or "")
            )
        samples_by_qid = {
            row["qid"]: (row["columnNames"], row["sampleRows"])
            for row in relation("OutputSamples")
        }
        sessions_by_user: dict[str, list[tuple[float, float, int]]] = {}
        for row in relation("Sessions"):
            sessions_by_user.setdefault(row["userName"], []).append(
                (row["startTs"] or 0.0, row["endTs"] or 0.0, row["sessionId"])
            )

        queries = sorted(relation("Queries"), key=lambda r: r["qid"])
        for row in queries:
            qid = row["qid"]
            record = LoggedQuery(
                qid=qid,
                user=row["userName"] or "",
                group=row["groupName"] or "",
                text=row["qText"] or "",
                timestamp=row["ts"] or 0.0,
                statement_kind=row["statementKind"] or "unknown",
                visibility=row["visibility"] or "group",
                flagged_invalid=not row["valid"],
                invalid_reason=row["invalidReason"],
                flag_count=row["flagCount"] or 0,
                runtime=runtime_by_qid.get(qid, RuntimeStats()),
            )
            artefacts = self.artefacts(record.text, None) or statement_artefacts(
                record.text, self.schema_columns(), self._with_features
            )
            _, record.features, record.canonical_text, record.template_text = artefacts
            record.annotations = [
                body for _, body in sorted(annotations_by_qid.get(qid, []))
            ]
            if qid in samples_by_qid:
                record.output = self._rebuild_output_summary(
                    *samples_by_qid[qid], record.runtime.result_cardinality
                )
            for start, end, session_id in sessions_by_user.get(record.user, ()):
                if start <= record.timestamp <= end:
                    record.session_id = session_id
                    break
            self._index(record)
            self._statements[record.text].artefacts = artefacts
        if self._records:
            # The StoreMeta high-water mark normally leads; max(qid)+1 is the
            # floor for stores created before the counter existed.
            self._next_qid = max(self._next_qid, max(self._records) + 1)

    def _relation_dicts(self, name: str) -> list[dict]:
        """Every row of a meta relation, keyed by column name (reopen only)."""
        table = self._meta_db.table(name)
        return list(map(table.schema.as_dict, table.rows()))

    @staticmethod
    def _rebuild_output_summary(
        column_names: str, sample_rows: str, result_cardinality: int
    ) -> OutputSummary:
        """The :class:`OutputSummary` of an ``OutputSamples`` row.

        ``result_cardinality`` (from ``RuntimeStats``) is the query's true
        output size, so ``total_rows``/``complete`` mean the same thing they
        meant when the profiler built the original summary.  A cell is one of
        the engine's stored types or NULL, all of which JSON round-trips.
        """
        rows = [tuple(row) for row in json.loads(sample_rows)]
        total_rows = max(result_cardinality, len(rows))
        return OutputSummary(
            columns=json.loads(column_names),
            rows=rows,
            total_rows=total_rows,
            complete=len(rows) >= total_rows,
        )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, qid: int) -> bool:
        return qid in self._records

    def next_qid(self) -> int:
        qid = self._next_qid
        self._next_qid += 1
        # Keep the durable high-water mark current: qids must stay unique
        # for the life of the store, not just of this process (max(qid)
        # over surviving rows would march backwards after removals).
        self._meta_db.table("StoreMeta").update(
            self._next_qid_row_id, {"value": self._next_qid}
        )
        return qid

    def _init_store_meta(self) -> int:
        """Load (or create) the persistent ``next_qid`` counter row."""
        table = self._meta_db.table("StoreMeta")
        key, value = table.schema.position("key"), table.schema.position("value")
        for row_id, row in table.scan():
            if row[key] == "next_qid":
                self._next_qid = max(self._next_qid, row[value] or 1)
                return row_id
        return table.insert({"key": "next_qid", "value": self._next_qid})

    def get(self, qid: int) -> LoggedQuery:
        try:
            return self._records[qid]
        except KeyError:
            raise MetaQueryError(f"unknown query id {qid}") from None

    @property
    def generation(self) -> int:
        """Counts the changes to what a search can return: bumped by
        :meth:`add`, :meth:`remove`, :meth:`replace_text` and
        :meth:`set_visibility`.  Caches over the log (the visible lists,
        popularity) are tagged with it instead of re-walking the log."""
        return self._generation

    def _changed(self) -> None:
        self._generation += 1
        self._ordered = None
        self._popularity = None

    def _index(self, record: LoggedQuery) -> None:
        """File a record in every in-memory index (:meth:`_unindex` undoes it)."""
        qid = record.qid
        self._records[qid] = record
        self._qids_by_user.setdefault(record.user, set()).add(qid)
        self._qids_by_group.setdefault(record.group, set()).add(qid)
        self._intern_text(record.text)
        for key in _feature_keys(record):
            self._feature_postings.setdefault(key, set()).add(qid)
        if record.is_select and record.features is not None:
            sets = record.features.feature_sets()
            insort(self._shapes.setdefault(_shape_key(sets), Shape(sets, [])).qids, qid)

    def _unindex(self, record: LoggedQuery) -> None:
        qid = record.qid
        del self._records[qid]
        self._qids_by_user.get(record.user, set()).discard(qid)
        self._qids_by_group.get(record.group, set()).discard(qid)
        self._release_text(record.text)
        for key in _feature_keys(record):
            bucket = self._feature_postings[key]
            bucket.discard(qid)
            if not bucket:
                del self._feature_postings[key]
        if record.is_select and record.features is not None:
            key = _shape_key(record.features.feature_sets())
            qids = self._shapes[key].qids
            del qids[bisect_left(qids, qid)]
            if not qids:
                del self._shapes[key]

    def qids_with_features(self, keys: Sequence) -> list[int]:
        """Qids, in order, of the records with a ``DataSources`` row for every
        relation name and an ``Attributes`` row for every ``(attrName,
        relName)`` in ``keys``; postings are intersected smallest first."""
        postings = [self._feature_postings.get(key) for key in keys]
        if not postings or not all(postings):
            return []
        return sorted(set.intersection(*sorted(postings, key=len)))

    def shapes(self) -> Collection[Shape]:
        """The shape table: one :class:`Shape` per distinct feature-set dict
        among the logged SELECTs with features.  Kept current by every write,
        so a kNN search scores each shape once instead of each record."""
        return self._shapes.values()

    def all_queries(self) -> list[LoggedQuery]:
        """All logged queries in qid order (sorted once per generation)."""
        if self._ordered is None:
            self._ordered = [self._records[qid] for qid in sorted(self._records)]
        return list(self._ordered)

    def queries_of_user(self, user: str) -> list[LoggedQuery]:
        return [self._records[qid] for qid in sorted(self._qids_by_user.get(user, ()))]

    def queries_of_group(self, group: str) -> list[LoggedQuery]:
        return [self._records[qid] for qid in sorted(self._qids_by_group.get(group, ()))]

    def select_queries(self) -> list[LoggedQuery]:
        """Only SELECT statements (the ones mining and recommendation use)."""
        return [record for record in self.all_queries() if record.is_select]

    # -- the statement table ----------------------------------------------------

    def _intern_text(self, text: str) -> None:
        entry = self._statements.get(text)
        if entry is None:
            entry = self._statements[text] = _Statement(lowered=text.lower())
        entry.count += 1

    def _release_text(self, text: str) -> None:
        entry = self._statements[text]
        entry.count -= 1
        if entry.count:
            return
        del self._statements[text]
        if entry.tree is not None:
            for key in _posting_keys(entry.tree):
                bucket = self._tree_postings[key]
                bucket.discard(text)
                if not bucket:
                    del self._tree_postings[key]

    def artefacts(self, text: str, key: tuple | None) -> tuple | None:
        """The ``(statement_kind, features, canonical_text, template_text)``
        filed for a logged ``text`` under ``key``, or ``None`` when the text
        is not logged or its artefacts were derived under another key."""
        entry = self._statements.get(text)
        if entry is None or entry.artefacts_key != key:
            return None
        return entry.artefacts

    def template_artefacts(self, template: tuple | None, key: tuple) -> TemplateArtefacts | None:
        """The :class:`~repro.core.records.TemplateArtefacts` filed for the
        user DBMS's token ``template`` under ``key`` (see :meth:`artefacts`),
        or ``None``."""
        if template is None:
            return None
        shared = self._templates.get((template, key))
        if shared is not None:
            self._templates.move_to_end((template, key))
        return shared

    def lowered_text(self, record: LoggedQuery) -> str:
        """``record.text.lower()``, computed once per distinct text."""
        return self._statements[record.text].lowered

    def texts_matching(self, pattern: TreePattern, texts: set[str]) -> set[str]:
        """The subset of ``texts`` whose parse tree contains ``pattern``.

        ``texts`` are statement texts of live records.  Those not yet parsed
        are parsed now — at most once per distinct text for the life of its
        entry — and filed under every label and ``(label, value)`` of their
        tree.  A matching tree must contain every pattern node's label (and
        value, when the pattern gives one), so intersecting those postings
        loses no match; :func:`match_pattern` then runs once per surviving
        text.  Texts that do not parse have no tree and never match.
        """
        for text in texts:
            entry = self._statements[text]
            if not entry.tree_built:
                entry.tree_built = True
                try:
                    entry.tree = to_parse_tree(text)
                except ReproError:
                    continue
                for key in _posting_keys(entry.tree):
                    self._tree_postings.setdefault(key, set()).add(text)
        postings = [self._tree_postings.get(key) for key in _pattern_keys(pattern)]
        if not all(postings):
            return set()
        candidates = set.intersection(*sorted([texts, *postings], key=len))
        return {
            text for text in candidates if match_pattern(self._statements[text].tree, pattern)
        }

    # -- ingest -----------------------------------------------------------------

    def add(
        self,
        record: LoggedQuery,
        artefacts_key: tuple | None = None,
        template: tuple[tuple, TemplateArtefacts] | None = None,
    ) -> None:
        """Insert a logged query and shred its features into the relations.

        With ``artefacts_key`` the record's artefacts were derived under that
        key, and :meth:`artefacts` hands them to the next record of its text;
        ``template`` — ``(token template, TemplateArtefacts)`` — files what
        the text's template shares under the same key for
        :meth:`template_artefacts`.
        """
        if record.qid in self._records:
            raise MetaQueryError(f"duplicate query id {record.qid}")
        self._index(record)
        if artefacts_key is not None:
            entry = self._statements[record.text]
            entry.artefacts_key = artefacts_key
            entry.artefacts = (
                record.statement_kind, record.features, record.canonical_text, record.template_text
            )
            if template is not None:
                self._templates[(template[0], artefacts_key)] = template[1]
                while len(self._templates) > TEMPLATE_TABLE_SIZE:
                    self._templates.popitem(last=False)
        self._changed()
        if self._telemetry is not None:
            registry = self._telemetry.registry
            registry.counter(
                "user_queries",
                "queries logged into the Query Storage, per user",
                user=record.user,
            ).inc()
            elapsed = record.runtime.elapsed_seconds if record.runtime else 0.0
            registry.histogram(
                "user_query_seconds",
                "logged-query latency as observed per user",
                user=record.user,
            ).observe(elapsed)
            registry.histogram(
                "group_query_seconds",
                "logged-query latency as observed per collaboration group",
                group=record.group,
            ).observe(elapsed)
            if not (record.runtime and record.runtime.succeeded):
                registry.counter(
                    "user_queries_failed",
                    "logged queries that failed, per user",
                    user=record.user,
                ).inc()
        # One batch per relation, rows spelled and ordered like the schema
        # (the storage engine resolves the keys once per batch), and no call
        # at all for a relation the query has no rows for.
        qid = record.qid
        insert_rows = self._meta_db.insert_rows
        insert_rows(
            "Queries",
            [
                {
                    "qid": qid,
                    "qText": record.text,
                    "userName": record.user,
                    "groupName": record.group,
                    "ts": record.timestamp,
                    "statementKind": record.statement_kind,
                    "visibility": record.visibility,
                    "valid": not record.flagged_invalid,
                    "invalidReason": record.invalid_reason,
                    "flagCount": record.flag_count,
                }
            ],
        )
        insert_rows("RuntimeStats", [_runtime_row(qid, record.runtime)])
        if record.output is not None:
            insert_rows("OutputSamples", [_output_row(qid, record.output)])
        if record.features is None:
            return
        features = record.features
        batches = {
            "DataSources": [{"qid": qid, "relName": table} for table in features.tables],
            "Attributes": [
                {"qid": qid, "attrName": attribute, "relName": relation}
                for attribute, relation in features.attributes
            ],
            "Predicates": [
                {
                    "qid": qid,
                    "attrName": predicate.attribute,
                    "relName": predicate.relation,
                    "op": predicate.op,
                    "const": _constant_text(predicate.constant),
                }
                for predicate in features.predicates
            ],
            "Projections": [
                {"qid": qid, "attrName": attribute, "relName": relation}
                for attribute, relation in features.projections
            ],
            "Joins": [
                {
                    "qid": qid,
                    "leftRel": join.left_relation,
                    "leftAttr": join.left_attribute,
                    "rightRel": join.right_relation,
                    "rightAttr": join.right_attribute,
                }
                for join in (join.normalized() for join in features.joins)
            ],
        }
        for relation, rows in batches.items():
            if rows:
                insert_rows(relation, rows)

    # -- annotations ----------------------------------------------------------------

    def add_annotation(self, qid: int, author: str, body: str, timestamp: float = 0.0) -> None:
        record = self.get(qid)
        record.annotations.append(body)
        self._meta_db.insert_rows(
            "Annotations",
            [{"qid": qid, "author": author, "ts": timestamp, "body": body}],
        )

    def annotations_for(self, qid: int) -> list[str]:
        return list(self.get(qid).annotations)

    # -- sessions ----------------------------------------------------------------------

    def record_sessions(self, sessions) -> None:
        """Persist mined sessions and their edges (replacing previous ones)."""
        self._meta_db.execute("DELETE FROM Sessions")
        self._meta_db.execute("DELETE FROM SessionEdges")
        session_rows = []
        edge_rows = []
        for session in sessions:
            session_rows.append(
                {
                    "sessionId": session.session_id,
                    "userName": session.user,
                    "startTs": session.start_time,
                    "endTs": session.end_time,
                    "numQueries": len(session.qids),
                }
            )
            for edge in session.edges:
                edge_rows.append(
                    {
                        "sessionId": session.session_id,
                        "fromQid": edge.from_qid,
                        "toQid": edge.to_qid,
                        "edgeType": edge.edge_type,
                        "diffSummary": edge.diff_summary,
                    }
                )
            for qid in session.qids:
                if qid in self._records:
                    self._records[qid].session_id = session.session_id
        if session_rows:
            self._meta_db.insert_rows("Sessions", session_rows)
        if edge_rows:
            self._meta_db.insert_rows("SessionEdges", edge_rows)

    # -- maintenance hooks -----------------------------------------------------------------

    def mark_invalid(self, qid: int, reason: str) -> None:
        """Flag a query invalid, composing ``reason`` with existing ones.

        Reasons are ``"; "``-joined and deduplicated, so linter-sourced and
        user/maintenance-sourced entries append instead of overwriting each
        other, and re-flagging with a known reason never grows the text.
        ``flag_count`` still advances on *every* call — it is the
        drop-after-N-flags counter of the maintenance policy, counting
        flagging events, not distinct reasons.
        """
        record = self.get(qid)
        reasons = [
            part for part in (record.invalid_reason or "").split("; ") if part
        ]
        for part in (piece.strip() for piece in reason.split("; ")):
            if part and part not in reasons:
                reasons.append(part)
        record.flagged_invalid = True
        record.invalid_reason = "; ".join(reasons) if reasons else reason
        record.flag_count += 1
        self._sync_validity(record)

    def mark_valid(self, qid: int) -> None:
        record = self.get(qid)
        record.flagged_invalid = False
        record.invalid_reason = None
        self._sync_validity(record)

    def lint_log(self, catalog=None, table_provider=None, mark: bool = True):
        """Run the SQL semantic linter over every logged query.

        Lints against ``catalog`` (a live user-database catalog, enabling the
        type- and index-aware rules; ``table_provider`` adds index lookups)
        or, absent one, the name-only map of :meth:`schema_columns`.
        Returns ``{qid: [Diagnostic, ...]}`` for every query with findings.
        With ``mark=True`` (the default), ERROR-severity
        findings auto-populate ``Queries.invalidReason`` via
        :meth:`mark_invalid` — composing with, never overwriting, existing
        reasons — while queries without errors are left untouched (a clean
        lint never clears a user-sourced flag).
        """
        from repro.analysis.framework import Severity
        from repro.analysis.sql_lint import SchemaView, SqlLinter

        if catalog is not None:
            view = SchemaView(catalog=catalog, table_provider=table_provider)
        elif schema := self.schema_columns():
            view = SchemaView(schema_columns=schema)
        else:
            raise MetaQueryError(
                "lint_log needs a catalog or a schema_columns mapping to lint against"
            )
        linter = SqlLinter(view)
        findings: dict[int, list] = {}
        for record in self.all_queries():
            diagnostics = linter.lint_sql(record.text, location=f"qid {record.qid}")
            if not diagnostics:
                continue
            findings[record.qid] = diagnostics
            if mark:
                errors = [d for d in diagnostics if d.severity is Severity.ERROR]
                if errors:
                    self.mark_invalid(
                        record.qid,
                        "; ".join(f"lint: {d.message}" for d in errors),
                    )
        return findings

    def _sync_validity(self, record: LoggedQuery) -> None:
        """Mirror the record's flag state into ``Queries`` (validity, reason,
        flag count) through the qid index, bypassing SQL parsing.  Keeping
        the relation authoritative means the maintenance drop-after-N-flags
        policy survives restarts of a durable store."""
        table = self._meta_db.table("Queries")
        for row_id in self._feature_row_ids(table, record.qid):
            table.update(
                row_id,
                {
                    "valid": not record.flagged_invalid,
                    "invalidReason": record.invalid_reason,
                    "flagCount": record.flag_count,
                },
            )

    def set_runtime(self, qid: int, runtime: RuntimeStats) -> None:
        """Replace a query's runtime statistics (a maintenance refresh), on
        the record and — through the qid index, like :meth:`_sync_validity` —
        in ``RuntimeStats``, so meta-SQL agrees with the record at once and
        the refreshed numbers survive a restart."""
        self.get(qid).runtime = runtime
        table = self._meta_db.table("RuntimeStats")
        for row_id in self._feature_row_ids(table, qid):
            table.update(row_id, _runtime_row(qid, runtime))

    def set_visibility(self, qid: int, visibility: str) -> None:
        """Change who may see a query (``"private"``/``"group"``/``"public"``),
        on the record and — through the qid index, like :meth:`_sync_validity`
        — in ``Queries``, so the setting survives a restart."""
        record = self.get(qid)
        record.visibility = visibility
        table = self._meta_db.table("Queries")
        for row_id in self._feature_row_ids(table, qid):
            table.update(row_id, {"visibility": visibility})
        self._changed()

    def remove(self, qid: int) -> list[dict]:
        """Remove a query and all its shredded features.

        Session rows referencing the query are cleaned up too: its
        ``SessionEdges`` are deleted and the owning session's ``numQueries``
        is decremented, so meta-SQL over the session relations never sees
        edges pointing at a query that no longer exists.  Returns copies of
        the deleted edge rows (``replace_text`` restores them after a repair).
        """
        record = self.get(qid)
        self._unindex(record)
        self._changed()
        for table_name in (
            "Queries",
            "DataSources",
            "Attributes",
            "Predicates",
            "Projections",
            "Joins",
            "RuntimeStats",
            "OutputSamples",
            "Annotations",
        ):
            table = self._meta_db.table(table_name)
            for row_id in self._feature_row_ids(table, qid):
                table.delete(row_id)
        edges = self._meta_db.table("SessionEdges")
        source, target = edges.schema.position("fromQid"), edges.schema.position("toQid")
        dangling = [
            (row_id, row)
            for row_id, row in list(edges.scan())
            if row[source] == qid or row[target] == qid
        ]
        for row_id, _ in dangling:
            edges.delete(row_id)
        if record.session_id is not None:
            self._adjust_session_count(record.session_id, -1)
        return [edges.schema.as_dict(row) for _, row in dangling]

    def _adjust_session_count(self, session_id: int, delta: int) -> None:
        """Shift a session's ``numQueries`` after adding/removing a member."""
        sessions = self._meta_db.table("Sessions")
        key = sessions.schema.position("sessionId")
        count = sessions.schema.position("numQueries")
        for row_id, row in list(sessions.scan()):
            if row[key] == session_id:
                sessions.update(row_id, {"numQueries": max(0, (row[count] or 0) + delta)})
                break  # session ids are unique in the Sessions relation

    @staticmethod
    def _feature_row_ids(table, qid: int) -> list[int]:
        """Row ids of a feature relation's rows for ``qid`` (index-assisted)."""
        index = table.index_for("qid")
        if index is not None:
            return sorted(index.lookup(qid))
        position = table.schema.position("qid")
        return [row_id for row_id, row in table.scan() if row[position] == qid]

    def replace_text(self, qid: int, new_text: str, features, canonical: str, template: str) -> None:
        """Replace a repaired query's text and re-shred its features.

        The repaired query keeps its identity: annotation rows, session
        edges, and the session membership captured before the remove/add
        cycle are restored afterwards — both on the in-memory record and in
        the feature relations, so meta-SQL over ``Annotations`` and
        ``SessionEdges`` stays consistent with the record index.
        """
        record = self.get(qid)
        annotations = list(record.annotations)
        annotations_table = self._meta_db.table("Annotations")
        annotation_rows = [
            annotations_table.schema.as_dict(row)
            for row in annotations_table.lookup("qid", qid)
        ]
        session_id = record.session_id
        edge_rows = self.remove(qid)
        record.text = new_text
        record.features = features
        record.canonical_text = canonical
        record.template_text = template
        record.flagged_invalid = False
        record.invalid_reason = None
        record.annotations = []
        self.add(record)
        record.annotations = annotations
        record.session_id = session_id
        if annotation_rows:
            self._meta_db.insert_rows("Annotations", annotation_rows)
        if edge_rows:
            self._meta_db.insert_rows("SessionEdges", edge_rows)
        if session_id is not None:
            self._adjust_session_count(session_id, +1)

    # -- statistics --------------------------------------------------------------------------

    def popularity(self) -> Mapping[str, int]:
        """Number of logged queries per canonical text (duplicate = popular).

        Counted once per :attr:`generation`; every reader until the next
        change shares the one read-only mapping."""
        if self._popularity is None:
            counts: dict[str, int] = {}
            for record in self._records.values():
                if record.canonical_text:
                    counts[record.canonical_text] = counts.get(record.canonical_text, 0) + 1
            self._popularity = MappingProxyType(counts)
        return self._popularity

    def table_popularity(self) -> dict[str, int]:
        """Number of logged queries referencing each relation."""
        return {
            key: len(qids) for key, qids in self._feature_postings.items() if isinstance(key, str)
        }

    # -- meta SQL ------------------------------------------------------------------------------

    def execute_meta_sql(self, sql: str) -> QueryResult:
        """Run an arbitrary SQL meta-query over the feature relations.

        This is the paper's Figure 1 interface: meta-queries are plain SQL
        over ``Queries``, ``DataSources``, ``Attributes``, ``Predicates`` and
        the other feature relations.
        """
        return self._meta_db.execute(sql)

    def explain_meta_sql(self, sql: str, analyze: bool = False):
        """EXPLAIN (optionally ANALYZE) a SQL meta-query over the feature relations.

        Returns the engine's :class:`~repro.storage.planner.PlanExplanation`
        so users can see which access paths (e.g. the ``qid`` index scans)
        the meta-query will use; with ``analyze=True`` the meta-query is
        executed and every plan node carries its actual row count, batch
        count, and wall time.
        """
        return self._meta_db.explain(sql, analyze=analyze)

    def plan_cache_stats(self):
        """Plan-cache counters of the meta-database.

        The Figure 1 meta-queries are highly templated, so the hit rate here
        is the headline number for the Query Storage's planning overhead.
        """
        return self._meta_db.plan_cache_stats()


def _feature_keys(record: LoggedQuery) -> set:
    """The Figure 1 postings a record is filed under (see ``_feature_postings``)."""
    if record.features is None:
        return set()
    return {*record.features.tables, *record.features.attributes}


def _runtime_row(qid: int, runtime: RuntimeStats) -> dict[str, object]:
    """The ``RuntimeStats`` row of a query's runtime statistics."""
    return {
        "qid": qid,
        "elapsedSeconds": runtime.elapsed_seconds,
        "cardinality": runtime.result_cardinality,
        "rowsScanned": runtime.rows_scanned,
        "succeeded": runtime.succeeded,
    }


def _output_row(qid: int, summary: OutputSummary) -> dict[str, object]:
    """The ``OutputSamples`` row of a query's output summary."""
    return {
        "qid": qid,
        "columnNames": json.dumps(summary.columns, ensure_ascii=False),
        "sampleRows": json.dumps(summary.rows, ensure_ascii=False),
    }


def _constant_text(value: object) -> str | None:
    """Render a predicate constant for storage in a TEXT column."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_constant_text(item) or "NULL" for item in value) + ")"
    return str(value)
