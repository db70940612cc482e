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
paper envisions.  A record is logged as one ``Queries`` row that carries its
artefacts (features included), runtime statistics and output sample; the five
feature relations, ``RuntimeStats`` and ``OutputSamples`` are an unlogged
projection of the records, brought up to date just before a meta-query reads
them by refilling the rows of the records changed since the last fill.
Alongside the relations it keeps the full
:class:`~repro.core.records.LoggedQuery` objects for the components
that need cheap object access (miner, recommender, maintenance), and one
*statement table* entry per distinct query text: whatever has been derived from a text
(its lower-cased form, its parse tree) is derived once and shared by every
record that carries it — logs are dominated by repeated statements.  That
includes the record's own artefacts, so a resubmitted text is not parsed again.
"""

from __future__ import annotations

import json
import marshal
from bisect import bisect_left, insort
from collections import OrderedDict
from collections.abc import Callable, Collection, Mapping, Sequence, Set
from dataclasses import dataclass, field, replace
from operator import itemgetter
from types import MappingProxyType

from repro.core.access_control import Visibility
from repro.core.records import LoggedQuery, OutputSummary, RuntimeStats, TemplateArtefacts
from repro.errors import AccessControlError, DurabilityError, MetaQueryError, ReproError
from repro.sql.features import QueryFeatures
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
        # The record's artefacts, so a reopen reads them instead of parsing:
        # features as one JSON value (QueryFeatures.to_values), NULL for none.
        ("canonicalText", DataType.TEXT),
        ("templateText", DataType.TEXT),
        ("features", DataType.JSON),
        # The maintenance quality score.
        ("quality", DataType.FLOAT),
        # Runtime statistics and the output sample, which RuntimeStats and
        # OutputSamples project: the sample's column names and its rows, as
        # JSON values (NULL for no sample).
        ("elapsedSeconds", DataType.FLOAT),
        ("cardinality", DataType.INTEGER),
        ("rowsScanned", DataType.INTEGER),
        ("succeeded", DataType.BOOLEAN),
        ("columnNames", DataType.JSON),
        ("sampleRows", DataType.JSON),
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
    # sampled rows, each a JSON array as text (rows as positional arrays), so
    # query-by-data is ``sampleRows LIKE '%"value"%'``.
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


#: The Figure 1 feature relations plus ``RuntimeStats`` and ``OutputSamples``:
#: unlogged tables holding a projection of each record's features, runtime
#: statistics and output sample (:func:`_projection_rows`), whose stale rows
#: :meth:`QueryStore._project` refills before a meta-query runs.  A record's
#: one logged row is its ``Queries`` row (:func:`_queries_row`); ``Annotations``
#: and the session relations are written by their own mutators.
PROJECTED_RELATIONS = (
    "DataSources", "Attributes", "Predicates", "Projections", "Joins", "RuntimeStats",
    "OutputSamples",
)
#: The record fields :func:`_projection_rows` reads (besides the qid).
_PROJECTED_FIELDS = frozenset({"runtime", "features", "output"})
#: Each relation's column names, in schema order (see :func:`_row`).
_COLUMNS = {schema.name: schema.column_names for schema in FEATURE_RELATIONS}


@dataclass(slots=True)
class _Change:
    """One mutation of the Query Storage, as :meth:`QueryStore._apply` writes
    it: per relation, the ``(row id, changed columns)`` it ``updates``, the
    row ids it ``deletes`` and the rows it ``inserts``; then in memory the
    record it ``removes`` (unfiles), the fields it ``assigns``, the record it
    ``sets`` (files, with its artefacts under ``artefacts_key``), and whether
    it ``bumps`` :attr:`QueryStore.generation`."""

    removes: LoggedQuery | None = None
    sets: LoggedQuery | None = None
    assigns: list[tuple[LoggedQuery, dict[str, object]]] = field(default_factory=list)
    deletes: dict[str, list[int]] = field(default_factory=dict)
    updates: dict[str, list[tuple[int, dict[str, object]]]] = field(default_factory=dict)
    inserts: dict[str, list[dict[str, object]]] = field(default_factory=dict)
    bumps: bool = False
    artefacts_key: tuple | None = None


@dataclass(slots=True)
class _Statement:
    """What the Query Storage keeps per distinct statement text."""

    lowered: str
    #: The qids of the live records carrying the text; the entry dies with them.
    qids: set[int] = field(default_factory=set)
    #: Built by the first structural search that needs it; stays ``None``
    #: for a text that does not parse.
    tree: ParseTreeNode | None = None
    #: ``(statement_kind, features, canonical_text, template_text)`` — the
    #: objects the text's records hold — and the key the profiler derived
    #: them under (its mode and the user-DB catalog version).
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

    With ``data_dir`` set the meta-database is durable: each record is one
    ``Queries`` row, logged as one write-ahead-log frame, and reopening the
    same directory recovers the rows and rebuilds the in-memory record index
    from them — the paper's long-lived shared repository survives restarts.
    The row carries the record's artefacts, runtime statistics and output
    sample, so a reopened record reads as it was logged, a reopen parses
    nothing, and a crash keeps a record whole or not at all.  The relations
    of :data:`PROJECTED_RELATIONS` are unlogged (a recovery leaves them
    empty): :meth:`execute_meta_sql` and :meth:`explain_meta_sql` fill them
    from the records first.
    """

    def __init__(
        self,
        clock=None,
        exec_settings=None,
        data_dir: str | None = None,
        wal_sync: str = "batch",
        checkpoint_interval: int = 0,
        schema: Callable[[], Mapping[str, frozenset[str]]] | None = None,
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
        for table_schema in FEATURE_RELATIONS:
            # On a recovered data_dir the relations already exist, and must
            # have the shape this version reads.
            if not self._meta_db.has_table(table_schema.name):
                unlogged = table_schema.name in PROJECTED_RELATIONS
                self._meta_db.create_table(table_schema, unlogged=unlogged)
                continue
            found = self._meta_db.table(table_schema.name).schema
            if found.columns != table_schema.columns:  # names and types
                self._meta_db.close()
                raise DurabilityError(
                    f"data directory {data_dir!r} holds {_spell(found, table_schema)}; "
                    f"this version reads {_spell(table_schema, found)}"
                )
        for table, column in (
            *((relation, "qid") for relation in ("Queries", *PROJECTED_RELATIONS, "Annotations")),
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
        # The visibility postings (see visibility_postings): author -> the
        # qids they logged, group -> its group-visible qids, and the public
        # qids.  String keys: an enum member hashes through Python code.
        self._authored: dict[str, set[int]] = {}
        self._group_visible: dict[str, set[int]] = {}
        self._public: set[int] = set()
        # What text search scans, per qid: the text lower-cased (the
        # statement entry's string) and, for keyword search, that text and
        # the record's annotations lower-cased, space-joined.
        self._lowered: dict[int, str] = {}
        self._haystacks: dict[int, str] = {}
        self._lowered_view = MappingProxyType(self._lowered)
        self._haystacks_view = MappingProxyType(self._haystacks)
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
        self._unparsed: set[str] = set()  # texts no structural search parsed yet
        # The template table: what the instances of a user-DBMS token
        # template share, filed per (template, profiler key); LRU-bounded.
        self._templates: OrderedDict[tuple, TemplateArtefacts] = OrderedDict()
        self._generation = 0
        self._ordered: list[LoggedQuery] | None = None
        self._popularity: Mapping[str, int] | None = None
        self._telemetry = None
        # The qids whose projected rows are out of date (see _remember): the
        # next meta-query refills those rows and no others.
        self._stale: set[int] = set()
        self._next_qid = 1
        self._next_qid_row_id = self._init_store_meta()
        if data_dir is not None and len(self._meta_db.table("Queries")):
            self._reopen()

    # -- basic access ---------------------------------------------------------

    def schema_columns(self) -> Mapping[str, frozenset[str]]:
        """The *user* database's schema map as it is now.

        ``schema`` (``Database.schema_columns``) is called on every read, so
        completion, correction and the tutorial all see the live catalog; a
        store built without one reads an empty map.
        """
        return self._schema()

    @property
    def meta_database(self) -> Database:
        """The relational database holding the feature relations."""
        return self._meta_db

    def attach_telemetry(self, telemetry) -> None:
        """Attach an :class:`~repro.obs.telemetry.EngineTelemetry` bundle.

        The bundle instruments the meta-database (statement latency, operator
        counters) and receives the per-user ``user_queries`` count :meth:`add`
        keeps for the Workbench metrics panel.
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

    def _reopen(self) -> None:
        """Refile a recovered log in memory: each record is read back from its
        rows (:func:`_record`), artefacts included, and filed by
        :meth:`_remember`, the memory half of every write.  Records whose
        features read alike share one decoded object, and a record the miner
        reads (``LoggedQuery.is_mined``) rejoins its user's ``Sessions``
        window that holds its timestamp.
        """
        annotations: dict[int, list[str]] = {}
        for qid, _, _, body in self._meta_db.table("Annotations").rows():
            annotations.setdefault(qid, []).append(body or "")
        windows: dict[str, list[tuple]] = {}
        for session_id, user, start, end, _ in self._meta_db.table("Sessions").rows():
            windows.setdefault(user, []).append((start or 0.0, end or 0.0, session_id))
        decoded: dict[bytes, QueryFeatures] = {}
        for row in sorted(self._meta_db.table("Queries").rows(), key=itemgetter(0)):
            record = _record(row, annotations.get(row[0], []), decoded)
            if record.is_mined:
                for start, end, session_id in windows.get(record.user, ()):
                    if start <= record.timestamp <= end:
                        record.session_id = session_id
                        break
            self._remember(_Change(sets=record))
        if self._records:
            # The StoreMeta mark leads only after a removal of the top qid.
            self._next_qid = max(self._next_qid, max(self._records) + 1)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, qid: int) -> bool:
        return qid in self._records

    def next_qid(self) -> int:
        """A qid no record of this store has carried.  Only :meth:`remove`
        can lower ``max(qid)``, so it writes the durable mark, and a reopen
        takes the larger of the mark and ``max(qid) + 1``."""
        qid = self._next_qid
        self._next_qid += 1
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
        :meth:`add`, :meth:`remove`, :meth:`replace_text`,
        :meth:`set_visibility` and :meth:`set_runtime`.  Caches over the log
        (the visible lists, popularity) are tagged with it instead of
        re-walking the log; the projection instead refills the rows of the
        records each such change touched (:meth:`_project`)."""
        return self._generation

    def _changed(self) -> None:
        self._generation += 1
        self._ordered = None
        self._popularity = None

    def _index(self, record: LoggedQuery) -> None:
        """File a record in every in-memory index (:meth:`_unindex` undoes it)."""
        qid = record.qid
        self._records[qid] = record
        self._intern_text(record.text, qid)
        self._file_visibility(record)
        self._lowered[qid] = self._statements[record.text].lowered
        self._file_haystack(record)
        for key in _feature_keys(record):
            self._feature_postings.setdefault(key, set()).add(qid)
        if record.is_mined:
            sets = record.features.feature_sets()
            insort(self._shapes.setdefault(_shape_key(sets), Shape(sets, [])).qids, qid)

    def _unindex(self, record: LoggedQuery) -> None:
        qid = record.qid
        del self._records[qid]
        self._release_text(record.text, qid)
        self._unfile_visibility(record)
        del self._lowered[qid], self._haystacks[qid]
        for key in _feature_keys(record):
            bucket = self._feature_postings[key]
            bucket.discard(qid)
            if not bucket:
                del self._feature_postings[key]
        if record.is_mined:
            key = _shape_key(record.features.feature_sets())
            qids = self._shapes[key].qids
            del qids[bisect_left(qids, qid)]
            if not qids:
                del self._shapes[key]

    def _file_visibility(self, record: LoggedQuery) -> None:
        # A stored visibility is a Visibility's value: add, set_visibility
        # and a reopen (_record) make it one.
        qid, visibility = record.qid, record.visibility
        self._authored.setdefault(record.user, set()).add(qid)
        if visibility == "public":
            self._public.add(qid)
        elif visibility == "group":
            self._group_visible.setdefault(record.group, set()).add(qid)

    def _unfile_visibility(self, record: LoggedQuery) -> None:
        qid = record.qid
        self._public.discard(qid)
        for postings, key in ((self._authored, record.user), (self._group_visible, record.group)):
            bucket = postings.get(key)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del postings[key]

    def _file_haystack(self, record: LoggedQuery) -> None:
        self._haystacks[record.qid] = (
            self._lowered[record.qid] + " " + " ".join(record.annotations).lower()
        )

    def visibility_postings(self, user: str, group: str) -> tuple[Set[int], Set[int], Set[int]]:
        """The qids ``user`` logged, the public qids, and the group-visible
        qids of ``group``: what :meth:`AccessControl.can_see` allows besides
        an administrator and a grant.  Kept by every write;
        :meth:`AccessControl.visible_qids` unions them.  Read them, do not
        change them."""
        empty = frozenset()
        return (
            self._authored.get(user, empty), self._public, self._group_visible.get(group, empty)
        )

    def qids(self) -> Set[int]:
        """Every logged qid, as a live view."""
        return self._records.keys()

    def lowered_texts(self) -> Mapping[int, str]:
        """qid -> ``record.text.lower()`` (one string per distinct text): what
        substring search scans.  A live read-only view."""
        return self._lowered_view

    def haystacks(self) -> Mapping[int, str]:
        """qid -> the lower-cased text, a space and the record's annotations
        lower-cased and space-joined: what keyword search scans, filed when a
        record is filed or annotated.  A live read-only view."""
        return self._haystacks_view

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

    def select_queries(self) -> list[LoggedQuery]:
        """Only SELECT statements (the ones mining and recommendation use)."""
        return [record for record in self.all_queries() if record.is_select]

    # -- the statement table ----------------------------------------------------

    def _intern_text(self, text: str, qid: int) -> None:
        entry = self._statements.get(text)
        if entry is None:
            entry = self._statements[text] = _Statement(lowered=text.lower())
            self._unparsed.add(text)
        entry.qids.add(qid)

    def _release_text(self, text: str, qid: int) -> None:
        entry = self._statements[text]
        entry.qids.discard(qid)
        if entry.qids:
            return
        del self._statements[text]
        self._unparsed.discard(text)
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

    def template_artefacts(
        self, template: tuple, key: tuple, build: Callable[[], TemplateArtefacts]
    ) -> TemplateArtefacts:
        """The :class:`~repro.core.records.TemplateArtefacts` filed for the
        user DBMS's token ``template`` under ``key`` (see :meth:`artefacts`).
        The template's first text builds them with ``build`` and files them
        for the later ones."""
        shared = self._templates.get((template, key))
        if shared is None:
            shared = self._templates[(template, key)] = build()
            while len(self._templates) > TEMPLATE_TABLE_SIZE:
                self._templates.popitem(last=False)
        else:
            self._templates.move_to_end((template, key))
        return shared

    def qids_matching(self, pattern: TreePattern, qids: Set[int]) -> list[int]:
        """The SELECTs among ``qids`` whose parse tree contains ``pattern``,
        in qid order.  A text is parsed (once) when it first carries such a
        SELECT and filed under each label and ``(label, value)`` of its tree;
        :func:`match_pattern` runs on the texts filed under all of the
        pattern's that carry one.  A text that does not parse never matches.
        """
        records, statements = self._records, self._statements

        def selects(text: str) -> list[int]:
            return [qid for qid in statements[text].qids if qid in qids and records[qid].is_select]

        for text in [text for text in self._unparsed if selects(text)]:
            self._unparsed.discard(text)
            entry = statements[text]
            try:
                entry.tree = to_parse_tree(text)
            except ReproError:
                continue
            for key in _posting_keys(entry.tree):
                self._tree_postings.setdefault(key, set()).add(text)
        postings = [self._tree_postings.get(key) for key in _pattern_keys(pattern)]
        if not all(postings):
            return []
        found: list[int] = []
        for text in set.intersection(*sorted(postings, key=len)):
            hits = selects(text)
            if hits and match_pattern(statements[text].tree, pattern):
                found += hits
        return sorted(found)

    # -- the one write path -----------------------------------------------------

    def _apply(self, change: _Change) -> None:
        """Write one change: its logged meta rows first — updates, deletes,
        inserts, so a removal's qid mark is logged before the rows it deletes
        — then memory from the same values (:meth:`_remember`).  A write that
        raises leaves memory as it was.  An add is one insert, so it is
        written whole or not at all; a change of several rows keeps the rows
        written before the one that raised."""
        database = self._meta_db
        for relation, updates in change.updates.items():
            table = database.table(relation)
            for row_id, values in updates:
                table.update(row_id, values)
        for relation, row_ids in change.deletes.items():
            table = database.table(relation)
            for row_id in row_ids:
                table.delete(row_id)
        # One batch per relation, and no call for a relation with no rows.
        for relation, rows in change.inserts.items():
            if rows:
                database.insert_rows(relation, rows)
        self._remember(change)

    def _remember(self, change: _Change) -> None:
        """The memory half of :meth:`_apply`, and all of a reopen's: unfile,
        assign (a filed record assigned ``visibility`` or ``annotations`` is
        refiled in the visibility postings or under its new haystack), file,
        then move the generation when the change asks.  The
        record it unfiles or files, and each record it assigns a field that
        :func:`_projection_rows` reads, are marked stale: :meth:`_project`
        refills their projected rows (a reopen files, so marks, every
        record)."""
        if change.removes is not None:
            self._unindex(change.removes)
            self._stale.add(change.removes.qid)
        for record, fields in change.assigns:
            # A record a repair unfiled above is refiled whole below.
            filed = record.qid in self._records
            moves = filed and "visibility" in fields
            if moves:
                self._unfile_visibility(record)
            for name, value in fields.items():
                setattr(record, name, value)
            if moves:
                self._file_visibility(record)
            if filed and "annotations" in fields:
                self._file_haystack(record)
            if not _PROJECTED_FIELDS.isdisjoint(fields):
                self._stale.add(record.qid)
        record = change.sets
        if record is not None:
            self._index(record)
            self._stale.add(record.qid)
            if change.artefacts_key is not None:
                entry = self._statements[record.text]
                entry.artefacts_key = change.artefacts_key
                entry.artefacts = (
                    record.statement_kind, record.features, record.canonical_text,
                    record.template_text,
                )
        if change.bumps:
            self._changed()

    def _rewrite(
        self, edits: Sequence[tuple[LoggedQuery, dict[str, object]]], bumps: bool = False
    ) -> _Change:
        """The change that assigns each edit's fields on its record and
        updates the columns of its ``Queries`` row whose spelling
        (:func:`_queries_row`) differs from the stored value."""
        change = _Change(assigns=list(edits), bumps=bumps)
        table = self._meta_db.table("Queries")
        for record, fields in edits:
            (row_id,) = self._row_ids(table, record.qid)
            row, stored = _queries_row(replace(record, **fields)), table.get(row_id)
            values = {
                name: new
                for (name, new), old in zip(row.items(), stored)
                if new != old or type(new) is tuple and _spelling(new) != _spelling(old)
            }
            if values:
                change.updates.setdefault("Queries", []).append((row_id, values))
        return change

    def _project(self) -> None:
        """Bring the unlogged projected relations up to date: delete the
        stale records' rows through each relation's ``qid`` index, then
        insert :func:`_projection_rows` of those still logged, one batch per
        relation.  The stale set is cleared only after the last batch, so a
        fill that raises is redone whole by the next meta-query."""
        if not self._stale:
            return
        stale = sorted(self._stale)
        batches: dict[str, list[dict[str, object]]] = {r: [] for r in PROJECTED_RELATIONS}
        for qid in stale:
            if qid in self._records:
                for relation, rows in _projection_rows(self._records[qid]).items():
                    batches[relation] += rows
        for relation, rows in batches.items():
            table = self._meta_db.table(relation)
            for qid in stale:
                for row_id in self._row_ids(table, qid):
                    table.delete(row_id)
            if rows:
                self._meta_db.insert_rows(relation, rows)
        self._stale.clear()

    @staticmethod
    def _row_ids(table, qid: int) -> list[int]:
        """Row ids of a relation's rows for ``qid`` through its qid index, in
        the order they were written (row ids are never reused)."""
        return sorted(table.index_for("qid").lookup(qid))

    # -- ingest -----------------------------------------------------------------

    def add(self, record: LoggedQuery, artefacts_key: tuple | None = None) -> None:
        """Insert a logged query: its one ``Queries`` row (its projected rows
        wait for :meth:`_project`).  Its ``visibility`` must be one of
        :class:`Visibility`'s values, in any case (it is stored lower-cased).

        With ``artefacts_key`` the record's artefacts were derived under that
        key, and :meth:`artefacts` hands them to the next record of its text.
        """
        if record.qid in self._records:
            raise MetaQueryError(f"duplicate query id {record.qid}")
        # An unknown visibility raises before any write; a known one is stored
        # lower-cased, as the visibility postings read it.
        record.visibility = Visibility.parse(record.visibility).value
        self._apply(
            _Change(
                sets=record, inserts={"Queries": [_queries_row(record)]}, bumps=True,
                artefacts_key=artefacts_key,
            )
        )
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "user_queries", "queries logged into the Query Storage, per user", user=record.user
            ).inc()

    # -- annotations ----------------------------------------------------------------

    def add_annotation(self, qid: int, author: str, body: str, timestamp: float = 0.0) -> None:
        record = self.get(qid)
        self._apply(
            _Change(
                assigns=[(record, {"annotations": [*record.annotations, body]})],
                inserts={"Annotations": [_row("Annotations", qid, author, timestamp, body)]},
            )
        )

    def annotations_for(self, qid: int) -> list[str]:
        return list(self.get(qid).annotations)

    # -- sessions ----------------------------------------------------------------------

    def record_sessions(self, sessions) -> None:
        """Persist mined sessions and their edges (replacing previous ones);
        a record in none of them leaves its old session."""
        members = {qid: session.session_id for session in sessions for qid in session.qids}
        change = _Change(
            assigns=[
                (record, {"session_id": members.get(qid)})
                for qid, record in self._records.items()
                if record.session_id != members.get(qid)
            ],
            deletes={
                name: [row_id for row_id, _ in self._meta_db.table(name).scan()]
                for name in ("Sessions", "SessionEdges")
            },
            inserts={
                "Sessions": [
                    _row("Sessions", s.session_id, s.user, s.start_time, s.end_time, len(s.qids))
                    for s in sessions
                ],
                "SessionEdges": [
                    _row(
                        "SessionEdges", s.session_id, edge.from_qid, edge.to_qid,
                        edge.edge_type, edge.diff_summary,
                    )
                    for s in sessions
                    for edge in s.edges
                ],
            },
        )
        self._apply(change)

    # -- maintenance hooks -----------------------------------------------------------------

    def mark_invalid(self, qid: int, reason: str) -> None:
        """Flag a query invalid, composing ``reason`` with existing ones.

        Reasons are ``"; "``-joined and deduplicated, so linter-sourced and
        user/maintenance-sourced entries append instead of overwriting each
        other, and re-flagging with a known reason never grows the text.
        ``flag_count`` still advances on *every* call — it is the
        drop-after-N-flags counter of the maintenance policy, counting
        flagging events, not distinct reasons.  ``Queries`` carries all
        three, so the policy survives restarts of a durable store.
        """
        record = self.get(qid)
        reasons = [
            part for part in (record.invalid_reason or "").split("; ") if part
        ]
        for part in (piece.strip() for piece in reason.split("; ")):
            if part and part not in reasons:
                reasons.append(part)
        fields = {
            "flagged_invalid": True,
            "invalid_reason": "; ".join(reasons) if reasons else reason,
            "flag_count": record.flag_count + 1,
        }
        self._apply(self._rewrite([(record, fields)]))

    def mark_valid(self, qid: int) -> None:
        fields = {"flagged_invalid": False, "invalid_reason": None}
        self._apply(self._rewrite([(self.get(qid), fields)]))

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

    def set_catalog_version(self, qids: Collection[int], version: int) -> None:
        """Stamp ``qids`` as checked against the user catalog at ``version``
        (no relation stores it: a reopened record reads -1, see :func:`_record`)."""
        self._apply(_Change(assigns=[(self.get(q), {"catalog_version": version}) for q in qids]))

    def set_quality(self, scores: Mapping[int, float]) -> None:
        """Store maintenance quality scores (qid -> score), on the records and
        in ``Queries.quality``, so the ranking reads them after a restart."""
        self._apply(self._rewrite([(self.get(q), {"quality": v}) for q, v in scores.items()]))

    def set_runtime(self, qid: int, runtime: RuntimeStats) -> None:
        """Replace a query's runtime statistics (a maintenance refresh), on
        the record and in ``Queries``, so the refreshed numbers survive a
        restart; the record is marked stale, so the next meta-query refills
        its ``RuntimeStats`` row."""
        self._apply(self._rewrite([(self.get(qid), {"runtime": runtime})], bumps=True))

    def set_visibility(self, qid: int, visibility: str) -> None:
        """Change who may see a query (``"private"``/``"group"``/``"public"``,
        in any case; stored lower-cased), on the record and in ``Queries``, so
        the setting survives a restart."""
        fields = {"visibility": Visibility.parse(visibility).value}
        self._apply(self._rewrite([(self.get(qid), fields)], bumps=True))

    def remove(self, qid: int) -> None:
        """Remove a query, its rows and (at the next fill) its projected rows.

        Session rows referencing the query are cleaned up too: its
        ``SessionEdges`` are deleted and the owning session's ``numQueries``
        is decremented, so meta-SQL over the session relations never sees
        edges pointing at a query that no longer exists.
        """
        record = self.get(qid)
        # The one change that can lower max(qid): its first row write, the
        # qid mark, keeps a removed qid from being handed out again.
        marks = [(self._next_qid_row_id, {"value": self._next_qid})]
        change = _Change(removes=record, bumps=True, updates={"StoreMeta": marks})
        for relation in ("Queries", "Annotations"):
            change.deletes[relation] = self._row_ids(self._meta_db.table(relation), qid)
        edges = self._meta_db.table("SessionEdges")
        source, target = edges.schema.position("fromQid"), edges.schema.position("toQid")
        change.deletes["SessionEdges"] = [
            row_id for row_id, row in edges.scan() if qid in (row[source], row[target])
        ]
        if record.session_id is not None:
            change.updates["Sessions"] = [
                (row_id, {"numQueries": max(0, (count or 0) - 1)})
                for row_id, (session_id, _, _, _, count) in self._meta_db.table("Sessions").scan()
                if session_id == record.session_id
            ]
        self._apply(change)

    def replace_text(self, qid: int, new_text: str, features, canonical: str, template: str) -> None:
        """Replace a repaired query's text and artefacts.

        Only its ``Queries`` row is rewritten, and the record is refiled, so
        the next fill replaces its projected rows: the repaired query keeps
        its identity, so its ``Annotations``, ``SessionEdges`` and session
        membership are never touched.
        """
        record = self.get(qid)
        fields = {
            "text": new_text,
            "features": features,
            "canonical_text": canonical,
            "template_text": template,
            "flagged_invalid": False,
            "invalid_reason": None,
        }
        change = self._rewrite([(record, fields)], bumps=True)
        change.removes = change.sets = record
        self._apply(change)

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
        the other feature relations, whose projection is filled first.
        """
        self._project()
        return self._meta_db.execute(sql)

    def explain_meta_sql(self, sql: str, analyze: bool = False):
        """EXPLAIN (optionally ANALYZE) a SQL meta-query over the feature relations.

        Returns the engine's :class:`~repro.storage.planner.PlanExplanation`
        so users can see which access paths (e.g. the ``qid`` index scans)
        the meta-query will use; with ``analyze=True`` the meta-query is
        executed and every plan node carries its actual row count, batch
        count, and wall time.  The feature relations are filled first, so
        the plan is costed over the rows it would read.
        """
        self._project()
        return self._meta_db.explain(sql, analyze=analyze)

    def plan_cache_stats(self):
        """Plan-cache counters of the meta-database.

        The Figure 1 meta-queries are highly templated, so the hit rate here
        is the headline number for the Query Storage's planning overhead.
        """
        return self._meta_db.plan_cache_stats()


def _spell(schema: TableSchema, other: TableSchema) -> str:
    """``Name(col, …)`` for an error message, a column's type added where
    ``other`` has a column of that name with another type."""
    types = {column.name: column.data_type for column in other.columns}
    return f"{schema.name}(" + ", ".join(
        column.name
        if types.get(column.name, column.data_type) is column.data_type
        else f"{column.name} {column.data_type.value}"
        for column in schema.columns
    ) + ")"


def _spelling(value: tuple) -> bytes:
    """A ``JSON`` value as bytes that tell apart what ``==`` does not: ``5``,
    ``5.0`` and ``True`` are equal in a tuple, but marshal spells each
    scalar with its type."""
    return marshal.dumps(value, 0)


def _feature_keys(record: LoggedQuery) -> set:
    """The Figure 1 postings a record is filed under (see ``_feature_postings``)."""
    if record.features is None:
        return set()
    return {*record.features.tables, *record.features.attributes}


def _row(relation: str, *values: object) -> dict[str, object]:
    """A row of ``relation``: ``values`` in its schema's column order, named."""
    return dict(zip(_COLUMNS[relation], values))


def _queries_row(record: LoggedQuery) -> dict[str, object]:
    """A record's ``Queries`` row: the one spelling of a record as a logged
    row.  :meth:`QueryStore.add` inserts it, an update rewrites the columns
    whose values changed, and a reopen reads it back (:func:`_record`).  The
    features and the output sample are ``JSON`` values — the sample's rows
    are the record's own row tuples — so nothing here encodes them; the WAL
    frame and the heap pages do, once."""
    features, output = record.features, record.output
    return _row(
        "Queries", record.qid, record.text, record.user, record.group, record.timestamp,
        record.statement_kind, record.visibility, not record.flagged_invalid,
        record.invalid_reason, record.flag_count, record.canonical_text,
        record.template_text, None if features is None else features.to_values(),
        record.quality, *_runtime_values(record),
        None if output is None else tuple(output.columns),
        None if output is None else tuple(output.rows),
    )


def _runtime_values(record: LoggedQuery) -> tuple:
    """A record's runtime statistics, as its ``Queries`` row holds them and
    ``RuntimeStats`` projects them."""
    runtime = record.runtime
    return (
        runtime.elapsed_seconds, runtime.result_cardinality, runtime.rows_scanned,
        runtime.succeeded,
    )


def _projection_rows(record: LoggedQuery) -> dict[str, list[dict[str, object]]]:
    """A record's rows in the relations of :data:`PROJECTED_RELATIONS`, which
    :meth:`QueryStore._project` inserts; no feature rows for a record without
    features, no ``OutputSamples`` row for one without a sample."""
    qid, features, output = record.qid, record.features, record.output
    rows = {
        "RuntimeStats": [_row("RuntimeStats", qid, *_runtime_values(record))],
        "OutputSamples": [] if output is None else [
            _row(
                "OutputSamples", qid, json.dumps(output.columns, ensure_ascii=False),
                json.dumps(output.rows, ensure_ascii=False),
            )
        ],
    }
    if features is None:
        return rows
    return {
        "DataSources": [_row("DataSources", qid, table) for table in features.tables],
        "Attributes": [_row("Attributes", qid, *pair) for pair in features.attributes],
        "Predicates": [
            _row("Predicates", qid, p.attribute, p.relation, p.op, _constant_text(p.constant))
            for p in features.predicates
        ],
        "Projections": [_row("Projections", qid, *pair) for pair in features.projections],
        "Joins": [
            _row(
                "Joins", qid, j.left_relation, j.left_attribute, j.right_relation,
                j.right_attribute,
            )
            for j in (join.normalized() for join in features.joins)
        ],
        **rows,
    }


def _record(row: tuple, annotations: list[str], decoded: dict[bytes, QueryFeatures]) -> LoggedQuery:
    """The record whose ``Queries`` row is ``row`` (the inverse of
    :func:`_queries_row`), with the bodies of its ``Annotations`` rows in the
    order they were written.  ``row`` is a stored tuple in schema order,
    which the store checks when it opens.  ``decoded`` maps a features
    value's :func:`_spelling` to its object, shared by the records that spell
    it alike.  The output sample's ``total_rows`` is the query's cardinality,
    so ``total_rows``/``complete`` mean what they meant when the profiler
    built it.  The session is the caller's; the error message of a failed
    statement has no column."""
    (
        qid, text, user, group, timestamp, kind, visibility, valid, reason, flags,
        canonical, template, features, quality, elapsed, cardinality, scanned, succeeded,
        columns, sample,
    ) = row
    shared = None
    if features is not None:
        key = _spelling(features)
        shared = decoded.get(key)
        if shared is None:
            shared = decoded[key] = QueryFeatures.from_values(features)
    try:
        visibility = Visibility.parse(visibility or "group").value
    except AccessControlError:
        # Logged unchecked by an older engine: seen by its author only.
        visibility = Visibility.PRIVATE.value
    output = None
    if columns is not None:
        total = max(cardinality or 0, len(sample))
        output = OutputSummary(list(columns), list(sample), total, complete=len(sample) >= total)
    return LoggedQuery(
        qid=qid,
        user=user or "",
        group=group or "",
        text=text or "",
        timestamp=timestamp or 0.0,
        canonical_text=canonical or "",
        template_text=template or "",
        statement_kind=kind or "unknown",
        features=shared,
        runtime=RuntimeStats(elapsed or 0.0, cardinality or 0, scanned or 0, bool(succeeded)),
        output=output,
        visibility=visibility,
        flagged_invalid=not valid,
        invalid_reason=reason,
        flag_count=flags or 0,
        annotations=annotations,
        quality=0.5 if quality is None else quality,
        # Never a live version: the user catalog a reopen runs against may
        # have another history than the one the record was checked against,
        # so maintenance re-checks each reopened record once.
        catalog_version=-1,
    )


def _constant_text(value: object) -> str | None:
    """Render a predicate constant for storage in a TEXT column."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_constant_text(item) or "NULL" for item in value) + ")"
    return str(value)
