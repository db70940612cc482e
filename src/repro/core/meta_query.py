"""The Meta-Query Executor (paper Sections 2.2, 3, and 4.2).

A meta-query is "a query that searches for queries".  The executor supports
the paper's four classes of meta-queries:

* **keyword / substring** search over query text and annotations — the
  baseline capability of existing systems,
* **query-by-feature** — conditions over the shredded feature relations, both
  programmatically (:class:`FeatureCondition`) and as raw SQL over the Query
  Storage (Figure 1), including automatic generation of the SQL meta-query
  from a partially written user query,
* **query-by-parse-tree** — structural conditions via
  :class:`~repro.sql.parse_tree.TreePattern`,
* **query-by-data** — conditions on query *output* given positive and
  negative example values/tuples,
* **kNN** — the k most similar logged queries to a probe query.

Every search is filtered through :class:`~repro.core.access_control.AccessControl`
so users only ever see queries they are allowed to see.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter

from repro.core.access_control import AccessControl, Principal
from repro.core.config import CQMSConfig
from repro.core.query_store import QueryStore
from repro.core.ranking import RankingContext, RankingFunction, RankedQuery
from repro.core.records import Draft, LoggedQuery, draft_features
from repro.errors import MetaQueryError
from repro.mining.similarity import weighted_feature_similarity
from repro.sql.features import QueryFeatures
from repro.sql.parse_tree import TreePattern


@dataclass
class FeatureCondition:
    """A programmatic query-by-feature specification.

    All provided conditions must hold (conjunctive semantics).  ``tables_all``
    requires every listed relation to be a data source of the query;
    ``attributes`` requires each ``(attribute, relation)`` pair to be used;
    ``predicates_on`` requires a selection predicate on each listed
    ``(attribute, relation)`` (with an optional operator).
    """

    tables_all: list[str] = field(default_factory=list)
    tables_any: list[str] = field(default_factory=list)
    attributes: list[tuple[str, str]] = field(default_factory=list)
    predicates_on: list[tuple[str, str, str | None]] = field(default_factory=list)
    author: str | None = None
    group: str | None = None
    statement_kind: str | None = None
    max_runtime_seconds: float | None = None
    min_cardinality: int | None = None
    max_cardinality: int | None = None
    text_contains: str | None = None
    only_valid: bool = False

    def matches(self, record: LoggedQuery) -> bool:
        """Whether a logged query satisfies this condition."""
        if self.only_valid and record.flagged_invalid:
            return False
        if self.author is not None and record.user != self.author:
            return False
        if self.group is not None and record.group != self.group:
            return False
        if self.statement_kind is not None and record.statement_kind != self.statement_kind:
            return False
        if self.text_contains is not None and self.text_contains.lower() not in record.text.lower():
            return False
        if self.max_runtime_seconds is not None:
            if record.runtime.elapsed_seconds > self.max_runtime_seconds:
                return False
        if self.min_cardinality is not None:
            if record.runtime.result_cardinality < self.min_cardinality:
                return False
        if self.max_cardinality is not None:
            if record.runtime.result_cardinality > self.max_cardinality:
                return False
        features = record.features
        if self.tables_all or self.tables_any or self.attributes or self.predicates_on:
            if features is None:
                return False
            tables = features.table_set()
            if any(table.lower() not in tables for table in self.tables_all):
                return False
            if self.tables_any and not any(
                table.lower() in tables for table in self.tables_any
            ):
                return False
            attributes = features.attribute_set()
            for attribute, relation in self.attributes:
                if (attribute.lower(), relation.lower()) not in attributes:
                    return False
            predicate_signatures = features.predicate_signatures()
            for attribute, relation, op in self.predicates_on:
                found = any(
                    signature[0] == attribute.lower()
                    and signature[1] == relation.lower()
                    and (op is None or signature[2] == op)
                    for signature in predicate_signatures
                )
                if not found:
                    return False
        return True


@dataclass
class DataCondition:
    """A query-by-data specification (paper Section 2.2).

    ``include_values`` must all appear somewhere in the query's stored output
    summary; ``exclude_values`` must not appear.  ``include_rows`` /
    ``exclude_rows`` are full-tuple variants of the same conditions.
    """

    include_values: list[object] = field(default_factory=list)
    exclude_values: list[object] = field(default_factory=list)
    include_rows: list[tuple] = field(default_factory=list)
    exclude_rows: list[tuple] = field(default_factory=list)

    def matches(self, record: LoggedQuery) -> bool:
        output = record.output
        if output is None or not output.rows:
            return False
        return (
            all(map(output.contains_value, self.include_values))
            and not any(map(output.contains_value, self.exclude_values))
            and all(map(output.contains, self.include_rows))
            and not any(map(output.contains, self.exclude_rows))
        )


class MetaQueryExecutor:
    """Answers meta-queries over the Query Storage with access control."""

    def __init__(
        self,
        store: QueryStore,
        access_control: AccessControl,
        config: CQMSConfig | None = None,
        ranking: RankingFunction | None = None,
        clock=None,
    ):
        self._store = store
        self._access = access_control
        self._config = config or CQMSConfig()
        self._ranking = ranking or RankingFunction()
        self._clock = clock if clock is not None else (lambda: 0.0)

    # -- keyword / substring search ---------------------------------------------

    def keyword_search(
        self, principal: Principal | str, keywords: list[str] | str, limit: int | None = None
    ) -> list[LoggedQuery]:
        """Queries whose text or annotations contain every keyword."""
        if isinstance(keywords, str):
            keywords = keywords.split()
        lowered = [keyword.lower() for keyword in keywords if keyword]
        if not lowered:
            raise MetaQueryError("keyword search requires at least one keyword")
        haystacks = self._store.haystacks()
        matches = self._visible(principal)
        for keyword in lowered:
            matches = [record for record in matches if keyword in haystacks[record.qid]]
        return matches[:limit] if limit is not None else matches

    def substring_search(
        self, principal: Principal | str, needle: str, limit: int | None = None
    ) -> list[LoggedQuery]:
        """Queries whose raw text contains ``needle`` (case-insensitive)."""
        if not needle:
            raise MetaQueryError("substring search requires a non-empty needle")
        lowered = needle.lower()
        texts = self._store.lowered_texts()
        matches = [record for record in self._visible(principal) if lowered in texts[record.qid]]
        return matches[:limit] if limit is not None else matches

    # -- query-by-feature ----------------------------------------------------------

    def by_feature(
        self,
        principal: Principal | str,
        condition: FeatureCondition,
        limit: int | None = None,
    ) -> list[LoggedQuery]:
        """Programmatic query-by-feature over the Query Storage, in qid order.

        The condition's ``tables_all`` and ``attributes`` are read off the
        Figure 1 postings (:meth:`QueryStore.qids_with_features`) first, so
        :meth:`FeatureCondition.matches` runs only on the visible records
        that carry all of them; a condition with neither scans the visible
        log.
        """
        keys = [
            *(table.lower() for table in condition.tables_all),
            *((attr.lower(), relation.lower()) for attr, relation in condition.attributes),
        ]
        if keys:
            visible, get = self._visible_qids(principal), self._store.get
            candidates = [
                get(qid) for qid in self._store.qids_with_features(keys) if qid in visible
            ]
        else:
            candidates = self._visible(principal)
        matches = [record for record in candidates if condition.matches(record)]
        return matches[:limit] if limit is not None else matches

    def by_feature_sql(self, principal: Principal | str, sql: str) -> list[LoggedQuery]:
        """Run a raw SQL meta-query (Figure 1 style) and resolve its qids.

        The SQL runs over the feature relations; its result must include a
        ``qid`` column.  Access control is applied to the resolved records.
        """
        result = self._store.execute_meta_sql(sql)
        if "qid" not in [column.lower() for column in result.columns]:
            raise MetaQueryError("a SQL meta-query must return a qid column")
        qids = []
        seen = set()
        for value in result.column("qid"):
            if value is None or value in seen:
                continue
            seen.add(value)
            qids.append(int(value))
        visible = self._visible_qids(principal)
        return [self._store.get(qid) for qid in qids if qid in visible]

    def explain_meta_sql(self, sql: str, analyze: bool = False):
        """EXPLAIN (optionally ANALYZE) a SQL meta-query.

        Surfaces the engine's plan tree (access paths, join order, cost
        estimates) for meta-queries over the feature relations — e.g. a
        ``Queries ⋈ Attributes`` meta-query shows ``IndexScan`` probes of the
        ``qid`` indexes instead of full scans.  ``analyze=True`` executes the
        meta-query and annotates each node with actual rows/batches/time.
        """
        return self._store.explain_meta_sql(sql, analyze=analyze)

    def generate_feature_sql(self, partial_sql: Draft) -> str:
        """Generate the Figure 1 SQL meta-query from a partially written query.

        The paper proposes that "the CQMS could automatically generate these
        statements from partially written queries": the tables mentioned in
        the partial query's FROM clause become ``DataSources`` conditions and
        the referenced attributes become ``Attributes`` conditions.
        """
        tables, attributes = _figure1_conditions(partial_sql)
        from_parts = ["Queries Q"]
        where_parts: list[str] = []
        for index, table in enumerate(tables, start=1):
            alias = f"D{index}"
            from_parts.append(f"DataSources {alias}")
            where_parts.append(f"Q.qid = {alias}.qid")
            where_parts.append(f"{alias}.relName = '{table}'")
        for index, (attribute, relation) in enumerate(attributes, start=1):
            alias = f"A{index}"
            from_parts.append(f"Attributes {alias}")
            where_parts.append(f"Q.qid = {alias}.qid")
            where_parts.append(f"{alias}.attrName = '{attribute}'")
            where_parts.append(f"{alias}.relName = '{relation}'")
        sql = "SELECT DISTINCT Q.qid, Q.qText FROM " + ", ".join(from_parts)
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        return sql

    def find_queries_like_partial(
        self, principal: Principal | str, partial_sql: Draft
    ) -> list[LoggedQuery]:
        """End-to-end Figure 1 flow: the visible queries, in qid order, that
        ``by_feature_sql(generate_feature_sql(partial_sql))`` finds — read off
        the Query Storage's postings instead of planning and running the join."""
        tables, attributes = _figure1_conditions(partial_sql)
        visible, get = self._visible_qids(principal), self._store.get
        return [
            get(qid) for qid in self._store.qids_with_features([*tables, *attributes])
            if qid in visible
        ]

    # -- query-by-parse-tree -----------------------------------------------------------

    def by_parse_tree(
        self,
        principal: Principal | str,
        pattern: TreePattern,
        limit: int | None = None,
    ) -> list[LoggedQuery]:
        """Visible SELECTs whose parse tree contains the structural pattern.

        The Query Storage matches the pattern against each distinct *text*
        (trees are built once per text and pre-filtered through its
        tree-label postings, see ``QueryStore.qids_matching``); the visible
        records carrying a matching text come back in qid order.  Logged text
        that does not parse never matches.
        """
        qids = self._store.qids_matching(pattern, self._visible_qids(principal))
        return list(map(self._store.get, qids[:limit] if limit is not None else qids))

    # -- query-by-data -------------------------------------------------------------------

    def by_data(
        self,
        principal: Principal | str,
        condition: DataCondition,
        limit: int | None = None,
    ) -> list[LoggedQuery]:
        """Queries whose stored output summary satisfies the data condition."""
        matches = [
            record
            for record in self._visible(principal)
            if record.is_select and condition.matches(record)
        ]
        return matches[:limit] if limit is not None else matches

    # -- kNN --------------------------------------------------------------------------------

    def nearest(
        self,
        principal: Principal | str,
        probe,
        exclude_qids: set[int] | None = None,
    ) -> Iterator[tuple[LoggedQuery, float]]:
        """The visible logged queries similar to ``probe``, most similar first.

        Yields ``(record, similarity)`` for every SELECT with features the
        principal may see, outside ``exclude_qids``, whose
        :func:`weighted_feature_similarity` to the probe (under the feature
        weights configured now) is above zero — in (−similarity, qid) order,
        the order a brute-force scan of the visible log would sort them in.
        Each shape of the Query Storage (:meth:`QueryStore.shapes`) is scored
        once; the shapes are then walked best first, the qids of equally
        scored shapes merged in qid order, so a caller that stops after k
        items pays for the shapes plus the walked prefix, not for the log.
        Consume it before the next write to the store.
        """
        probe_features = _probe_features(probe, self._store)
        if probe_features is None:
            return
        probe_sets = probe_features.feature_sets()
        weights = self._config.feature_weights
        scored = []
        for shape in self._store.shapes():
            similarity = weighted_feature_similarity(probe_sets, shape.sets, weights)
            if similarity > 0.0:
                scored.append((similarity, shape.qids))
        scored.sort(key=itemgetter(0), reverse=True)
        visible, get = self._visible_qids(principal), self._store.get
        exclude = exclude_qids or ()
        for similarity, group in groupby(scored, key=itemgetter(0)):
            runs = [qids for _, qids in group]
            for qid in runs[0] if len(runs) == 1 else heapq.merge(*runs):
                if qid in visible and qid not in exclude:
                    yield get(qid), similarity

    def knn_candidates(
        self,
        principal: Principal | str,
        probe,
        k: int | None = None,
        exclude_qids: set[int] | None = None,
    ) -> list[tuple[LoggedQuery, float]]:
        """The k most similar visible queries with their similarity scores.

        This is the raw kNN primitive (the first k of :meth:`nearest`);
        :meth:`knn` and the recommender apply their own ranking functions on
        top of it.
        """
        k = k or self._config.knn_default_k
        return list(islice(self.nearest(principal, probe, exclude_qids), k))

    def knn(
        self,
        principal: Principal | str,
        probe,
        k: int | None = None,
        exclude_qids: set[int] | None = None,
        ranked: bool = False,
    ) -> list[LoggedQuery] | list[RankedQuery]:
        """The k logged queries most similar to ``probe``.

        ``probe`` may be SQL text, a :class:`LoggedQuery`, or a feature
        object.  With ``ranked=True`` the results are re-ranked by the
        composite ranking function and returned as :class:`RankedQuery`.
        """
        k = k or self._config.knn_default_k
        candidates = self.knn_candidates(principal, probe, k=k, exclude_qids=exclude_qids)
        if not ranked:
            return [record for record, _ in candidates]
        context = RankingContext.from_store(self._store, now=float(self._clock()))
        return self._ranking.rank(candidates, context, limit=k)

    # -- internals -----------------------------------------------------------------------------

    def _visible(self, principal: Principal | str) -> tuple[LoggedQuery, ...]:
        return self._access.visible_log(principal, self._store)

    def _visible_qids(self, principal: Principal | str) -> Set[int]:
        return self._access.visible_qids(principal, self._store)


def _figure1_conditions(partial_sql: Draft) -> tuple[list[str], list[tuple[str, str]]]:
    """The sorted tables and known ``(attribute, relation)`` pairs of a partial
    query: the ``DataSources`` / ``Attributes`` conditions of Figure 1."""
    features = draft_features(partial_sql)
    if features is None or not features.tables:
        raise MetaQueryError(
            "cannot generate a meta-query: the partial query references no tables"
        )
    known = [pair for pair in features.attributes if pair[1] != "?"]
    return sorted(features.tables), sorted(known)


def _probe_features(probe, store: QueryStore):
    if isinstance(probe, LoggedQuery):
        return probe.features
    if isinstance(probe, int):
        return store.get(probe).features
    if isinstance(probe, (str, QueryFeatures)):
        return draft_features(probe)
    raise MetaQueryError(f"unsupported kNN probe type {type(probe).__name__}")
