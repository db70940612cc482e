"""Core record types: the logged query and its runtime features.

A query is "the primary data type in a CQMS" (Section 4.1).  The
:class:`LoggedQuery` record carries all three representations the paper
discusses — raw text, extracted features, and (through
:func:`repro.sql.parse_tree.to_parse_tree`) the parse tree — plus the runtime
and semantic features (statistics and output samples).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import ReproError
from repro.sql.ast_nodes import Literal, SelectStatement, Statement, statement_type
from repro.sql.canonicalize import (
    canonical_text,
    canonicalize,
    constants_keep_order,
    cut_at_parameters,
    with_constants,
)
from repro.sql.features import PredicateFeature, QueryFeatures, extract_features
from repro.sql.parser import parse


@dataclass
class RuntimeStats:
    """Runtime features of one execution of a query (Section 4.1)."""

    elapsed_seconds: float = 0.0
    result_cardinality: int = 0
    rows_scanned: int = 0
    succeeded: bool = True
    error: str | None = None


@dataclass
class OutputSummary:
    """A succinct summary of a query's output (Section 4.1).

    ``rows`` holds at most the adaptive budget decided by the profiler;
    ``complete`` records whether the stored rows are the full output (true for
    long-running small-output queries) or a sample.  Nothing changes a
    summary once built, so its row and cell sets are built on first use.
    """

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    total_rows: int = 0
    complete: bool = True

    @cached_property
    def _row_set(self) -> frozenset:
        return frozenset(map(tuple, self.rows))

    @cached_property
    def _cell_set(self) -> frozenset:
        return frozenset(cell for row in self.rows for cell in row)

    def contains(self, values: tuple) -> bool:
        """Whether the summary contains a row equal to ``values``."""
        return tuple(values) in self._row_set

    def contains_value(self, value: object) -> bool:
        """Whether any cell of any summarized row equals ``value``."""
        try:
            return value in self._cell_set
        except TypeError:  # an unhashable probe or cell: compare cell by cell
            return any(value in row for row in self.rows)


@dataclass
class LoggedQuery:
    """One query in the Query Storage.

    ``qid`` is assigned by the profiler.  ``canonical_text`` is the
    alias/case/order-normalized rendering used for duplicate detection and
    popularity counting; ``template_text`` additionally strips constants so
    that queries differing only in constants share a template.
    """

    qid: int
    user: str
    group: str
    text: str
    timestamp: float
    canonical_text: str = ""
    template_text: str = ""
    statement_kind: str = "select"
    features: QueryFeatures | None = None
    runtime: RuntimeStats = field(default_factory=RuntimeStats)
    output: OutputSummary | None = None
    session_id: int | None = None
    visibility: str = "group"
    annotations: list[str] = field(default_factory=list)
    flagged_invalid: bool = False
    invalid_reason: str | None = None
    flag_count: int = 0
    quality: float = 0.5
    catalog_version: int = 0

    @property
    def is_select(self) -> bool:
        return self.statement_kind == "select"

    @property
    def is_mined(self) -> bool:
        """A SELECT with features: what the miner reads (so the only records
        a session holds) and what the Query Storage's shape table files."""
        return self.is_select and self.features is not None

    @property
    def tables(self) -> list[str]:
        return list(self.features.tables) if self.features is not None else []

    def feature_tokens(self) -> list[str]:
        """The query's feature token bag (used by kNN / TF-IDF / rules)."""
        if self.features is None:
            return []
        return self.features.token_bag()

    def feature_sets(self) -> dict[str, frozenset]:
        """Per-class feature sets used by the weighted feature similarity."""
        return self.features.feature_sets() if self.features is not None else {}

    def describe(self, max_length: int = 80) -> str:
        """A single-line description used by the client renderers."""
        text = " ".join(self.text.split())
        if len(text) > max_length:
            text = text[: max_length - 3] + "..."
        return text


def statement_artefacts(
    text: str,
    schema_columns: Mapping[str, frozenset[str]] | None,
    with_features: bool,
    parsed: Statement | None = None,
) -> tuple[str, QueryFeatures | None, str, str]:
    """``(statement_kind, features, canonical_text, template_text)`` of a text.

    The one place the CQMS derives anything from a statement text: the
    profiler calls it when logging, maintenance when repairing, and the Query
    Storage when rebuilding its record index after recovery — so what a
    record says cannot depend on which of the three produced it.  The text is
    parsed only when ``parsed`` (the profiler passes the user DBMS's AST) is
    ``None``.  ``with_features`` is the profiler's ``features`` mode: a
    text that does not parse has no artefacts at all (nothing to count as
    popular, nothing to mine).  Without features (``text`` mode) the
    canonical and template texts are the whitespace-normalised lower-cased
    text whether or not it parses; the parse only decides the kind.
    """
    if parsed is None:
        try:
            parsed = parse(text)
        except ReproError:
            pass
    kind = "invalid" if parsed is None else statement_type(parsed)
    if not with_features:
        flattened = " ".join(text.lower().split())
        return kind, None, flattened, flattened
    if parsed is None:
        return kind, None, "", ""
    return (
        kind,
        extract_features(parsed, schema_columns),
        canonical_text(parsed),
        canonical_text(parsed, strip_constants=True),
    )


class _Slot:
    """A parameter's place in a template's features: its canonical index."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


@dataclass(frozen=True)
class TemplateArtefacts:
    """What every instance of one statement template shares, cut at its
    constants, so that an instance's artefacts are spliced, not derived.

    Built by :func:`template_artefacts` from the user DBMS's prepared
    statement (:class:`~repro.storage.plan_cache.PreparedStatement`), whose
    ``values`` are the instance's constants in canonical order.  ``canonical``
    is the canonical text cut at its constants (``None`` when the
    canonicalizer's sort order could depend on them); ``features`` holds a
    :class:`_Slot` where a predicate's constant goes (``None`` when two
    predicates share attribute, relation and operator, so whether they merge
    depends on the constants).  Either ``None`` is derived per instance from
    the bound AST instead.
    """

    kind: str
    template_text: str | None
    canonical: tuple[tuple[str, ...], tuple[int, ...]] | None
    features: QueryFeatures | None

    def artefacts(
        self, prepared, schema_columns: Mapping[str, frozenset[str]] | None
    ) -> tuple[str, QueryFeatures, str, str]:
        """``(statement_kind, features, canonical_text, template_text)`` of
        the instance bound into ``prepared`` — what
        :func:`statement_artefacts` derives from a parse of its text."""
        values = prepared.values
        if self.canonical is None:
            canonical = canonical_text(with_constants(prepared.statement))
        else:
            pieces, slots = self.canonical
            parts = [pieces[0]]
            for slot, piece in zip(slots, pieces[1:]):
                parts += [str(Literal(values[slot])), piece]
            canonical = "".join(parts)
        if self.features is None:
            features = extract_features(prepared.statement, schema_columns)
        else:
            features = _filled(self.features, values)
        template = canonical if self.template_text is None else self.template_text
        return self.kind, features, canonical, template


def template_artefacts(
    prepared, schema_columns: Mapping[str, frozenset[str]] | None
) -> TemplateArtefacts:
    """The :class:`TemplateArtefacts` of a prepared SELECT/UPDATE/DELETE.

    A SELECT's template text is the plan cache's key (``prepared.key[0]``,
    the text :func:`~repro.sql.canonicalize.canonical_text` gives with
    ``strip_constants``); an UPDATE's or DELETE's is its canonical text,
    constants included.
    """
    statement = prepared.statement
    params = prepared.params
    if isinstance(statement, SelectStatement):
        canonical_form = canonicalize(statement)
        proven = constants_keep_order(canonical_form)
        template_text = prepared.key[0]
    else:
        canonical_form, proven, template_text = statement, True, None
    values = [param.value for param in params]
    for index, param in enumerate(params):
        object.__setattr__(param, "value", _Slot(index))
    try:
        features = extract_features(statement, schema_columns)
    finally:
        for param, value in zip(params, values):
            object.__setattr__(param, "value", value)
    sites = [(p.attribute, p.relation, p.op) for p in features.predicates]
    return TemplateArtefacts(
        kind=statement_type(statement),
        template_text=template_text,
        canonical=cut_at_parameters(canonical_form, params) if proven else None,
        features=features if len(set(sites)) == len(sites) else None,
    )


def _filled(features: QueryFeatures, values: list) -> QueryFeatures:
    """Template features with each :class:`_Slot` replaced by the instance's
    constant; the other lists are the template's (nothing mutates a stored
    :class:`QueryFeatures`)."""

    def constant(value):
        if isinstance(value, _Slot):
            return values[value.index]
        if isinstance(value, tuple):
            return tuple(constant(item) for item in value)
        return value

    return replace(
        features,
        predicates=[
            PredicateFeature(p.attribute, p.relation, p.op, constant(p.constant))
            for p in features.predicates
        ],
    )


#: A statement being typed, or the features :func:`draft_features` read off it.
Draft = str | QueryFeatures | None


def draft_features(draft: Draft) -> QueryFeatures | None:
    """Features of a statement the user may still be typing.

    The one place the CQMS reads a draft: completion, correction, the
    recommender and the meta-query generator all call it, and each accepts
    what it returns in place of the text, so a request that fans out
    (``CQMS.assist``) reads its draft once.  A text that does not parse is
    relaxed step by step — a dangling trailing keyword or operator dropped,
    an empty select list read as ``SELECT *`` — until it does; as a last
    resort the relation names are read lexically off the FROM list.
    ``None`` means there is nothing to go on.
    """
    if not isinstance(draft, str):
        return draft
    candidates = [draft]
    stripped = draft.rstrip()
    lowered = stripped.lower()
    for suffix in ("where", "and", "or", ",", "on", "=", "<", ">", "in", "select"):
        if lowered.endswith(suffix):
            candidates.append(stripped[: -len(suffix)])
    from_index = lowered.find("from")
    if from_index >= 0 and lowered[:from_index].strip() == "select":
        candidates.append("SELECT * " + stripped[from_index:])
        candidates.append("SELECT * " + stripped[from_index:].rstrip(", "))
    for candidate in candidates:
        try:
            return extract_features(candidate)
        except ReproError:
            continue
    if from_index < 0:
        return None
    from_list = stripped[from_index + len("from"):]
    for terminator in ("where", "group", "order", "limit"):
        cut = from_list.lower().find(terminator)
        if cut >= 0:
            from_list = from_list[:cut]
    tables = [part.split()[0].lower() for part in from_list.split(",") if part.split()]
    if not tables:
        return None
    return QueryFeatures(tables=tables, num_tables=len(tables))
