"""Query feature extraction — the heart of the paper's *query-by-feature* model.

The Query Profiler shreds every logged query into the feature relations shown
in Figure 1 of the paper::

    Queries(qid, qText)
    DataSources(qid, relName)
    Attributes(qid, attrName, relName)
    Predicates(qid, attrName, relName, op, const)

This module computes those features (plus projections, joins, grouping,
ordering, aggregates, and structural statistics) from a parsed statement.
Alias resolution uses the query's own FROM clause (and, for a correlated
subquery, its enclosing queries'), optionally refined with the database schema
so that unqualified column references can be attributed to the right
relation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field
from itertools import chain

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    InSubquery,
    Join,
    Literal,
    ScalarSubquery,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    UnaryOp,
    iter_expressions,
    from_bindings,
    statement_type,
    walk,
)
from repro.sql.parser import parse

#: Marker used when an unqualified column cannot be attributed to a relation.
UNKNOWN_RELATION = "?"


@dataclass(frozen=True)
class PredicateFeature:
    """A selection predicate ``attr op const`` extracted from WHERE/HAVING."""

    attribute: str
    relation: str
    op: str
    constant: object

    def as_tuple(self) -> tuple[str, str, str, object]:
        return (self.attribute, self.relation, self.op, self.constant)


@dataclass(frozen=True)
class JoinFeature:
    """An equi-join condition between two attributes of two relations."""

    left_relation: str
    left_attribute: str
    right_relation: str
    right_attribute: str

    def normalized(self) -> "JoinFeature":
        """Return the join with its two sides in deterministic order."""
        left = (self.left_relation, self.left_attribute)
        right = (self.right_relation, self.right_attribute)
        if right < left:
            left, right = right, left
        return JoinFeature(
            left_relation=left[0],
            left_attribute=left[1],
            right_relation=right[0],
            right_attribute=right[1],
        )


#: How many values one item of each list field of :class:`QueryFeatures`
#: (tables, attributes, projections, predicates, joins, group-by, order-by,
#: aggregates) spells in :meth:`QueryFeatures.to_values`.
_ITEM_WIDTHS = (1, 2, 2, 4, 4, 2, 2, 1)


@dataclass
class QueryFeatures:
    """The complete feature set of one query.

    Attributes map directly onto the Query Storage feature relations; see
    :mod:`repro.core.query_store`.
    """

    statement_kind: str = "select"
    tables: list[str] = field(default_factory=list)
    attributes: list[tuple[str, str]] = field(default_factory=list)
    projections: list[tuple[str, str]] = field(default_factory=list)
    predicates: list[PredicateFeature] = field(default_factory=list)
    joins: list[JoinFeature] = field(default_factory=list)
    group_by: list[tuple[str, str]] = field(default_factory=list)
    order_by: list[tuple[str, str]] = field(default_factory=list)
    aggregates: list[str] = field(default_factory=list)
    select_star: bool = False
    distinct: bool = False
    limit: int | None = None
    num_tables: int = 0
    num_predicates: int = 0
    num_joins: int = 0
    num_subqueries: int = 0
    nesting_depth: int = 0

    def table_set(self) -> frozenset[str]:
        """The set of referenced relations (lower-cased)."""
        return frozenset(self.tables)

    def attribute_set(self) -> frozenset[tuple[str, str]]:
        """The set of referenced ``(attribute, relation)`` pairs."""
        return frozenset(self.attributes)

    def predicate_signatures(self, with_constants: bool = False) -> frozenset[tuple]:
        """Predicate identities, optionally including the constant values."""
        if with_constants:
            return frozenset(p.as_tuple() for p in self.predicates)
        return frozenset((p.attribute, p.relation, p.op) for p in self.predicates)

    def join_signatures(self) -> frozenset[tuple[str, str, str, str]]:
        """Normalized join identities."""
        return frozenset(
            (j.left_relation, j.left_attribute, j.right_relation, j.right_attribute)
            for j in (join.normalized() for join in self.joins)
        )

    def feature_sets(self) -> dict[str, frozenset]:
        """Per-class feature sets used by the weighted feature similarity."""
        return {
            "tables": self.table_set(),
            "joins": self.join_signatures(),
            "predicates": self.predicate_signatures(),
            "projections": frozenset(self.projections),
            "group_by": frozenset(self.group_by),
            "aggregates": frozenset(self.aggregates),
        }

    def token_bag(self) -> list[str]:
        """A bag of feature tokens used by TF-IDF / bag-of-features similarity."""
        tokens = [f"table:{t}" for t in self.tables]
        tokens += [f"attr:{rel}.{attr}" for attr, rel in self.attributes]
        tokens += [f"proj:{rel}.{attr}" for attr, rel in self.projections]
        tokens += [f"pred:{p.relation}.{p.attribute}{p.op}" for p in self.predicates]
        tokens += [
            "join:"
            f"{j.normalized().left_relation}.{j.normalized().left_attribute}"
            f"={j.normalized().right_relation}.{j.normalized().right_attribute}"
            for j in self.joins
        ]
        tokens += [f"agg:{name}" for name in self.aggregates]
        tokens += [f"group:{rel}.{attr}" for attr, rel in self.group_by]
        return tokens

    def to_values(self) -> tuple:
        """The features as one flat tuple, a ``JSON`` value: the statement
        kind and the other scalar fields in declaration order, the length of
        each list field, then each list field's items in declaration order,
        a pair, predicate or join spelled as its fields in a row.  Only an IN
        list's constant nests (as a tuple), so the WAL and heap-page decoders
        freeze the value with one ``tuple`` call.  :meth:`from_values` reads
        it back equal; the Query Storage logs it with the record."""
        predicates = [p.as_tuple() for p in self.predicates]
        joins = [
            (j.left_relation, j.left_attribute, j.right_relation, j.right_attribute)
            for j in self.joins
        ]
        lists = (
            self.tables, self.attributes, self.projections, predicates, joins,
            self.group_by, self.order_by, self.aggregates,
        )
        values = [
            self.statement_kind, self.select_star, self.distinct, self.limit, self.num_tables,
            self.num_predicates, self.num_joins, self.num_subqueries, self.nesting_depth,
            *map(len, lists),
        ]
        for items, width in zip(lists, _ITEM_WIDTHS):
            values += items if width == 1 else chain.from_iterable(items)
        return tuple(values)

    @classmethod
    def from_values(cls, values: Sequence) -> "QueryFeatures":
        """The features whose :meth:`to_values` is ``values``, an IN list's
        constant as a tuple or a list (a constant is a literal's value or an
        IN list's tuple of them, so an array read back is a tuple)."""
        (kind, *scalars), lengths = values[:9], values[9 : 9 + len(_ITEM_WIDTHS)]
        lists, start = [], 9 + len(_ITEM_WIDTHS)
        for length, width in zip(lengths, _ITEM_WIDTHS):
            items, start = values[start : start + length * width], start + length * width
            lists.append(list(items) if width == 1 else list(zip(*[iter(items)] * width)))
        tables, attributes, projections, predicates, joins, group_by, order_by, aggregates = lists
        return cls(
            kind,
            tables,
            attributes,
            projections,
            [
                PredicateFeature(a, r, op, tuple(c) if isinstance(c, (list, tuple)) else c)
                for a, r, op, c in predicates
            ],
            [JoinFeature(*join) for join in joins],
            group_by,
            order_by,
            aggregates,
            *scalars,
        )


def extract_features(
    query, schema_columns: Mapping[str, Set[str]] | None = None
) -> QueryFeatures:
    """Extract :class:`QueryFeatures` from SQL text or a parsed statement.

    Parameters
    ----------
    query:
        SQL text or a parsed :class:`Statement`.
    schema_columns:
        Optional mapping of lower-cased table name to its set of lower-cased
        column names (``Database.schema_columns()``), read as given.  When
        provided it is used to resolve unqualified column references (e.g.
        ``temp`` in a two-table query) to their relation.
    """
    statement: Statement = parse(query) if isinstance(query, str) else query
    features = QueryFeatures(statement_kind=statement_type(statement))
    if not isinstance(statement, SelectStatement):
        # DML/DDL statements only contribute their target table.
        target = getattr(statement, "table", None)
        if target:
            features.tables = [target.lower()]
            features.num_tables = 1
        return features
    _extract_select(statement, features, schema_columns or {}, depth=0, enclosing={})
    _finalize(features)
    return features


# ---------------------------------------------------------------------------
# Extraction internals
# ---------------------------------------------------------------------------


def _extract_select(
    statement: SelectStatement,
    features: QueryFeatures,
    schema_columns: Mapping[str, Set[str]],
    depth: int,
    enclosing: dict[str, str],
) -> None:
    features.nesting_depth = max(features.nesting_depth, depth)
    local = from_bindings(statement.from_items)
    scope = {**enclosing, **local}
    resolver = _ColumnResolver(scope, schema_columns, local.values())

    for table in local.values():
        if table not in features.tables:
            features.tables.append(table)

    features.distinct = features.distinct or statement.distinct
    if depth == 0:
        features.limit = statement.limit

    for item in statement.select_items:
        expr = item.expression
        if isinstance(expr, Star):
            features.select_star = True
            continue
        for node in iter_expressions(expr):
            if isinstance(node, ColumnRef):
                resolved = resolver.resolve(node)
                _add_unique(features.projections, resolved)
                _add_unique(features.attributes, resolved)
            elif isinstance(node, FunctionCall) and node.is_aggregate:
                features.aggregates.append(node.name)

    if statement.where is not None:
        _extract_condition(statement.where, features, resolver)
    if statement.having is not None:
        _extract_condition(statement.having, features, resolver)

    for expr in statement.group_by:
        for column in iter_expressions(expr):
            if isinstance(column, ColumnRef):
                resolved = resolver.resolve(column)
                _add_unique(features.group_by, resolved)
                _add_unique(features.attributes, resolved)
    for item in statement.order_by:
        for column in iter_expressions(item.expression):
            if isinstance(column, ColumnRef):
                resolved = resolver.resolve(column)
                _add_unique(features.order_by, resolved)
                _add_unique(features.attributes, resolved)

    # Explicit JOIN ... ON conditions.
    for item in statement.from_items:
        _extract_join_item(item, features, resolver, schema_columns, depth, enclosing)

    # Nested subqueries anywhere in expressions: they see this query's scope.
    for node in walk(statement, subqueries=False):
        if isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
            features.num_subqueries += 1
            _extract_select(node.subquery, features, schema_columns, depth + 1, scope)


def _extract_join_item(
    item: FromItem,
    features: QueryFeatures,
    resolver: "_ColumnResolver",
    schema_columns: Mapping[str, Set[str]],
    depth: int,
    enclosing: dict[str, str],
) -> None:
    if isinstance(item, Join):
        if item.condition is not None:
            _extract_condition(item.condition, features, resolver)
        _extract_join_item(item.left, features, resolver, schema_columns, depth, enclosing)
        _extract_join_item(item.right, features, resolver, schema_columns, depth, enclosing)
    elif isinstance(item, SubqueryRef):
        # A derived table sees the queries enclosing its statement, not its siblings.
        features.num_subqueries += 1
        _extract_select(item.subquery, features, schema_columns, depth + 1, enclosing)


def _extract_condition(
    expr: Expression, features: QueryFeatures, resolver: "_ColumnResolver"
) -> None:
    """Walk a boolean condition, collecting predicates and joins."""
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
        _extract_condition(expr.left, features, resolver)
        _extract_condition(expr.right, features, resolver)
        return
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        _extract_condition(expr.operand, features, resolver)
        return
    if isinstance(expr, BinaryOp):
        left_col = expr.left if isinstance(expr.left, ColumnRef) else None
        right_col = expr.right if isinstance(expr.right, ColumnRef) else None
        left_lit = expr.left if isinstance(expr.left, Literal) else None
        right_lit = expr.right if isinstance(expr.right, Literal) else None
        if left_col is not None and right_col is not None and expr.op == "=":
            left_attr, left_rel = resolver.resolve(left_col)[0], resolver.resolve(left_col)[1]
            right_attr, right_rel = (
                resolver.resolve(right_col)[0],
                resolver.resolve(right_col)[1],
            )
            join = JoinFeature(
                left_relation=left_rel,
                left_attribute=left_attr,
                right_relation=right_rel,
                right_attribute=right_attr,
            ).normalized()
            if join not in features.joins:
                features.joins.append(join)
            _add_unique(features.attributes, (left_attr, left_rel))
            _add_unique(features.attributes, (right_attr, right_rel))
            return
        if left_col is not None and right_lit is not None:
            _add_predicate(features, resolver, left_col, expr.op, right_lit.value)
            return
        if right_col is not None and left_lit is not None:
            mirrored = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}
            _add_predicate(
                features, resolver, right_col, mirrored.get(expr.op, expr.op), left_lit.value
            )
            return
        if expr.op == "LIKE" and left_col is not None and right_lit is not None:
            _add_predicate(features, resolver, left_col, "LIKE", right_lit.value)
            return
        # Fall through: record attribute usage for anything else.
        _add_columns(expr, features, resolver)
        return
    if isinstance(expr, Between):
        if isinstance(expr.expr, ColumnRef):
            low = expr.low.value if isinstance(expr.low, Literal) else None
            high = expr.high.value if isinstance(expr.high, Literal) else None
            _add_predicate(features, resolver, expr.expr, ">=", low)
            _add_predicate(features, resolver, expr.expr, "<=", high)
        return
    if isinstance(expr, InList):
        if isinstance(expr.expr, ColumnRef):
            values = tuple(
                value.value for value in expr.values if isinstance(value, Literal)
            )
            op = "NOT IN" if expr.negated else "IN"
            _add_predicate(features, resolver, expr.expr, op, values)
        return
    if isinstance(expr, (InSubquery, ExistsSubquery, ScalarSubquery)):
        # Subquery extraction happens at the statement level.
        if isinstance(expr, InSubquery) and isinstance(expr.expr, ColumnRef):
            _add_unique(features.attributes, resolver.resolve(expr.expr))
        return
    if isinstance(expr, UnaryOp) and expr.op in ("IS NULL", "IS NOT NULL"):
        if isinstance(expr.operand, ColumnRef):
            _add_predicate(features, resolver, expr.operand, expr.op, None)
        return
    _add_columns(expr, features, resolver)


def _add_columns(expr: Expression, features: QueryFeatures, resolver: "_ColumnResolver") -> None:
    """Record every column ``expr`` reads outside its subqueries as an attribute."""
    for node in iter_expressions(expr):
        if isinstance(node, ColumnRef):
            _add_unique(features.attributes, resolver.resolve(node))


def _add_predicate(
    features: QueryFeatures,
    resolver: "_ColumnResolver",
    column: ColumnRef,
    op: str,
    constant: object,
) -> None:
    attribute, relation = resolver.resolve(column)
    predicate = PredicateFeature(
        attribute=attribute, relation=relation, op=op, constant=constant
    )
    if predicate not in features.predicates:
        features.predicates.append(predicate)
    _add_unique(features.attributes, (attribute, relation))


def _finalize(features: QueryFeatures) -> None:
    features.num_tables = len(features.tables)
    features.num_predicates = len(features.predicates)
    features.num_joins = len(features.joins)


def _add_unique(collection: list, item) -> None:
    if item not in collection:
        collection.append(item)


class _ColumnResolver:
    """Resolve a :class:`ColumnRef` to an ``(attribute, relation)`` pair.

    A qualified name reads ``scope`` (the level's :func:`from_bindings` over
    its enclosing queries'); an unqualified one is attributed among ``tables``, the
    query level's own relations.
    """

    def __init__(self, scope: dict[str, str], schema_columns: Mapping[str, Set[str]], tables):
        self._scope = scope
        self._schema = schema_columns
        self._tables = list(tables)

    def resolve(self, column: ColumnRef) -> tuple[str, str]:
        name = column.name.lower()
        if column.table:
            binding = column.table.lower()
            return name, self._scope.get(binding, binding)
        # Unqualified: if the schema tells us exactly one FROM table has this
        # column, attribute it there; if exactly one table is in scope, use it.
        candidates = [table for table in self._tables if name in self._schema.get(table, ())]
        if len(candidates) == 1:
            return name, candidates[0]
        if len(set(self._tables)) == 1:
            return name, self._tables[0]
        return name, UNKNOWN_RELATION
