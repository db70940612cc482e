"""Schema-aware SQL semantic linter.

Lints parsed statements against a schema — either a live
:class:`~repro.storage.catalog.Catalog` (full column types, and index
information when a table provider is attached) or a bare
``{table: [columns]}`` mapping such as the one the Query Storage keeps for
the user database (name checks only; type- and index-aware rules quietly
stand down).

The linter is what lets the CQMS *reason about* the queries it stores: the
paper's ``Queries.invalidReason`` attribute was only ever set by hand, while
``QueryStore.lint_log`` now runs every logged query through this pass and
flags hard errors automatically.

Rules (see :mod:`repro.analysis.framework` for the severity policy):

========================  ========  =====================================================
rule                      severity  fires on
========================  ========  =====================================================
``parse-error``           ERROR     stored text that does not parse
``unknown-table``         ERROR     relation not in the schema
``unknown-column``        ERROR     column not in any visible binding
``ambiguous-column``      ERROR     unqualified column in several bindings
``cartesian-join``        ERROR     FROM tables with no connecting predicate
``aggregate-misuse``      ERROR     aggregate in WHERE, nested aggregates
``ungrouped-column``      WARNING   selected column absent from GROUP BY
``type-mismatch``         WARNING   comparison forcing an implicit cast
``non-sargable``          WARNING   function-wrapped indexed column in a comparison
``constant-predicate``    WARNING   always-true/always-false conjunct
``select-star``           INFO      ``SELECT *`` in a stored query
========================  ========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParseError, TokenizeError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    DeleteStatement,
    ExistsSubquery,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    InSubquery,
    InsertStatement,
    Join,
    Literal,
    ScalarSubquery,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UpdateStatement,
    iter_expressions,
)
from repro.sql.formatter import format_expression
from repro.sql.parser import parse
from repro.storage.types import DataType, compare_values

from repro.analysis.framework import Diagnostic, Rule, Severity

PARSE_ERROR = Rule("parse-error", Severity.ERROR, "statement does not parse")
UNKNOWN_TABLE = Rule("unknown-table", Severity.ERROR, "relation not in the schema")
UNKNOWN_COLUMN = Rule("unknown-column", Severity.ERROR, "column not in any visible binding")
AMBIGUOUS_COLUMN = Rule(
    "ambiguous-column", Severity.ERROR, "unqualified column matches several bindings"
)
CARTESIAN_JOIN = Rule(
    "cartesian-join", Severity.ERROR, "FROM tables with no connecting join predicate"
)
AGGREGATE_MISUSE = Rule(
    "aggregate-misuse", Severity.ERROR, "aggregate where aggregates cannot appear"
)
UNGROUPED_COLUMN = Rule(
    "ungrouped-column", Severity.WARNING, "selected column not in GROUP BY"
)
TYPE_MISMATCH = Rule(
    "type-mismatch", Severity.WARNING, "comparison forces an implicit cast"
)
NON_SARGABLE = Rule(
    "non-sargable", Severity.WARNING, "function-wrapped indexed column defeats the index"
)
CONSTANT_PREDICATE = Rule(
    "constant-predicate", Severity.WARNING, "predicate is constant"
)
SELECT_STAR = Rule("select-star", Severity.INFO, "SELECT * in a stored query")

RULES: tuple[Rule, ...] = (
    PARSE_ERROR,
    UNKNOWN_TABLE,
    UNKNOWN_COLUMN,
    AMBIGUOUS_COLUMN,
    CARTESIAN_JOIN,
    AGGREGATE_MISUSE,
    UNGROUPED_COLUMN,
    TYPE_MISMATCH,
    NON_SARGABLE,
    CONSTANT_PREDICATE,
    SELECT_STAR,
)

_COMPARISON_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}


class SchemaView:
    """Uniform schema access for the linter.

    Wraps either a full :class:`~repro.storage.catalog.Catalog` (plus an
    optional table provider for index lookups) or a plain
    ``{table: iterable-of-columns}`` mapping.  Lookups are case-insensitive,
    matching the engine's own name resolution.
    """

    def __init__(self, catalog=None, schema_columns=None, table_provider=None):
        if catalog is None and schema_columns is None:
            raise ValueError("SchemaView needs a catalog or a schema_columns mapping")
        self._catalog = catalog
        self._provider = table_provider
        if schema_columns is not None:
            self._columns = {
                str(table).lower(): {str(column).lower() for column in columns}
                for table, columns in schema_columns.items()
            }
        else:
            self._columns = {
                name.lower(): {
                    column.lower() for column in catalog.schema(name).column_names
                }
                for name in catalog.table_names()
            }

    @classmethod
    def from_database(cls, database) -> "SchemaView":
        """Full-fidelity view over a live engine (types and indexes)."""
        return cls(catalog=database.catalog, table_provider=database)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._columns

    def columns(self, table: str) -> set[str]:
        return self._columns.get(table.lower(), set())

    def has_column(self, table: str, column: str) -> bool:
        return column.lower() in self._columns.get(table.lower(), set())

    def column_type(self, table: str, column: str) -> DataType | None:
        """The column's declared type, or None when only names are known."""
        if self._catalog is None or not self.has_column(table, column):
            return None
        return self._catalog.schema(table).column(column).data_type

    def indexed_columns(self, table: str) -> set[str]:
        """Lower-cased columns of ``table`` with any index, or empty when the
        view has no table provider to ask."""
        if self._provider is None or not self.has_table(table):
            return set()
        live = self._provider.table(table)
        return {
            definition.column.lower() for definition in live.index_definitions()
        }


@dataclass
class _Binding:
    """One FROM-clause binding while linting a SELECT."""

    name: str  # alias or table name, original case
    table: str | None  # underlying base table, None for subqueries
    columns: set[str] | None  # lower-cased; None = unknown (skip column checks)

    def has_column(self, column: str) -> bool | None:
        if self.columns is None:
            return None
        return column.lower() in self.columns


@dataclass
class _Scope:
    """A lexical scope: the bindings of one SELECT, chained to its outer query."""

    bindings: list[_Binding] = field(default_factory=list)
    parent: "_Scope | None" = None

    def resolve(self, ref: ColumnRef) -> tuple[str, list[_Binding]]:
        """Classify a reference: ("ok"|"unknown"|"ambiguous"|"opaque", matches).

        "opaque" means the reference lands in a binding whose columns are
        unknown (an unresolvable subquery output) — the linter stays quiet.
        """
        scope: _Scope | None = self
        while scope is not None:
            if ref.table is not None:
                for binding in scope.bindings:
                    if binding.name.lower() == ref.table.lower():
                        known = binding.has_column(ref.name)
                        if known is None:
                            return "opaque", [binding]
                        return ("ok" if known else "unknown"), [binding]
            else:
                matches, opaque = [], False
                for binding in scope.bindings:
                    known = binding.has_column(ref.name)
                    if known:
                        matches.append(binding)
                    elif known is None:
                        opaque = True
                if len(matches) > 1:
                    return "ambiguous", matches
                if matches:
                    return "ok", matches
                if opaque:
                    return "opaque", []
            scope = scope.parent
        return "unknown", []


class SqlLinter:
    """Schema-aware linter over parsed statements (or raw SQL text)."""

    def __init__(self, schema: SchemaView):
        self._schema = schema

    # -- entry points ---------------------------------------------------------

    def lint_sql(self, sql: str, location: str = "query") -> list[Diagnostic]:
        """Parse and lint one statement; parse failures become diagnostics."""
        try:
            statement = parse(sql)
        except (ParseError, TokenizeError) as exc:
            return [PARSE_ERROR.at(location, str(exc))]
        return self.lint(statement, location)

    def lint(self, statement, location: str = "query") -> list[Diagnostic]:
        """Lint a parsed statement.  DDL is accepted and passes vacuously."""
        diagnostics: list[Diagnostic] = []
        if isinstance(statement, SelectStatement):
            self._lint_select(statement, location, None, diagnostics)
        elif isinstance(statement, InsertStatement):
            self._lint_insert(statement, location, diagnostics)
        elif isinstance(statement, (UpdateStatement, DeleteStatement)):
            self._lint_dml(statement, location, diagnostics)
        return diagnostics

    # -- SELECT ---------------------------------------------------------------

    def _lint_select(
        self,
        statement: SelectStatement,
        location: str,
        outer: _Scope | None,
        diagnostics: list[Diagnostic],
    ) -> None:
        scope = _Scope(parent=outer)
        join_edges: list[tuple[str, str]] = []
        for item in statement.from_items:
            self._bind_from_item(item, location, scope, join_edges, diagnostics)

        expressions: list[tuple[Expression, str]] = []
        for select_item in statement.select_items:
            expressions.append((select_item.expression, "select list"))
        if statement.where is not None:
            expressions.append((statement.where, "WHERE"))
        for expr in statement.group_by:
            expressions.append((expr, "GROUP BY"))
        if statement.having is not None:
            expressions.append((statement.having, "HAVING"))
        for order_item in statement.order_by:
            expressions.append((order_item.expression, "ORDER BY"))

        select_aliases = {
            (item.alias or "").lower() for item in statement.select_items if item.alias
        }
        for expr, clause in expressions:
            allow_aliases = select_aliases if clause == "ORDER BY" else frozenset()
            self._check_expression(expr, clause, location, scope, allow_aliases, diagnostics)

        self._check_cartesian(statement, scope, join_edges, location, diagnostics)
        self._check_aggregates(statement, location, diagnostics)
        self._check_select_star(statement, location, diagnostics)
        if statement.where is not None:
            self._check_where_conjuncts(statement.where, location, scope, diagnostics)

    def _bind_from_item(
        self,
        item: FromItem,
        location: str,
        scope: _Scope,
        join_edges: list[tuple[str, str]],
        diagnostics: list[Diagnostic],
    ) -> None:
        if isinstance(item, TableRef):
            if not self._schema.has_table(item.name):
                diagnostics.append(
                    UNKNOWN_TABLE.at(location, f"unknown relation {item.name!r}")
                )
                scope.bindings.append(_Binding(item.binding, None, None))
                return
            scope.bindings.append(
                _Binding(item.binding, item.name, self._schema.columns(item.name))
            )
        elif isinstance(item, SubqueryRef):
            self._lint_select(item.subquery, location, scope, diagnostics)
            scope.bindings.append(
                _Binding(item.binding, None, _subquery_columns(item.subquery, self._schema))
            )
        elif isinstance(item, Join):
            self._bind_from_item(item.left, location, scope, join_edges, diagnostics)
            self._bind_from_item(item.right, location, scope, join_edges, diagnostics)
            if item.condition is not None:
                self._check_expression(
                    item.condition, "JOIN condition", location, scope, frozenset(), diagnostics
                )
                join_edges.extend(_edges_of(item.condition, scope))

    def _check_expression(
        self,
        expr: Expression,
        clause: str,
        location: str,
        scope: _Scope,
        allowed_aliases: frozenset[str] | set[str],
        diagnostics: list[Diagnostic],
    ) -> None:
        """Resolve every column reference and apply the expression-local rules."""
        for node in iter_expressions(expr):
            if isinstance(node, ColumnRef):
                if node.table is None and node.name.lower() in allowed_aliases:
                    continue
                status, matches = scope.resolve(node)
                if status == "unknown":
                    diagnostics.append(
                        UNKNOWN_COLUMN.at(
                            location,
                            f"unknown column {format_expression(node)} in {clause}",
                        )
                    )
                elif status == "ambiguous":
                    names = ", ".join(sorted(b.name for b in matches))
                    diagnostics.append(
                        AMBIGUOUS_COLUMN.at(
                            location,
                            f"column {node.name!r} in {clause} is ambiguous "
                            f"(bound by {names})",
                        )
                    )
            elif isinstance(node, BinaryOp) and node.op in _COMPARISON_OPS:
                self._check_comparison(node, clause, location, scope, diagnostics)
            elif isinstance(node, Between):
                self._check_between(node, clause, location, scope, diagnostics)
            elif isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
                self._lint_select(node.subquery, location, scope, diagnostics)

    # -- typed-comparison rules ----------------------------------------------

    def _resolved_column_type(self, expr: Expression, scope: _Scope) -> DataType | None:
        if not isinstance(expr, ColumnRef):
            return None
        status, matches = scope.resolve(expr)
        if status != "ok" or not matches or matches[0].table is None:
            return None
        return self._schema.column_type(matches[0].table, expr.name)

    def _check_comparison(
        self,
        node: BinaryOp,
        clause: str,
        location: str,
        scope: _Scope,
        diagnostics: list[Diagnostic],
    ) -> None:
        for left, right in ((node.left, node.right), (node.right, node.left)):
            column_type = self._resolved_column_type(left, scope)
            if column_type is None:
                continue
            other = _value_kind(right, scope, self)
            if other is not None and _kinds_clash(column_type, other):
                diagnostics.append(
                    TYPE_MISMATCH.at(
                        location,
                        f"{format_expression(node)} in {clause} compares "
                        f"{column_type.value} to {other} (implicit cast)",
                    )
                )
                break
        self._check_sargability(node.left, node.right, node, clause, location, scope, diagnostics)
        self._check_sargability(node.right, node.left, node, clause, location, scope, diagnostics)

    def _check_between(
        self,
        node: Between,
        clause: str,
        location: str,
        scope: _Scope,
        diagnostics: list[Diagnostic],
    ) -> None:
        column_type = self._resolved_column_type(node.expr, scope)
        if column_type is None:
            return
        for bound in (node.low, node.high):
            kind = _value_kind(bound, scope, self)
            if kind is not None and _kinds_clash(column_type, kind):
                diagnostics.append(
                    TYPE_MISMATCH.at(
                        location,
                        f"{format_expression(node)} in {clause} compares "
                        f"{column_type.value} to {kind} (implicit cast)",
                    )
                )
                return

    def _check_sargability(
        self,
        side: Expression,
        other: Expression,
        node: BinaryOp,
        clause: str,
        location: str,
        scope: _Scope,
        diagnostics: list[Diagnostic],
    ) -> None:
        """``WHERE f(indexed_col) = constant`` cannot use the index."""
        if not isinstance(side, FunctionCall) or side.is_aggregate:
            return
        inner = [arg for arg in side.args if isinstance(arg, ColumnRef)]
        if len(inner) != 1 or any(isinstance(n, ColumnRef) for n in iter_expressions(other)):
            return
        ref = inner[0]
        status, matches = scope.resolve(ref)
        if status != "ok" or not matches or matches[0].table is None:
            return
        if ref.name.lower() in self._schema.indexed_columns(matches[0].table):
            diagnostics.append(
                NON_SARGABLE.at(
                    location,
                    f"{format_expression(node)} in {clause} wraps indexed column "
                    f"{matches[0].table}.{ref.name} in {side.name.upper()}(); "
                    f"the index cannot be used",
                )
            )

    # -- statement-level rules ------------------------------------------------

    def _check_cartesian(
        self,
        statement: SelectStatement,
        scope: _Scope,
        join_edges: list[tuple[str, str]],
        location: str,
        diagnostics: list[Diagnostic],
    ) -> None:
        local = [b.name.lower() for b in scope.bindings]
        if len(local) < 2:
            return
        edges = list(join_edges)
        if statement.where is not None:
            for conjunct in _conjuncts(statement.where):
                edges.extend(_edges_of(conjunct, scope))
        components = {name: name for name in local}

        def find(name: str) -> str:
            while components[name] != name:
                components[name] = components[components[name]]
                name = components[name]
            return name

        for a, b in edges:
            if a in components and b in components:
                components[find(a)] = find(b)
        roots = {find(name) for name in local}
        if len(roots) > 1:
            diagnostics.append(
                CARTESIAN_JOIN.at(
                    location,
                    f"{len(local)} FROM relations form {len(roots)} disconnected "
                    f"groups; the query is a cartesian product",
                )
            )

    def _check_aggregates(
        self, statement: SelectStatement, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        if statement.where is not None:
            for node in iter_expressions(statement.where):
                if isinstance(node, FunctionCall) and node.is_aggregate:
                    diagnostics.append(
                        AGGREGATE_MISUSE.at(
                            location,
                            f"aggregate {format_expression(node)} in WHERE "
                            f"(use HAVING over grouped rows)",
                        )
                    )
                    break
        for item in statement.select_items:
            for node in iter_expressions(item.expression):
                if isinstance(node, FunctionCall) and node.is_aggregate:
                    if any(
                        isinstance(arg_node, FunctionCall) and arg_node.is_aggregate
                        for arg in node.args
                        for arg_node in iter_expressions(arg)
                    ):
                        diagnostics.append(
                            AGGREGATE_MISUSE.at(
                                location,
                                f"nested aggregate {format_expression(node)}",
                            )
                        )
        if statement.group_by:
            grouped = {
                format_expression(expr).lower() for expr in statement.group_by
            }
            grouped_names = {
                expr.name.lower()
                for expr in statement.group_by
                if isinstance(expr, ColumnRef)
            }
            for item in statement.select_items:
                expr = item.expression
                if not isinstance(expr, ColumnRef):
                    continue
                if format_expression(expr).lower() in grouped:
                    continue
                if expr.name.lower() in grouped_names:
                    continue
                diagnostics.append(
                    UNGROUPED_COLUMN.at(
                        location,
                        f"column {format_expression(expr)} is selected but not in "
                        f"GROUP BY (an arbitrary row represents each group)",
                    )
                )

    def _check_select_star(
        self, statement: SelectStatement, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        for item in statement.select_items:
            if isinstance(item.expression, Star):
                diagnostics.append(
                    SELECT_STAR.at(
                        location,
                        "SELECT * in a stored query breaks when the schema evolves; "
                        "name the columns",
                    )
                )
                return

    def _check_where_conjuncts(
        self,
        where: Expression,
        location: str,
        scope: _Scope,
        diagnostics: list[Diagnostic],
    ) -> None:
        for conjunct in _conjuncts(where):
            verdict = _constant_verdict(conjunct)
            if verdict is None:
                continue
            diagnostics.append(
                CONSTANT_PREDICATE.at(
                    location,
                    f"predicate {format_expression(conjunct)} is {verdict}",
                )
            )

    # -- DML ------------------------------------------------------------------

    def _lint_insert(
        self, statement: InsertStatement, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        if not self._schema.has_table(statement.table):
            diagnostics.append(
                UNKNOWN_TABLE.at(location, f"unknown relation {statement.table!r}")
            )
            return
        for column in statement.columns:
            if not self._schema.has_column(statement.table, column):
                diagnostics.append(
                    UNKNOWN_COLUMN.at(
                        location,
                        f"unknown column {statement.table}.{column} in INSERT",
                    )
                )
        if statement.select is not None:
            self._lint_select(statement.select, location, None, diagnostics)

    def _lint_dml(
        self,
        statement: UpdateStatement | DeleteStatement,
        location: str,
        diagnostics: list[Diagnostic],
    ) -> None:
        if not self._schema.has_table(statement.table):
            diagnostics.append(
                UNKNOWN_TABLE.at(location, f"unknown relation {statement.table!r}")
            )
            return
        scope = _Scope(
            bindings=[
                _Binding(
                    statement.table,
                    statement.table,
                    self._schema.columns(statement.table),
                )
            ]
        )
        if isinstance(statement, UpdateStatement):
            for column, expr in statement.assignments:
                if not self._schema.has_column(statement.table, column):
                    diagnostics.append(
                        UNKNOWN_COLUMN.at(
                            location,
                            f"unknown column {statement.table}.{column} in SET",
                        )
                    )
                self._check_expression(expr, "SET", location, scope, frozenset(), diagnostics)
        if statement.where is not None:
            self._check_expression(
                statement.where, "WHERE", location, scope, frozenset(), diagnostics
            )
            self._check_where_conjuncts(statement.where, location, scope, diagnostics)


# -- helpers -------------------------------------------------------------------


def _conjuncts(expr: Expression) -> list[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _edges_of(conjunct: Expression, scope: _Scope) -> list[tuple[str, str]]:
    """Binding pairs a conjunct connects (any predicate over two bindings)."""
    touched: set[str] = set()
    for node in iter_expressions(conjunct):
        if not isinstance(node, ColumnRef):
            continue
        if node.table is not None:
            touched.add(node.table.lower())
            continue
        status, matches = scope.resolve(node)
        if status == "ok" and matches:
            touched.add(matches[0].name.lower())
    ordered = sorted(touched)
    return [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]


def _subquery_columns(subquery: SelectStatement, schema: SchemaView) -> set[str] | None:
    """Output column names of a derived table, or None when not derivable."""
    columns: set[str] = set()
    for item in subquery.select_items:
        if item.alias:
            columns.add(item.alias.lower())
        elif isinstance(item.expression, ColumnRef):
            columns.add(item.expression.name.lower())
        elif isinstance(item.expression, Star):
            for table in subquery.from_items:
                if isinstance(table, TableRef) and schema.has_table(table.name):
                    columns |= schema.columns(table.name)
                else:
                    return None
        else:
            return None
    return columns


def _value_kind(expr: Expression, scope: _Scope, linter: SqlLinter) -> str | None:
    """Coarse type of the other comparison side: "numeric", "text", "boolean"."""
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return None
        if isinstance(value, bool):
            return "boolean"
        if isinstance(value, (int, float)):
            return "numeric"
        if isinstance(value, str):
            return "text"
        return None
    column_type = linter._resolved_column_type(expr, scope)
    if column_type is None:
        return None
    if column_type.is_numeric:
        return "numeric"
    if column_type is DataType.BOOLEAN:
        return "boolean"
    return "text"


def _kinds_clash(column_type: DataType, other: str) -> bool:
    if column_type.is_numeric:
        return other != "numeric"
    if column_type is DataType.BOOLEAN:
        return other != "boolean"
    return other != "text"  # TEXT column


def _constant_verdict(conjunct: Expression) -> str | None:
    """"always true"/"always false"/"constant" for column-free predicates."""
    for node in iter_expressions(conjunct):
        if isinstance(node, (ColumnRef, InSubquery, ExistsSubquery, ScalarSubquery)):
            return None
        if isinstance(node, (FunctionCall, CaseExpression, InList, UnaryOp)):
            return None
    if isinstance(conjunct, BinaryOp) and conjunct.op in _COMPARISON_OPS:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Literal) and isinstance(right, Literal):
            if left.value is None or right.value is None:
                return None
            try:
                ordering = compare_values(left.value, right.value)
            except TypeError:
                return "constant"
            outcome = {
                "=": ordering == 0,
                "!=": ordering != 0,
                "<>": ordering != 0,
                "<": ordering < 0,
                "<=": ordering <= 0,
                ">": ordering > 0,
                ">=": ordering >= 0,
            }[conjunct.op]
            return "always true" if outcome else "always false"
        return None
    if isinstance(conjunct, Literal) and isinstance(conjunct.value, bool):
        return "always true" if conjunct.value else "always false"
    return None
