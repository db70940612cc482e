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

Name errors are the engine's own: the statement goes through the engine's
:class:`~repro.storage.binder.Binder` in reporting mode, so ``unknown-table``,
``duplicate-table``, ``unknown-column`` and ``ambiguous-column`` fire exactly
where planning the statement would fail (a table outside the schema leaves its
columns unchecked), with the engine's messages, and the other rules read the
bound column references.

Rules (see :mod:`repro.analysis.framework` for the severity policy):

========================  ========  =====================================================
rule                      severity  fires on
========================  ========  =====================================================
``parse-error``           ERROR     stored text that does not parse
``unknown-table``         ERROR     relation not in the schema
``duplicate-table``       ERROR     one FROM clause binds a name twice
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

from repro.errors import ParseError, TokenizeError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    DeleteStatement,
    ExistsSubquery,
    Expression,
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
    walk,
)
from repro.sql.formatter import format_expression
from repro.sql.parser import parse
from repro.storage.binder import Binder, BoundColumn
from repro.storage.types import DataType, compare_values

from repro.analysis.framework import Diagnostic, Rule, Severity

PARSE_ERROR = Rule("parse-error", Severity.ERROR, "statement does not parse")
UNKNOWN_TABLE = Rule("unknown-table", Severity.ERROR, "relation not in the schema")
DUPLICATE_TABLE = Rule(
    "duplicate-table", Severity.ERROR, "one FROM clause binds a name twice"
)
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

#: The rule each kind of binder error is reported under.
_BINDER_RULES = {
    "table": UNKNOWN_TABLE,
    "duplicate": DUPLICATE_TABLE,
    "target": UNKNOWN_COLUMN,
    "missing": UNKNOWN_COLUMN,
    "alias": UNKNOWN_COLUMN,
    "unknown": UNKNOWN_COLUMN,
    "ambiguous": AMBIGUOUS_COLUMN,
}

RULES: tuple[Rule, ...] = (
    PARSE_ERROR,
    UNKNOWN_TABLE,
    DUPLICATE_TABLE,
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
        self._provider = table_provider
        if schema_columns is not None:
            self._columns = {
                str(table).lower(): [(str(column), None) for column in columns]
                for table, columns in schema_columns.items()
            }
        else:
            self._columns = {
                name.lower(): [
                    (column.name, column.data_type)
                    for column in catalog.schema(name).columns
                ]
                for name in catalog.table_names()
            }

    @classmethod
    def from_database(cls, database) -> "SchemaView":
        """Full-fidelity view over a live engine (types and indexes)."""
        return cls(catalog=database.catalog, table_provider=database)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._columns

    def columns_of(self, table: str) -> list[tuple[str, DataType | None]] | None:
        """The binder's view of a table: its columns with their declared
        types (None when only names are known), or None when the table is
        not in the schema."""
        return self._columns.get(table.lower())

    def indexed_columns(self, table: str) -> set[str]:
        """Lower-cased columns of ``table`` with any index, or empty when the
        view has no table provider to ask."""
        if self._provider is None or not self.has_table(table):
            return set()
        live = self._provider.table(table)
        return {
            definition.column.lower() for definition in live.index_definitions()
        }


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
        binder = Binder(
            self._schema.columns_of,
            report=lambda kind, message: diagnostics.append(
                _BINDER_RULES[kind].at(location, message)
            ),
        )
        if isinstance(statement, SelectStatement):
            self._lint_select(binder.select(statement), location, diagnostics)
        elif isinstance(statement, InsertStatement):
            self._lint_insert(statement, binder, location, diagnostics)
        elif isinstance(statement, (UpdateStatement, DeleteStatement)):
            self._lint_dml(binder.dml(statement), location, diagnostics)
        return diagnostics

    # -- SELECT ---------------------------------------------------------------

    def _lint_select(
        self, statement: SelectStatement, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        """Lint a bound SELECT (and, through it, its subqueries)."""
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
        for node in walk(statement, subqueries=False):
            if isinstance(node, SubqueryRef):
                self._lint_select(node.subquery, location, diagnostics)
            elif isinstance(node, Join) and node.condition is not None:
                expressions.append((node.condition, "JOIN condition"))
        for expr, clause in expressions:
            self._check_expression(expr, clause, location, diagnostics)

        self._check_cartesian(statement, location, diagnostics)
        self._check_aggregates(statement, location, diagnostics)
        self._check_select_star(statement, location, diagnostics)
        if statement.where is not None:
            self._check_where_conjuncts(statement.where, location, diagnostics)

    def _check_expression(
        self, expr: Expression, clause: str, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        """Apply the expression-local rules (names were checked by binding)."""
        for node in iter_expressions(expr):
            if isinstance(node, BinaryOp) and node.op in _COMPARISON_OPS:
                self._check_comparison(node, clause, location, diagnostics)
            elif isinstance(node, Between):
                self._check_between(node, clause, location, diagnostics)
            elif isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
                self._lint_select(node.subquery, location, diagnostics)

    # -- typed-comparison rules ----------------------------------------------

    def _check_comparison(
        self, node: BinaryOp, clause: str, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        for left, right in ((node.left, node.right), (node.right, node.left)):
            column_type = _column_type(left)
            if column_type is None:
                continue
            other = _value_kind(right)
            if other is not None and _kinds_clash(column_type, other):
                diagnostics.append(
                    TYPE_MISMATCH.at(
                        location,
                        f"{format_expression(node)} in {clause} compares "
                        f"{column_type.value} to {other} (implicit cast)",
                    )
                )
                break
        self._check_sargability(node.left, node.right, node, clause, location, diagnostics)
        self._check_sargability(node.right, node.left, node, clause, location, diagnostics)

    def _check_between(
        self, node: Between, clause: str, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        column_type = _column_type(node.expr)
        if column_type is None:
            return
        for bound in (node.low, node.high):
            kind = _value_kind(bound)
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
        diagnostics: list[Diagnostic],
    ) -> None:
        """``WHERE f(indexed_col) = constant`` cannot use the index."""
        if not isinstance(side, FunctionCall) or side.is_aggregate:
            return
        inner = [arg for arg in side.args if isinstance(arg, ColumnRef)]
        if len(inner) != 1 or any(isinstance(n, ColumnRef) for n in iter_expressions(other)):
            return
        ref = inner[0]
        if not isinstance(ref, BoundColumn) or ref.relation is None:
            return
        if ref.name.lower() in self._schema.indexed_columns(ref.relation):
            diagnostics.append(
                NON_SARGABLE.at(
                    location,
                    f"{format_expression(node)} in {clause} wraps indexed column "
                    f"{ref.relation}.{ref.name} in {side.name.upper()}(); "
                    f"the index cannot be used",
                )
            )

    # -- statement-level rules ------------------------------------------------

    def _check_cartesian(
        self, statement: SelectStatement, location: str, diagnostics: list[Diagnostic]
    ) -> None:
        nodes = [
            node
            for node in walk(statement, subqueries=False)
            if isinstance(node, (TableRef, SubqueryRef, Join))
        ]
        local = [node.binding.lower() for node in nodes if not isinstance(node, Join)]
        if len(local) < 2:
            return
        conditions = [
            node.condition
            for node in nodes
            if isinstance(node, Join) and node.condition is not None
        ]
        if statement.where is not None:
            conditions.extend(_conjuncts(statement.where))
        components = {name: name for name in local}

        def find(name: str) -> str:
            while components[name] != name:
                components[name] = components[components[name]]
                name = components[name]
            return name

        for condition in conditions:
            for a, b in _edges_of(condition):
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
                _column_key(expr)
                for expr in statement.group_by
                if isinstance(expr, BoundColumn)
            }
            for item in statement.select_items:
                expr = item.expression
                if not isinstance(expr, BoundColumn) or _column_key(expr) in grouped:
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
        self, where: Expression, location: str, diagnostics: list[Diagnostic]
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
        self, statement: InsertStatement, binder: Binder, location: str, diagnostics: list
    ) -> None:
        binder.values(statement)
        if statement.select is not None:
            self._lint_select(binder.select(statement.select), location, diagnostics)

    def _lint_dml(
        self, statement: UpdateStatement | DeleteStatement, location: str, diagnostics: list
    ) -> None:
        """Lint a bound UPDATE / DELETE."""
        if isinstance(statement, UpdateStatement):
            for _, expr in statement.assignments:
                self._check_expression(expr, "SET", location, diagnostics)
        if statement.where is not None:
            self._check_expression(statement.where, "WHERE", location, diagnostics)
            self._check_where_conjuncts(statement.where, location, diagnostics)


# -- helpers -------------------------------------------------------------------


def _conjuncts(expr: Expression) -> list[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _edges_of(conjunct: Expression) -> list[tuple[str, str]]:
    """Binding pairs a bound conjunct connects (any predicate over two
    bindings of its own query)."""
    touched = {
        node.binding.lower()
        for node in iter_expressions(conjunct)
        if isinstance(node, BoundColumn) and not node.depth and node.binding
    }
    ordered = sorted(touched)
    return [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]


def _column_key(ref: BoundColumn) -> tuple:
    """What a bound column reference reads, however it was spelled."""
    return ref.depth, ref.binding, ref.index


def _column_type(expr: Expression) -> DataType | None:
    """The declared type of a bound column reference (None otherwise)."""
    return expr.data_type if isinstance(expr, BoundColumn) else None


def _value_kind(expr: Expression) -> str | None:
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
    column_type = _column_type(expr)
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
