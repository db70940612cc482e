"""The binder: every column reference of a statement resolved once, at plan time.

Between parse and plan, :class:`Binder` walks a statement against the catalog
and the enclosing queries' bindings and returns a copy in which every
:class:`~repro.sql.ast_nodes.ColumnRef` is a :class:`BoundColumn` — how many
queries out it reads, which FROM binding, and which of that binding's columns.
It is the only code in the engine that matches a name against a relation: the
planner, the compiled getters, the evaluator, the plan verifier and the SQL
linter read its answer.  Because it runs when a statement is planned, a
misnamed column fails whether or not a row would ever reach it, and a cached
plan pays nothing.

The rule, matching case-insensitively:

* a qualified name whose binding is local must name one of its columns
  (``column 'x' not found in 't'``); a binding that is not local is looked up
  in the enclosing query, and with none left it is ``unknown table alias 'x'``;
* an unqualified name matching a column of one local binding is that column,
  of two or more ``ambiguous column reference 'a'``; matching none it is
  looked up in the enclosing query, and with none left it is
  ``unknown column 'x'``;
* a bare ORDER BY name is a select-list alias first, then a column by the two
  rules above, then an output column (``SELECT COUNT(*) ... ORDER BY count``).

Who sees which bindings, as in sqlite: the select list, WHERE, GROUP BY,
HAVING and ORDER BY see every FROM binding, in FROM order; a join's ON sees
its two operands' — every binding written before it, commas included, and
its right-hand table — so a table to its right is an ``unknown table
alias``, but an inner join's ON sees them all when the FROM clause has no
RIGHT or FULL join; a derived table sees the queries enclosing its
statement, an expression subquery the query it appears in.  UPDATE and
DELETE see their table; INSERT ... VALUES sees nothing.  The columns an
UPDATE sets and an INSERT lists must be the target table's
(``table 't' has no column 'x'``, a :class:`~repro.errors.SchemaError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExecutionError, SchemaError
from repro.sql.ast_nodes import (
    ColumnRef,
    DeleteStatement,
    Expression,
    FromItem,
    FunctionCall,
    InsertStatement,
    Join,
    Literal,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UpdateStatement,
    mapped,
    rebuild,
    replaced,
)
from repro.storage.types import DataType

#: ``(binding name, ordered column names)`` pairs: a relation's layout.
Bindings = list[tuple[str, list[str]]]

#: ``table name -> [(column, declared type)]``, or None for a table the
#: schema does not know (the linter's view; the engine raises instead).
ColumnsOf = Callable[[str], "list[tuple[str, DataType | None]] | None"]

#: ``(kind, message)`` sink of a binder that reports instead of raising.
Report = Callable[[str, str], None]

_MESSAGES = {
    "missing": "column {name!r} not found in {table!r}",
    "alias": "unknown table alias {table!r}",
    "ambiguous": "ambiguous column reference {name!r}",
    "unknown": "unknown column {name!r}",
}


@dataclass(frozen=True)
class BoundColumn(ColumnRef):
    """A column reference with the binder's answer.

    The value is column ``index`` (``column``) of ``binding`` in the row of
    the query ``depth`` levels out (0: the query the reference appears in).
    ``relation`` is the binding's base table (None for a derived table) and
    ``data_type`` the column's declared type (None when not declared).  An
    ORDER BY item that reads the output row instead has ``output`` set to the
    output column's position and no binding.
    """

    depth: int = 0
    binding: str | None = None
    index: int = 0
    column: str | None = None
    relation: str | None = None
    data_type: DataType | None = None
    output: int | None = None


def table_columns(provider) -> ColumnsOf:
    """:data:`ColumnsOf` over a table provider; an unknown table raises its
    :class:`~repro.errors.CatalogError`."""
    return lambda name: [
        (column.name, column.data_type) for column in provider.table(name).schema.columns
    ]


class _Relation:
    """One FROM binding while binding: ``columns`` is None when unknown (a
    linted table outside the schema), and every name in it stays unreported."""

    def __init__(self, name, columns, relation=None, types=None):
        self.name, self.columns, self.relation, self.types = name, columns, relation, types
        self.lookup: dict[str, int] | None = None if columns is None else {}
        for index, column in enumerate(columns or ()):
            self.lookup.setdefault(column.lower(), index)


class _Level:
    """The bindings one query level sees, chained to the enclosing level,
    with lookups memoized per ``(qualifier, name)``."""

    __slots__ = ("relations", "parent", "memo")

    def __init__(self, relations: list[_Relation], parent: "_Level | None"):
        self.relations = relations
        self.parent = parent
        self.memo: dict[tuple[str | None, str], object] = {}

    def match(self, qualifier: str | None, name: str):
        """``(relation, index)``, an error kind, ``_OPAQUE``, or None (not
        at this level: ask the enclosing one)."""
        if qualifier is not None:
            for relation in self.relations:
                if relation.name.lower() == qualifier:
                    if relation.lookup is None:
                        return _OPAQUE
                    index = relation.lookup.get(name)
                    return "missing" if index is None else (relation, index)
            return None
        found = None
        opaque = False
        for relation in self.relations:
            if relation.lookup is None:
                opaque = True
            elif (index := relation.lookup.get(name)) is not None:
                if found is not None:
                    return "ambiguous"
                found = (relation, index)
        return found or (_OPAQUE if opaque else None)


_OPAQUE = object()
_UNSEEN = object()


class Binder:
    """Binds statements against ``columns_of``.

    Without ``report`` a name error raises :class:`~repro.errors.ExecutionError`
    with the message of the rule it broke.  With one — the linter — every
    error is reported as ``report(kind, message)`` (kinds ``missing``,
    ``alias``, ``ambiguous``, ``unknown``, ``table``, ``duplicate`` and
    ``target``) and the reference stays an unbound :class:`ColumnRef`.  Binding is idempotent: a
    :class:`BoundColumn` is kept as it is, and a node none of whose parts
    changed is returned itself.
    """

    def __init__(self, columns_of: ColumnsOf, report: Report | None = None):
        self._columns_of = columns_of
        self._report = report

    # -- entry points -------------------------------------------------------------

    def select(self, statement: SelectStatement) -> SelectStatement:
        return self._select(statement, None)[0]

    def dml(self, statement: UpdateStatement | DeleteStatement):
        """UPDATE / DELETE with WHERE and SET bound against the target table
        (and the SET targets checked against it)."""
        target = self._table(TableRef(statement.table))
        level = _Level([target], None)
        where = self._expr(statement.where, level)
        if isinstance(statement, UpdateStatement):
            self._targets(target, [column for column, _ in statement.assignments])
            assignments = mapped(statement.assignments, lambda expr: self._expr(expr, level))
            return replaced(statement, where=where, assignments=assignments)
        return replaced(statement, where=where)

    def values(self, statement: InsertStatement) -> tuple[tuple[Expression, ...], ...]:
        """The rows of ``INSERT ... VALUES``, bound against no binding, once
        the column list is checked against the target table."""
        self._targets(self._table(TableRef(statement.table)), statement.columns)
        level = _Level([], None)
        return mapped(statement.rows, lambda expr: self._expr(expr, level))

    # -- SELECT -------------------------------------------------------------------

    def _select(
        self, statement: SelectStatement, parent: _Level | None
    ) -> tuple[SelectStatement, list[_Relation]]:
        relations: list[_Relation] = []
        joins: list[tuple[Join, int]] = []
        derived: dict[int, SubqueryRef] = {}
        for item in statement.from_items:
            self._flatten(item, parent, relations, joins, derived)
        seen: set[str] = set()
        for relation in relations:
            if relation.name.lower() in seen:
                self._fail(
                    "duplicate", f"table name {relation.name!r} specified more than once"
                )
            seen.add(relation.name.lower())
        level = _Level(relations, parent)
        strict = any(join.join_type in ("RIGHT", "FULL") for join, _ in joins)
        on_levels = {
            id(join): _Level(relations[:visible], parent)
            for join, visible in joins
            if strict or join.join_type != "INNER"
        }

        def from_item(item: FromItem) -> FromItem:
            if isinstance(item, SubqueryRef):
                return derived[id(item)]
            if not isinstance(item, Join):
                return item
            condition_level = on_levels.get(id(item), level)
            return replaced(
                item,
                left=from_item(item.left),
                right=from_item(item.right),
                condition=self._expr(item.condition, condition_level),
            )

        def bind(expr):
            return self._expr(expr, level)

        bound = replaced(
            statement,
            from_items=mapped(statement.from_items, from_item),
            select_items=mapped(
                statement.select_items,
                lambda item: replaced(item, expression=bind(item.expression)),
            ),
            where=bind(statement.where),
            group_by=mapped(statement.group_by, bind),
            having=bind(statement.having),
            order_by=mapped(
                statement.order_by,
                lambda item: replaced(
                    item,
                    expression=self._order_key(item.expression, statement, relations, level),
                ),
            ),
        )
        return bound, relations

    def _flatten(self, item, parent, relations, joins, derived) -> None:
        """Collect ``item``'s bindings into ``relations`` in FROM order, and
        each join with how many of them its ON sees: its operands'."""
        if isinstance(item, TableRef):
            relations.append(self._table(item))
        elif isinstance(item, SubqueryRef):
            subquery, columns = self._select(item.subquery, parent)
            derived[id(item)] = replaced(item, subquery=subquery)
            relations.append(_Relation(item.alias, self._output_columns(subquery, columns)))
        elif isinstance(item, Join):
            self._flatten(item.left, parent, relations, joins, derived)
            self._flatten(item.right, parent, relations, joins, derived)
            joins.append((item, len(relations)))
        else:
            raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _table(self, item: TableRef) -> _Relation:
        columns = self._columns_of(item.name)
        if columns is None:
            self._fail("table", f"unknown table {item.name!r}")
            return _Relation(item.binding, None, item.name)
        return _Relation(
            item.binding,
            [name for name, _ in columns],
            item.name,
            [data_type for _, data_type in columns],
        )

    def _targets(self, table: _Relation, columns) -> None:
        """Check the columns an UPDATE sets or an INSERT lists."""
        for column in columns:
            if table.lookup is not None and column.lower() not in table.lookup:
                self._fail("target", f"table {table.name!r} has no column {column!r}")

    def _output_columns(
        self, statement: SelectStatement, relations: list[_Relation]
    ) -> list[str] | None:
        """The statement's output column names; None when a ``*`` expands
        over a binding whose columns are unknown."""
        if any(relation.columns is None for relation in relations) and any(
            isinstance(item.expression, Star) for item in statement.select_items
        ):
            return None
        try:
            return compute_output_columns(
                statement, [(relation.name, relation.columns or []) for relation in relations]
            )
        except ExecutionError as error:
            self._fail("alias", str(error))
            return None

    def _order_key(self, expr, statement, relations, level):
        """An ORDER BY item: a bare name tries the select-list aliases before
        the columns and the output column names after them."""
        if not isinstance(expr, ColumnRef) or isinstance(expr, BoundColumn) or expr.table:
            return self._expr(expr, level)
        name = expr.name.lower()
        aliases = {
            item.alias.lower(): position
            for position, item in enumerate(statement.select_items)
            if item.alias
        }
        if name in aliases:
            return BoundColumn(expr.name, output=aliases[name])
        bound = self._resolve(expr, level)
        if isinstance(bound, str):
            outputs = {
                column.lower(): position
                for position, column in enumerate(
                    self._output_columns(statement, relations) or []
                )
            }
            if name in outputs:
                return BoundColumn(expr.name, output=outputs[name])
            return self._failed(expr, bound)
        return expr if bound is None else bound

    # -- expressions ----------------------------------------------------------------

    def _expr(self, expr, level: _Level):
        if expr is None or isinstance(expr, (BoundColumn, Literal, Star)):
            return expr
        if isinstance(expr, ColumnRef):
            bound = self._resolve(expr, level)
            if isinstance(bound, str):
                return self._failed(expr, bound)
            return expr if bound is None else bound
        if isinstance(expr, SelectStatement):  # IN / EXISTS / scalar subquery
            return self._select(expr, level)[0]
        return rebuild(expr, lambda child: self._expr(child, level))

    def _resolve(self, ref: ColumnRef, level: _Level | None):
        """The :class:`BoundColumn` for ``ref``, the kind of the error it
        raises, or None for a name only an unknown binding could hold."""
        key = (ref.table.lower() if ref.table else None, ref.name.lower())
        depth = 0
        found = None
        while level is not None:
            found = level.memo.get(key, _UNSEEN)
            if found is _UNSEEN:
                found = level.memo[key] = level.match(*key)
            if found is not None:
                break
            level = level.parent
            depth += 1
        if found is None:
            return "alias" if ref.table else "unknown"
        if found is _OPAQUE:
            return None
        if isinstance(found, str):
            return found
        relation, index = found
        return BoundColumn(
            ref.name,
            ref.table,
            depth=depth,
            binding=relation.name,
            index=index,
            column=relation.columns[index],
            relation=relation.relation,
            data_type=relation.types[index] if relation.types else None,
        )

    def _failed(self, ref: ColumnRef, kind: str) -> ColumnRef:
        self._fail(kind, _MESSAGES[kind].format(name=ref.name, table=ref.table))
        return ref

    def _fail(self, kind: str, message: str) -> None:
        if self._report is None:
            # A misnamed target column is the schema's error, as when a row
            # with that key reaches the table.
            raise (SchemaError if kind == "target" else ExecutionError)(message)
        self._report(kind, message)


# ---------------------------------------------------------------------------
# Output columns (shared with the planner)
# ---------------------------------------------------------------------------


def compute_output_columns(statement: SelectStatement, bindings: Bindings) -> list[str]:
    """Output column names of a SELECT, given the FROM-ordered bindings."""
    columns: list[str] = []
    for item in statement.select_items:
        expr = item.expression
        if isinstance(expr, Star):
            for _, star_columns in star_bindings(expr, bindings):
                columns.extend(star_columns)
        elif item.alias:
            columns.append(item.alias)
        elif isinstance(expr, ColumnRef):
            columns.append(expr.name)
        elif isinstance(expr, FunctionCall):
            columns.append(expr.name.lower())
        else:
            columns.append(f"column{len(columns) + 1}")
    return columns


def star_bindings(star: Star, bindings: Bindings) -> Bindings:
    """The FROM-ordered bindings ``*`` or ``alias.*`` expands over."""
    matched = [
        (binding, columns)
        for binding, columns in bindings
        if star.table is None or binding.lower() == star.table.lower()
    ]
    if star.table is not None and not matched:
        raise ExecutionError(f"unknown table alias {star.table!r} in select list")
    return matched
