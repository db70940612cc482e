"""Query canonicalization and plan-template parameterization.

The miner and the similarity functions need to decide when two queries are
"the same analysis" even if they differ in irrelevant surface details such as
identifier case, alias names, the order of FROM tables, or the order of the
conjuncts in the WHERE clause.  The paper (Section 4.3) additionally suggests
comparing parse trees *after removing constants*.

Constants are removed one way: :func:`parameterize_statement` replaces every
non-NULL literal with a :class:`ParamLiteral` that *carries its value* but
*renders as* ``'?'``.  Canonicalizing the parameterized statement yields the
constant-stripped template text directly — a logged record's template
(``canonical_text(..., strip_constants=True)``) and the engine's plan-cache
key (:mod:`repro.storage.plan_cache`) are both that text — while the planner
still sees real constants.  :func:`collect_parameters` is a walk: the
statement's parameter nodes in pre-order, an order that depends only on the
template, which is what lets a cached plan be re-bound positionally to a
later statement instance of the same template.
"""

from __future__ import annotations

from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    DeleteStatement,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    Join,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UpdateStatement,
    from_bindings,
    rebuild,
    walk,
)
from repro.sql.formatter import format_statement
from repro.sql.parser import parse

#: What a constant renders as in a template.
_CONSTANT_PLACEHOLDER = "?"


class ParamLiteral(Literal):
    """A literal constant captured as a plan-template parameter.

    Behaves exactly like :class:`~repro.sql.ast_nodes.Literal` everywhere the
    engine evaluates or pattern-matches expressions (``value`` holds the real
    constant), but *formats* as the placeholder ``'?'``.  That single property
    makes canonicalization of a parameterized statement instance-independent:
    conjunct sorting, IN-list sorting, and the rendered template text all see
    ``'?'`` regardless of the constant, so every instance of a query template
    produces the same canonical text and the same parameter order.

    The plan cache re-binds cached plans in place by assigning ``value`` on
    the shared parameter nodes (via ``object.__setattr__`` since ``Literal``
    is frozen); the engine is single-threaded and plans never execute
    concurrently, which is what makes the in-place swap safe.
    """

    def __str__(self) -> str:  # renders like a stripped constant
        return f"'{_CONSTANT_PLACEHOLDER}'"

#: Comparison operators and their mirror when operands are swapped.
_MIRROR_OPS = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}


def canonicalize(
    statement: SelectStatement, strip_constants: bool = False
) -> SelectStatement:
    """Return a canonical form of a SELECT statement.

    The canonical form:

    * lower-cases table, alias, and column identifiers,
    * replaces alias bindings with the lower-cased base-table name whenever the
      alias is unambiguous (it is the table's only binding in the whole
      statement, subqueries included),
    * sorts comma-separated FROM tables by name,
    * flattens and sorts AND conjuncts (and OR disjuncts) deterministically,
    * orients comparisons so the column reference is on the left when the
      other side is a literal,
    * with ``strip_constants``, renders every non-NULL literal as ``'?'``
      (the statement is parameterized first: :func:`parameterize_statement`).

    A subquery's names resolve in its enclosing queries' scope too, so a
    correlated reference is renamed like the binding it reads.  The result is
    *not* guaranteed to be semantically minimal — it is a normal form good
    enough for equality and similarity comparisons, which is exactly how the
    paper proposes to use it.
    """
    if strip_constants:
        statement = parameterize_statement(statement)[0]
    canonicalizer = _Canonicalizer()
    canonical = canonicalizer.select(statement, {})
    if canonicalizer.nested:
        canonical = _Canonicalizer(_binding_counts(statement)).select(statement, {})
    return canonical


def canonical_text(sql_or_statement, strip_constants: bool = False) -> str:
    """Return the canonical SQL text for a query given as text or AST.

    Non-SELECT statements are formatted directly, constants included
    (lower-casing identifiers is not needed for them because the CQMS only
    mines SELECT workloads).
    """
    statement = sql_or_statement
    if isinstance(statement, str):
        statement = parse(statement)
    if isinstance(statement, SelectStatement):
        statement = canonicalize(statement, strip_constants=strip_constants)
    return format_statement(statement)


def queries_equivalent(first, second, strip_constants: bool = False) -> bool:
    """Return True when two queries have the same canonical form.

    Accepts SQL text or parsed statements.  This is a syntactic (not semantic)
    equivalence: it is the notion of "duplicate query" used by the Query Miner
    for deduplication and popularity counting.
    """
    return canonical_text(first, strip_constants) == canonical_text(second, strip_constants)


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


class _Canonicalizer:
    """Canonicalizes the parts of one statement.

    ``names`` maps each binding a query level sees, its own FROM bindings over
    its enclosing queries', to how the canonical text writes it: the base
    table when the table has one binding in the whole statement (then no other
    binding, at any level, is written with that name, so a correlated
    reference keeps reading the binding it read), else the binding itself.
    ``counts`` holds the bindings per table (:func:`_binding_counts`).
    Without it the top level's are counted, which is the same thing unless a
    nested SELECT turns up: ``nested`` then tells the caller to start again
    with the whole statement counted.
    """

    def __init__(self, counts: dict[str, int] | None = None):
        self._counts = counts
        self.nested = False

    def select(self, statement: SelectStatement, enclosing: dict[str, str]) -> SelectStatement:
        local = from_bindings(statement.from_items)
        if self._counts is None:
            self._counts = _count(local.values())
        names = dict(enclosing)
        for binding, table in local.items():
            names[binding] = table if self._counts.get(table) == 1 else binding
        from_items = [self.from_item(item, names, enclosing) for item in statement.from_items]
        return SelectStatement(
            select_items=tuple(
                SelectItem(
                    expression=self.expr(item.expression, names),
                    alias=item.alias.lower() if item.alias else None,
                )
                for item in statement.select_items
            ),
            # Sort only the comma-separated top-level items; join trees keep structure.
            from_items=tuple(sorted(from_items, key=_from_sort_key)),
            where=self.expr(statement.where, names),
            group_by=tuple(
                sorted((self.expr(expr, names) for expr in statement.group_by), key=_expr_sort_key)
            ),
            having=self.expr(statement.having, names),
            order_by=tuple(
                OrderItem(expression=self.expr(item.expression, names), ascending=item.ascending)
                for item in statement.order_by
            ),
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
        )

    def from_item(self, item: FromItem, names: dict[str, str], enclosing: dict[str, str]):
        if isinstance(item, TableRef):
            name = item.name.lower()
            binding = names[item.binding.lower()]
            return TableRef(name=name, alias=None if binding == name else binding)
        if isinstance(item, SubqueryRef):
            # A derived table sees the queries enclosing its statement, not its siblings.
            self.nested = True
            return SubqueryRef(
                subquery=self.select(item.subquery, enclosing), alias=item.alias.lower()
            )
        if isinstance(item, Join):
            return Join(
                join_type=item.join_type,
                left=self.from_item(item.left, names, enclosing),
                right=self.from_item(item.right, names, enclosing),
                condition=self.expr(item.condition, names),
            )
        raise TypeError(f"unsupported FROM item: {type(item).__name__}")

    def expr(self, expr, names: dict[str, str]):
        if expr is None or isinstance(expr, Literal):
            return expr
        if isinstance(expr, ColumnRef):
            table = expr.table.lower() if expr.table else None
            return ColumnRef(name=expr.name.lower(), table=names.get(table, table))
        if isinstance(expr, Star):
            table = expr.table.lower() if expr.table else None
            return Star(table=names.get(table, table))
        if isinstance(expr, SelectStatement):  # an IN / EXISTS / scalar subquery
            self.nested = True
            return self.select(expr, names)
        if isinstance(expr, BinaryOp):
            left = self.expr(expr.left, names)
            right = self.expr(expr.right, names)
            if expr.op in ("AND", "OR"):
                conjuncts = _flatten_boolean(expr.op, left, right)
                conjuncts.sort(key=_expr_sort_key)
                return _rebuild_boolean(expr.op, conjuncts)
            if expr.op in _MIRROR_OPS:
                left, right, op = _orient_comparison(left, right, expr.op)
                return BinaryOp(op=op, left=left, right=right)
            return BinaryOp(op=expr.op, left=left, right=right)
        if isinstance(expr, FunctionCall):
            return FunctionCall(
                name=expr.name.upper(),
                args=tuple(self.expr(arg, names) for arg in expr.args),
                distinct=expr.distinct,
            )
        if isinstance(expr, InList):
            values = tuple(
                sorted((self.expr(value, names) for value in expr.values), key=_expr_sort_key)
            )
            return InList(expr=self.expr(expr.expr, names), values=values, negated=expr.negated)
        return rebuild(expr, lambda child: self.expr(child, names))


def _binding_counts(statement: Statement) -> dict[str, int]:
    """How many bindings each base table has, over every level of ``statement``."""
    return _count(
        table
        for level in walk(statement)
        if isinstance(level, SelectStatement)
        for table in from_bindings(level.from_items).values()
    )


def _count(tables) -> dict[str, int]:
    counts: dict[str, int] = {}
    for table in tables:
        counts[table] = counts.get(table, 0) + 1
    return counts


def _from_sort_key(item: FromItem) -> str:
    if isinstance(item, TableRef):
        return item.name
    if isinstance(item, SubqueryRef):
        return f"~subquery:{item.alias}"
    if isinstance(item, Join):
        return f"~join:{_from_sort_key(item.left)}"
    return "~"


def _flatten_boolean(op: str, *operands: Expression) -> list[Expression]:
    flat: list[Expression] = []
    for operand in operands:
        if isinstance(operand, BinaryOp) and operand.op == op:
            flat.extend(_flatten_boolean(op, operand.left, operand.right))
        else:
            flat.append(operand)
    return flat


def _rebuild_boolean(op: str, operands: list[Expression]) -> Expression:
    result = operands[0]
    for operand in operands[1:]:
        result = BinaryOp(op=op, left=result, right=operand)
    return result


def _orient_comparison(
    left: Expression, right: Expression, op: str
) -> tuple[Expression, Expression, str]:
    """Put the column reference on the left when compared against a literal."""
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        return right, left, _MIRROR_OPS[op]
    if op == "=" and isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        # Orient equality joins deterministically.
        if _expr_sort_key(right) < _expr_sort_key(left):
            return right, left, op
    return left, right, op


def _expr_sort_key(expr: Expression) -> str:
    """A deterministic textual sort key for canonical ordering."""
    from repro.sql.formatter import format_expression

    return format_expression(expr)


# ---------------------------------------------------------------------------
# Plan-template parameterization (used by the plan cache)
# ---------------------------------------------------------------------------


def canonical_statement(statement: Statement) -> Statement:
    """A canonical form of a statement for plan-cache keying.

    SELECTs go through :func:`canonicalize`.  UPDATE/DELETE get the subset
    that is safe without join analysis: a lower-cased table name plus
    canonicalized (flattened, sorted, oriented) WHERE conjuncts and SET
    expressions.  Other statements are returned unchanged.
    """
    if isinstance(statement, SelectStatement):
        return canonicalize(statement)
    if not isinstance(statement, (UpdateStatement, DeleteStatement)):
        return statement
    table = statement.table.lower()
    names = {table: table}
    canonicalizer = _Canonicalizer(_binding_counts(statement))
    where = canonicalizer.expr(statement.where, names)
    if isinstance(statement, DeleteStatement):
        return DeleteStatement(table=table, where=where)
    return UpdateStatement(
        table=table,
        assignments=tuple(
            (column.lower(), canonicalizer.expr(value, names))
            for column, value in statement.assignments
        ),
        where=where,
    )


def parameterize_statement(statement: Statement) -> tuple[Statement, list[ParamLiteral]]:
    """Replace every non-NULL literal with a value-carrying :class:`ParamLiteral`.

    Returns the rewritten statement plus the parameter nodes in source order.
    NULL literals stay as plain literals: NULL-ness changes the meaning of a
    comparison, so it is part of the template, not a parameter.  The rewritten
    statement is execution-equivalent to the original (parameters carry the
    original values) while formatting as the constant-stripped template.
    Only SELECT, UPDATE and DELETE are parameterized; any other statement is
    returned as it is, with no parameters.
    """
    if not isinstance(statement, (SelectStatement, UpdateStatement, DeleteStatement)):
        return statement, []
    params: list[ParamLiteral] = []

    def swap(node):
        if not isinstance(node, Literal):
            return rebuild(node, swap)
        if node.value is None:
            return node
        params.append(ParamLiteral(node.value))
        return params[-1]

    return rebuild(statement, swap), params


def collect_parameters(statement: Statement) -> list[ParamLiteral]:
    """The statement's :class:`ParamLiteral` nodes in pre-order.

    The order is a pure function of the statement's template structure, so
    two instances of the same template (e.g. the original parameterized
    statement of a cached plan and a freshly canonicalized incoming instance)
    enumerate corresponding parameter sites at the same positions — which is
    what makes positional re-binding sound.
    """
    return [node for node in walk(statement) if isinstance(node, ParamLiteral)]


# ---------------------------------------------------------------------------
# Canonical text of a bound template instance
# ---------------------------------------------------------------------------


def with_constants(statement: Statement) -> Statement:
    """``statement`` with every :class:`ParamLiteral` a plain literal of its
    current value: the statement as parsed from the text bound into it."""

    def swap(node):
        if isinstance(node, ParamLiteral):
            return Literal(node.value)
        return rebuild(node, swap)

    return rebuild(statement, swap)


def constants_keep_order(canonical: Statement) -> bool:
    """Whether canonicalizing any instance of a parameterized statement sorts
    as canonicalizing the template did.

    ``canonical`` is the template's canonical form (parameters render as
    ``'?'``).  The canonicalizer sorts AND/OR operands, IN-list values and
    GROUP BY items by their rendered text; an instance renders each ``'?'``
    as its constant.  The order is the template's when every two neighbours
    are told apart before the first ``'?'`` of either — two sibling
    conjuncts ``a = '?'`` that differ only in their constants are not.
    """
    for node in walk(canonical):
        if isinstance(node, BinaryOp) and node.op in ("AND", "OR"):
            siblings = _flatten_boolean(node.op, node.left, node.right)
        elif isinstance(node, InList):
            siblings = node.values
        elif isinstance(node, SelectStatement):
            siblings = node.group_by
        else:
            continue
        keys = [_expr_sort_key(sibling) for sibling in siblings]
        for first, second in zip(keys, keys[1:]):
            if not _told_apart_before_constants(first, second):
                return False
    return True


_PLACEHOLDER_TEXT = f"'{_CONSTANT_PLACEHOLDER}'"


def _told_apart_before_constants(first: str, second: str) -> bool:
    if first == second:
        return _PLACEHOLDER_TEXT not in first
    differs = next(
        (at for at, (a, b) in enumerate(zip(first, second)) if a != b),
        min(len(first), len(second)),
    )
    return differs < _first_constant(first) and differs < _first_constant(second)


def _first_constant(key: str) -> int:
    """Where the first ``'?'`` of a sort key starts (past its end if none)."""
    at = key.find(_PLACEHOLDER_TEXT)
    return len(key) + 1 if at < 0 else at


class _Cut(Literal):
    """Where :func:`cut_at_parameters` cuts: renders as a NUL-fenced index."""

    def __str__(self) -> str:
        return f"\0{self.value}\0"


def cut_at_parameters(
    statement: Statement, params: list[ParamLiteral]
) -> tuple[tuple[str, ...], tuple[int, ...]] | None:
    """``statement``'s formatted text cut where its parameters render.

    Returns ``(pieces, slots)``: the text is ``pieces[0]``, then the constant
    of ``params[slots[0]]``, then ``pieces[1]``, and so on.  ``None`` when a
    parameter is not among ``params`` or the text holds a NUL of its own.
    """
    index = {id(param): position for position, param in enumerate(params)}

    def cut(node):
        if isinstance(node, ParamLiteral):
            return _Cut(index.get(id(node), -1))
        return rebuild(node, cut)

    parts = format_statement(rebuild(statement, cut)).split("\0")
    slots = parts[1::2]
    if len(parts) % 2 == 0 or not all(slot.isdigit() for slot in slots):
        return None
    return tuple(parts[0::2]), tuple(int(slot) for slot in slots)
