"""Query canonicalization and plan-template parameterization.

The miner and the similarity functions need to decide when two queries are
"the same analysis" even if they differ in irrelevant surface details such as
identifier case, alias names, the order of FROM tables, or the order of the
conjuncts in the WHERE clause.  The paper (Section 4.3) additionally suggests
comparing parse trees *after removing constants*; :func:`canonicalize`
supports that through ``strip_constants=True``.

The same constant-stripped canonical form keys the engine's plan cache
(:mod:`repro.storage.plan_cache`): :func:`parameterize_statement` replaces
every literal constant with a :class:`ParamLiteral` that *carries its value*
but *renders as* ``'?'``, so canonicalizing the parameterized statement yields
the template text directly while the planner still sees real constants.
:func:`collect_parameters` then enumerates the parameter sites in a
deterministic traversal order, which is what lets a cached plan be re-bound
positionally to a later statement instance of the same template.
"""

from __future__ import annotations

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
    Join,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UpdateStatement,
)
from repro.sql.formatter import format_statement
from repro.sql.parser import parse

#: Placeholder used in place of literals when ``strip_constants`` is requested.
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
      alias is unambiguous (each base table appears once),
    * sorts comma-separated FROM tables by name,
    * flattens and sorts AND conjuncts (and OR disjuncts) deterministically,
    * orients comparisons so the column reference is on the left when the
      other side is a literal,
    * optionally replaces every literal with the placeholder ``'?'``.

    The result is *not* guaranteed to be semantically minimal — it is a
    normal form good enough for equality and similarity comparisons, which is
    exactly how the paper proposes to use it.
    """
    alias_map = _build_alias_map(statement.from_items)
    return _canonicalize_select(statement, alias_map, strip_constants)


def canonical_text(sql_or_statement, strip_constants: bool = False) -> str:
    """Return the canonical SQL text for a query given as text or AST.

    Non-SELECT statements are formatted directly (lower-casing identifiers is
    not needed for them because the CQMS only mines SELECT workloads).
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


def _build_alias_map(from_items: tuple[FromItem, ...]) -> dict[str, str]:
    """Map each binding (alias or table name), lower-cased, to its target name.

    If the same base table is aliased more than once (self-join), each alias
    keeps its own identity (we cannot merge them without changing semantics),
    so aliases map to themselves in that case.
    """
    bindings: list[tuple[str, str]] = []  # (binding, base table)
    _collect_bindings(from_items, bindings)
    table_counts: dict[str, int] = {}
    for _, table in bindings:
        table_counts[table] = table_counts.get(table, 0) + 1
    alias_map: dict[str, str] = {}
    for binding, table in bindings:
        if table_counts[table] == 1:
            alias_map[binding.lower()] = table.lower()
        else:
            alias_map[binding.lower()] = binding.lower()
    return alias_map


def _collect_bindings(from_items, bindings: list[tuple[str, str]]) -> None:
    for item in from_items:
        if isinstance(item, TableRef):
            bindings.append((item.binding, item.name))
        elif isinstance(item, SubqueryRef):
            bindings.append((item.alias, item.alias))
        elif isinstance(item, Join):
            _collect_bindings((item.left, item.right), bindings)


def _canonicalize_select(
    statement: SelectStatement, alias_map: dict[str, str], strip_constants: bool
) -> SelectStatement:
    select_items = tuple(
        SelectItem(
            expression=_canon_expr(item.expression, alias_map, strip_constants),
            alias=item.alias.lower() if item.alias else None,
        )
        for item in statement.select_items
    )
    from_items = _canon_from_items(statement.from_items, alias_map, strip_constants)
    where = (
        _canon_expr(statement.where, alias_map, strip_constants)
        if statement.where is not None
        else None
    )
    group_by = tuple(
        sorted(
            (_canon_expr(expr, alias_map, strip_constants) for expr in statement.group_by),
            key=_expr_sort_key,
        )
    )
    having = (
        _canon_expr(statement.having, alias_map, strip_constants)
        if statement.having is not None
        else None
    )
    order_by = tuple(
        OrderItem(
            expression=_canon_expr(item.expression, alias_map, strip_constants),
            ascending=item.ascending,
        )
        for item in statement.order_by
    )
    return SelectStatement(
        select_items=select_items,
        from_items=from_items,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


def _canon_from_items(
    from_items: tuple[FromItem, ...], alias_map: dict[str, str], strip_constants: bool
) -> tuple[FromItem, ...]:
    canonical: list[FromItem] = []
    for item in from_items:
        canonical.append(_canon_from_item(item, alias_map, strip_constants))
    # Sort only the comma-separated top-level items; join trees keep structure.
    return tuple(sorted(canonical, key=_from_sort_key))


def _canon_from_item(
    item: FromItem, alias_map: dict[str, str], strip_constants: bool
) -> FromItem:
    if isinstance(item, TableRef):
        name = item.name.lower()
        binding = alias_map.get(item.binding.lower(), item.binding.lower())
        alias = None if binding == name else binding
        return TableRef(name=name, alias=alias)
    if isinstance(item, SubqueryRef):
        inner_alias_map = _build_alias_map(item.subquery.from_items)
        return SubqueryRef(
            subquery=_canonicalize_select(item.subquery, inner_alias_map, strip_constants),
            alias=item.alias.lower(),
        )
    if isinstance(item, Join):
        return Join(
            join_type=item.join_type,
            left=_canon_from_item(item.left, alias_map, strip_constants),
            right=_canon_from_item(item.right, alias_map, strip_constants),
            condition=(
                _canon_expr(item.condition, alias_map, strip_constants)
                if item.condition is not None
                else None
            ),
        )
    raise TypeError(f"unsupported FROM item: {type(item).__name__}")


def _from_sort_key(item: FromItem) -> str:
    if isinstance(item, TableRef):
        return item.name
    if isinstance(item, SubqueryRef):
        return f"~subquery:{item.alias}"
    if isinstance(item, Join):
        return f"~join:{_from_sort_key(item.left)}"
    return "~"


def _canon_expr(expr: Expression, alias_map: dict[str, str], strip: bool) -> Expression:
    if isinstance(expr, Literal):
        if strip and expr.value is not None:
            return Literal(_CONSTANT_PLACEHOLDER)
        return expr
    if isinstance(expr, ColumnRef):
        table = alias_map.get(expr.table.lower(), expr.table.lower()) if expr.table else None
        return ColumnRef(name=expr.name.lower(), table=table)
    if isinstance(expr, Star):
        table = alias_map.get(expr.table.lower(), expr.table.lower()) if expr.table else None
        return Star(table=table)
    if isinstance(expr, BinaryOp):
        left = _canon_expr(expr.left, alias_map, strip)
        right = _canon_expr(expr.right, alias_map, strip)
        if expr.op in ("AND", "OR"):
            conjuncts = _flatten_boolean(expr.op, left, right)
            conjuncts.sort(key=_expr_sort_key)
            return _rebuild_boolean(expr.op, conjuncts)
        if expr.op in _MIRROR_OPS:
            left, right, op = _orient_comparison(left, right, expr.op)
            return BinaryOp(op=op, left=left, right=right)
        return BinaryOp(op=expr.op, left=left, right=right)
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_canon_expr(expr.operand, alias_map, strip))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            name=expr.name.upper(),
            args=tuple(_canon_expr(arg, alias_map, strip) for arg in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, InList):
        values = tuple(
            sorted(
                (_canon_expr(value, alias_map, strip) for value in expr.values),
                key=_expr_sort_key,
            )
        )
        return InList(
            expr=_canon_expr(expr.expr, alias_map, strip), values=values, negated=expr.negated
        )
    if isinstance(expr, InSubquery):
        inner_alias_map = _build_alias_map(expr.subquery.from_items)
        return InSubquery(
            expr=_canon_expr(expr.expr, alias_map, strip),
            subquery=_canonicalize_select(expr.subquery, inner_alias_map, strip),
            negated=expr.negated,
        )
    if isinstance(expr, ExistsSubquery):
        inner_alias_map = _build_alias_map(expr.subquery.from_items)
        return ExistsSubquery(
            subquery=_canonicalize_select(expr.subquery, inner_alias_map, strip),
            negated=expr.negated,
        )
    if isinstance(expr, ScalarSubquery):
        inner_alias_map = _build_alias_map(expr.subquery.from_items)
        return ScalarSubquery(
            subquery=_canonicalize_select(expr.subquery, inner_alias_map, strip)
        )
    if isinstance(expr, Between):
        return Between(
            expr=_canon_expr(expr.expr, alias_map, strip),
            low=_canon_expr(expr.low, alias_map, strip),
            high=_canon_expr(expr.high, alias_map, strip),
            negated=expr.negated,
        )
    if isinstance(expr, CaseExpression):
        whens = tuple(
            (
                _canon_expr(condition, alias_map, strip),
                _canon_expr(value, alias_map, strip),
            )
            for condition, value in expr.whens
        )
        default = (
            _canon_expr(expr.default, alias_map, strip) if expr.default is not None else None
        )
        return CaseExpression(whens=whens, default=default)
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


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
    if isinstance(statement, UpdateStatement):
        alias_map = {statement.table.lower(): statement.table.lower()}
        return UpdateStatement(
            table=statement.table.lower(),
            assignments=tuple(
                (column.lower(), _canon_expr(value, alias_map, False))
                for column, value in statement.assignments
            ),
            where=(
                _canon_expr(statement.where, alias_map, False)
                if statement.where is not None
                else None
            ),
        )
    if isinstance(statement, DeleteStatement):
        alias_map = {statement.table.lower(): statement.table.lower()}
        return DeleteStatement(
            table=statement.table.lower(),
            where=(
                _canon_expr(statement.where, alias_map, False)
                if statement.where is not None
                else None
            ),
        )
    return statement


def parameterize_statement(statement: Statement) -> tuple[Statement, list[ParamLiteral]]:
    """Replace every non-NULL literal with a value-carrying :class:`ParamLiteral`.

    Returns the rewritten statement plus the parameter nodes in source order.
    NULL literals stay as plain literals: NULL-ness changes the meaning of a
    comparison, so it is part of the template, not a parameter.  The rewritten
    statement is execution-equivalent to the original (parameters carry the
    original values) while formatting as the constant-stripped template.
    """
    params: list[ParamLiteral] = []
    rewritten = _param_statement(statement, params)
    return rewritten, params


def collect_parameters(statement: Statement) -> list[ParamLiteral]:
    """The statement's :class:`ParamLiteral` nodes in deterministic order.

    The traversal order is a pure function of the statement's template
    structure, so two instances of the same template (e.g. the original
    parameterized statement of a cached plan and a freshly canonicalized
    incoming instance) enumerate corresponding parameter sites at the same
    positions — which is what makes positional re-binding sound.
    """
    params: list[ParamLiteral] = []
    _walk_statement_params(statement, params)
    return params


def _param_statement(statement: Statement, params: list[ParamLiteral]) -> Statement:
    if isinstance(statement, SelectStatement):
        return _param_select(statement, params)
    if isinstance(statement, UpdateStatement):
        return UpdateStatement(
            table=statement.table,
            assignments=tuple(
                (column, _param_expr(value, params))
                for column, value in statement.assignments
            ),
            where=(
                _param_expr(statement.where, params)
                if statement.where is not None
                else None
            ),
        )
    if isinstance(statement, DeleteStatement):
        return DeleteStatement(
            table=statement.table,
            where=(
                _param_expr(statement.where, params)
                if statement.where is not None
                else None
            ),
        )
    return statement


def _param_select(statement: SelectStatement, params: list[ParamLiteral]) -> SelectStatement:
    return SelectStatement(
        select_items=tuple(
            SelectItem(expression=_param_expr(item.expression, params), alias=item.alias)
            for item in statement.select_items
        ),
        from_items=tuple(
            _param_from_item(item, params) for item in statement.from_items
        ),
        where=_param_expr(statement.where, params) if statement.where is not None else None,
        group_by=tuple(_param_expr(expr, params) for expr in statement.group_by),
        having=_param_expr(statement.having, params) if statement.having is not None else None,
        order_by=tuple(
            OrderItem(expression=_param_expr(item.expression, params), ascending=item.ascending)
            for item in statement.order_by
        ),
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


def _param_from_item(item: FromItem, params: list[ParamLiteral]) -> FromItem:
    if isinstance(item, TableRef):
        return item
    if isinstance(item, SubqueryRef):
        return SubqueryRef(subquery=_param_select(item.subquery, params), alias=item.alias)
    if isinstance(item, Join):
        return Join(
            join_type=item.join_type,
            left=_param_from_item(item.left, params),
            right=_param_from_item(item.right, params),
            condition=(
                _param_expr(item.condition, params) if item.condition is not None else None
            ),
        )
    raise TypeError(f"unsupported FROM item: {type(item).__name__}")


def _param_expr(expr: Expression, params: list[ParamLiteral]) -> Expression:
    if isinstance(expr, Literal):
        if expr.value is None:
            return expr
        param = ParamLiteral(expr.value)
        params.append(param)
        return param
    if isinstance(expr, (ColumnRef, Star)):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            op=expr.op,
            left=_param_expr(expr.left, params),
            right=_param_expr(expr.right, params),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_param_expr(expr.operand, params))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            name=expr.name,
            args=tuple(_param_expr(arg, params) for arg in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, InList):
        return InList(
            expr=_param_expr(expr.expr, params),
            values=tuple(_param_expr(value, params) for value in expr.values),
            negated=expr.negated,
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            expr=_param_expr(expr.expr, params),
            subquery=_param_select(expr.subquery, params),
            negated=expr.negated,
        )
    if isinstance(expr, ExistsSubquery):
        return ExistsSubquery(
            subquery=_param_select(expr.subquery, params), negated=expr.negated
        )
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(subquery=_param_select(expr.subquery, params))
    if isinstance(expr, Between):
        return Between(
            expr=_param_expr(expr.expr, params),
            low=_param_expr(expr.low, params),
            high=_param_expr(expr.high, params),
            negated=expr.negated,
        )
    if isinstance(expr, CaseExpression):
        return CaseExpression(
            whens=tuple(
                (_param_expr(condition, params), _param_expr(value, params))
                for condition, value in expr.whens
            ),
            default=(
                _param_expr(expr.default, params) if expr.default is not None else None
            ),
        )
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def _walk_statement_params(statement: Statement, params: list[ParamLiteral]) -> None:
    if isinstance(statement, SelectStatement):
        for item in statement.select_items:
            _walk_expr_params(item.expression, params)
        for from_item in statement.from_items:
            _walk_from_item_params(from_item, params)
        if statement.where is not None:
            _walk_expr_params(statement.where, params)
        for expr in statement.group_by:
            _walk_expr_params(expr, params)
        if statement.having is not None:
            _walk_expr_params(statement.having, params)
        for order_item in statement.order_by:
            _walk_expr_params(order_item.expression, params)
    elif isinstance(statement, UpdateStatement):
        for _, value in statement.assignments:
            _walk_expr_params(value, params)
        if statement.where is not None:
            _walk_expr_params(statement.where, params)
    elif isinstance(statement, DeleteStatement):
        if statement.where is not None:
            _walk_expr_params(statement.where, params)


def _walk_from_item_params(item: FromItem, params: list[ParamLiteral]) -> None:
    if isinstance(item, SubqueryRef):
        _walk_statement_params(item.subquery, params)
    elif isinstance(item, Join):
        _walk_from_item_params(item.left, params)
        _walk_from_item_params(item.right, params)
        if item.condition is not None:
            _walk_expr_params(item.condition, params)


def _walk_expr_params(expr: Expression, params: list[ParamLiteral]) -> None:
    if isinstance(expr, ParamLiteral):
        params.append(expr)
        return
    if isinstance(expr, (Literal, ColumnRef, Star)):
        return
    if isinstance(expr, BinaryOp):
        _walk_expr_params(expr.left, params)
        _walk_expr_params(expr.right, params)
    elif isinstance(expr, UnaryOp):
        _walk_expr_params(expr.operand, params)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            _walk_expr_params(arg, params)
    elif isinstance(expr, InList):
        _walk_expr_params(expr.expr, params)
        for value in expr.values:
            _walk_expr_params(value, params)
    elif isinstance(expr, InSubquery):
        _walk_expr_params(expr.expr, params)
        _walk_statement_params(expr.subquery, params)
    elif isinstance(expr, ExistsSubquery):
        _walk_statement_params(expr.subquery, params)
    elif isinstance(expr, ScalarSubquery):
        _walk_statement_params(expr.subquery, params)
    elif isinstance(expr, Between):
        _walk_expr_params(expr.expr, params)
        _walk_expr_params(expr.low, params)
        _walk_expr_params(expr.high, params)
    elif isinstance(expr, CaseExpression):
        for condition, value in expr.whens:
            _walk_expr_params(condition, params)
            _walk_expr_params(value, params)
        if expr.default is not None:
            _walk_expr_params(expr.default, params)
