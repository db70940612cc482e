"""Recursive-descent parser for the CQMS SQL dialect.

The grammar intentionally covers the fragment of SQL that appears in the
paper's examples and in exploratory scientific/analytic workloads:

* ``SELECT [DISTINCT] ... FROM ... [JOIN ... ON ...] [WHERE] [GROUP BY]
  [HAVING] [ORDER BY] [LIMIT [OFFSET]]`` with aggregates, nested subqueries
  (``IN``, ``EXISTS``, scalar), ``BETWEEN``, ``LIKE``, ``IS NULL`` and
  ``CASE`` expressions.
* ``INSERT`` (``VALUES`` and ``INSERT ... SELECT``), ``UPDATE``, ``DELETE``.
* ``CREATE TABLE``, ``DROP TABLE``, ``ALTER TABLE`` (add / drop / rename
  column, rename table) and ``CREATE INDEX`` — the DDL needed for the
  schema-evolution experiments (C7).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast_nodes import (
    AlterTableStatement,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnDefinition,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExistsSubquery,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    InSubquery,
    InsertStatement,
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
from repro.sql.tokenizer import Token, TokenType, tokenize


#: Keywords that may also be used as ordinary identifiers (column/table names).
#: Structural keywords (FROM, WHERE, GROUP, ...) are deliberately excluded so
#: that partially written queries fail to parse rather than mis-parse.
_NON_RESERVED_KEYWORDS = frozenset(
    {
        "COUNT", "SUM", "AVG", "MIN", "MAX", "KEY", "INDEX", "TO", "ADD",
        "COLUMN", "RENAME", "ASC", "DESC", "ALL", "VALUES", "SET",
    }
)


def parse(sql: str | list[Token], sources: list | None = None) -> Statement:
    """Parse a single SQL statement and return its AST.

    ``sql`` is the text or its :func:`~repro.sql.tokenizer.tokenize` list.
    ``sources``, when given, receives a ``(Literal, Token)`` pair for each
    literal node made from a NUMBER or STRING token: the node holds that
    token's value.  Every other literal token (``LIMIT``, ``OFFSET``, a
    ``VARCHAR`` length) is read as an integer and makes no node.  A trailing
    semicolon is allowed.  Raises :class:`~repro.errors.ParseError` on
    malformed input.
    """
    parser = _Parser(tokenize(sql) if isinstance(sql, str) else sql, sources)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


def parse_many(sql: str) -> list[Statement]:
    """Parse a semicolon-separated script into a list of statements."""
    parser = _Parser(tokenize(sql))
    statements: list[Statement] = []
    while not parser.at_end():
        statements.append(parser.parse_statement())
        while parser.match_punct(";"):
            pass
    return statements


def parse_expression(sql: str) -> Expression:
    """Parse a standalone SQL expression (used in tests and meta-query builders)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class _Parser:
    """Token-stream cursor with one-token lookahead."""

    def __init__(self, tokens: list[Token], sources: list | None = None):
        self._tokens = tokens
        self._pos = 0
        self._sources = [] if sources is None else sources

    # -- cursor helpers ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def at_end(self) -> bool:
        return self.current.type is TokenType.EOF

    def check_keyword(self, *names: str) -> bool:
        return self.current.is_keyword(*names)

    def match_keyword(self, *names: str) -> bool:
        if self.check_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> Token:
        if not self.check_keyword(name):
            raise ParseError(f"expected {name}, found {self.current.value!r}", self.current)
        return self.advance()

    def check_punct(self, value: str) -> bool:
        return self.current.type is TokenType.PUNCTUATION and self.current.value == value

    def match_punct(self, value: str) -> bool:
        if self.check_punct(value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        if not self.check_punct(value):
            raise ParseError(f"expected {value!r}, found {self.current.value!r}", self.current)
        return self.advance()

    def check_operator(self, *values: str) -> bool:
        return self.current.type is TokenType.OPERATOR and self.current.value in values

    def match_operator(self, *values: str) -> str | None:
        if self.check_operator(*values):
            return self.advance().value
        return None

    def expect_identifier(self) -> str:
        token = self.current
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            return token.value
        # Allow selected non-reserved keywords as identifiers (e.g. a column
        # named "count" or "key"); structural keywords such as FROM or WHERE
        # must never be treated as identifiers or partial queries mis-parse.
        if token.type is TokenType.KEYWORD and token.value in _NON_RESERVED_KEYWORDS:
            self.advance()
            return token.value
        raise ParseError(f"expected identifier, found {token.value!r}", token)

    def expect_end(self) -> None:
        self.match_punct(";")
        if not self.at_end():
            raise ParseError(
                f"unexpected trailing input {self.current.value!r}", self.current
            )

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.check_keyword("SELECT"):
            return self.parse_select()
        if self.check_keyword("INSERT"):
            return self.parse_insert()
        if self.check_keyword("UPDATE"):
            return self.parse_update()
        if self.check_keyword("DELETE"):
            return self.parse_delete()
        if self.check_keyword("CREATE"):
            return self.parse_create()
        if self.check_keyword("DROP"):
            return self.parse_drop()
        if self.check_keyword("ALTER"):
            return self.parse_alter()
        raise ParseError(f"unsupported statement start {self.current.value!r}", self.current)

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = bool(self.match_keyword("DISTINCT"))
        self.match_keyword("ALL")
        select_items = self._parse_select_items()
        from_items: tuple[FromItem, ...] = ()
        where = None
        group_by: tuple[Expression, ...] = ()
        having = None
        order_by: tuple[OrderItem, ...] = ()
        limit = None
        offset = None
        if self.match_keyword("FROM"):
            from_items = self._parse_from_clause()
        if self.match_keyword("WHERE"):
            where = self.parse_expr()
        if self.match_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self._parse_expression_list())
        if self.match_keyword("HAVING"):
            having = self.parse_expr()
        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = tuple(self._parse_order_items())
        if self.match_keyword("LIMIT"):
            limit = self._parse_integer()
            if self.match_keyword("OFFSET"):
                offset = self._parse_integer()
        return SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_items(self) -> tuple[SelectItem, ...]:
        items = [self._parse_select_item()]
        while self.match_punct(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.match_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return SelectItem(expression=expr, alias=alias)

    def _parse_from_clause(self) -> tuple[FromItem, ...]:
        items = [self._parse_from_item_with_joins()]
        while self.match_punct(","):
            items.append(self._parse_from_item_with_joins())
        return tuple(items)

    def _parse_from_item_with_joins(self) -> FromItem:
        left = self._parse_single_from_item()
        while True:
            join_type = self._match_join_type()
            if join_type is None:
                return left
            right = self._parse_single_from_item()
            condition = None
            if join_type != "CROSS":
                self.expect_keyword("ON")
                condition = self.parse_expr()
            left = Join(join_type=join_type, left=left, right=right, condition=condition)

    def _match_join_type(self) -> str | None:
        if self.match_keyword("JOIN"):
            return "INNER"
        if self.check_keyword("INNER", "LEFT", "RIGHT", "FULL", "CROSS"):
            kind = self.advance().value
            self.match_keyword("OUTER")
            self.expect_keyword("JOIN")
            return "INNER" if kind == "INNER" else kind
        return None

    def _parse_single_from_item(self) -> FromItem:
        if self.match_punct("("):
            subquery = self.parse_select()
            self.expect_punct(")")
            self.match_keyword("AS")
            alias = self.expect_identifier()
            return SubqueryRef(subquery=subquery, alias=alias)
        name = self.expect_identifier()
        alias = None
        if self.match_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def _parse_order_items(self) -> list[OrderItem]:
        items = [self._parse_order_item()]
        while self.match_punct(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.match_keyword("DESC"):
            ascending = False
        else:
            self.match_keyword("ASC")
        return OrderItem(expression=expr, ascending=ascending)

    def _parse_expression_list(self) -> list[Expression]:
        items = [self.parse_expr()]
        while self.match_punct(","):
            items.append(self.parse_expr())
        return items

    def _parse_integer(self) -> int:
        token = self.current
        if token.type is not TokenType.NUMBER:
            raise ParseError(f"expected integer, found {token.value!r}", token)
        self.advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise ParseError(f"expected integer, found {token.value!r}", token) from exc

    def parse_insert(self) -> InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: tuple[str, ...] = ()
        if self.check_punct("("):
            self.advance()
            names = [self.expect_identifier()]
            while self.match_punct(","):
                names.append(self.expect_identifier())
            self.expect_punct(")")
            columns = tuple(names)
        if self.check_keyword("SELECT"):
            select = self.parse_select()
            return InsertStatement(table=table, columns=columns, select=select)
        self.expect_keyword("VALUES")
        rows: list[tuple[Expression, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expr()]
            while self.match_punct(","):
                values.append(self.parse_expr())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.match_punct(","):
                break
        return InsertStatement(table=table, columns=columns, rows=tuple(rows))

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments: list[tuple[str, Expression]] = []
        while True:
            column = self.expect_identifier()
            if self.match_operator("=") is None:
                raise ParseError("expected '=' in UPDATE assignment", self.current)
            assignments.append((column, self.parse_expr()))
            if not self.match_punct(","):
                break
        where = self.parse_expr() if self.match_keyword("WHERE") else None
        return UpdateStatement(table=table, assignments=tuple(assignments), where=where)

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = self.parse_expr() if self.match_keyword("WHERE") else None
        return DeleteStatement(table=table, where=where)

    def parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.match_keyword("UNIQUE"):
            self.expect_keyword("INDEX")
            return self._parse_create_index(unique=True)
        if self.match_keyword("INDEX"):
            return self._parse_create_index(unique=False)
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.match_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        table = self.expect_identifier()
        self.expect_punct("(")
        columns = [self._parse_column_definition()]
        while self.match_punct(","):
            columns.append(self._parse_column_definition())
        self.expect_punct(")")
        return CreateTableStatement(
            table=table, columns=tuple(columns), if_not_exists=if_not_exists
        )

    def _parse_create_index(self, unique: bool) -> CreateIndexStatement:
        name = self.expect_identifier()
        self.expect_keyword("ON")
        table = self.expect_identifier()
        self.expect_punct("(")
        column = self.expect_identifier()
        self.expect_punct(")")
        kind = "hash"
        # USING is matched contextually (not reserved): workloads that use
        # "using" as an ordinary identifier must keep parsing.
        if (
            self.current.type is TokenType.IDENTIFIER
            and self.current.value.upper() == "USING"
        ):
            self.advance()
            kind = self.expect_identifier().lower()
        return CreateIndexStatement(
            name=name, table=table, column=column, unique=unique, kind=kind
        )

    def _parse_column_definition(self) -> ColumnDefinition:
        name = self.expect_identifier()
        type_name = self.expect_identifier().upper()
        # Consume an optional length such as VARCHAR(32); the engine ignores it.
        if self.match_punct("("):
            self._parse_integer()
            self.expect_punct(")")
        not_null = False
        primary_key = False
        unique = False
        while True:
            if self.match_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.match_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
                not_null = True
            elif self.match_keyword("UNIQUE"):
                unique = True
            else:
                break
        return ColumnDefinition(
            name=name,
            type_name=type_name,
            not_null=not_null,
            primary_key=primary_key,
            unique=unique,
        )

    def parse_drop(self) -> DropTableStatement:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.match_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        table = self.expect_identifier()
        return DropTableStatement(table=table, if_exists=if_exists)

    def parse_alter(self) -> AlterTableStatement:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_identifier()
        if self.match_keyword("ADD"):
            self.match_keyword("COLUMN")
            column = self._parse_column_definition()
            return AlterTableStatement(table=table, action="add_column", column=column)
        if self.match_keyword("DROP"):
            self.match_keyword("COLUMN")
            column_name = self.expect_identifier()
            return AlterTableStatement(
                table=table, action="drop_column", column_name=column_name
            )
        if self.match_keyword("RENAME"):
            if self.match_keyword("COLUMN"):
                old = self.expect_identifier()
                self.expect_keyword("TO")
                new = self.expect_identifier()
                return AlterTableStatement(
                    table=table, action="rename_column", column_name=old, new_name=new
                )
            self.expect_keyword("TO")
            new = self.expect_identifier()
            return AlterTableStatement(table=table, action="rename_table", new_name=new)
        raise ParseError(
            f"unsupported ALTER TABLE action {self.current.value!r}", self.current
        )

    # -- expressions ---------------------------------------------------------
    #
    # Precedence (loosest to tightest):
    #   OR
    #   AND
    #   NOT
    #   comparison / IN / BETWEEN / LIKE / IS
    #   additive (+ - ||)
    #   multiplicative (* / %)
    #   unary minus
    #   primary

    def parse_expr(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.match_keyword("OR"):
            right = self._parse_and()
            left = BinaryOp(op="OR", left=left, right=right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.match_keyword("AND"):
            right = self._parse_not()
            left = BinaryOp(op="AND", left=left, right=right)
        return left

    def _parse_not(self) -> Expression:
        if self.match_keyword("NOT"):
            return UnaryOp(op="NOT", operand=self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        while True:
            negated = False
            if self.check_keyword("NOT"):
                # Lookahead: NOT IN / NOT BETWEEN / NOT LIKE
                next_token = self._tokens[self._pos + 1]
                if next_token.is_keyword("IN", "BETWEEN", "LIKE"):
                    self.advance()
                    negated = True
                else:
                    return left
            op = self.match_operator("=", "<>", "!=", "<", "<=", ">", ">=")
            if op is not None and not negated:
                right = self._parse_additive()
                normalized = "<>" if op == "!=" else op
                left = BinaryOp(op=normalized, left=left, right=right)
                continue
            if self.match_keyword("IN"):
                left = self._parse_in(left, negated)
                continue
            if self.match_keyword("BETWEEN"):
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                left = Between(expr=left, low=low, high=high, negated=negated)
                continue
            if self.match_keyword("LIKE"):
                right = self._parse_additive()
                like = BinaryOp(op="LIKE", left=left, right=right)
                left = UnaryOp(op="NOT", operand=like) if negated else like
                continue
            if self.match_keyword("IS"):
                is_negated = bool(self.match_keyword("NOT"))
                self.expect_keyword("NULL")
                left = UnaryOp(op="IS NOT NULL" if is_negated else "IS NULL", operand=left)
                continue
            return left

    def _parse_in(self, left: Expression, negated: bool) -> Expression:
        self.expect_punct("(")
        if self.check_keyword("SELECT"):
            subquery = self.parse_select()
            self.expect_punct(")")
            return InSubquery(expr=left, subquery=subquery, negated=negated)
        values = [self.parse_expr()]
        while self.match_punct(","):
            values.append(self.parse_expr())
        self.expect_punct(")")
        return InList(expr=left, values=tuple(values), negated=negated)

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            op = self.match_operator("+", "-", "||")
            if op is None:
                return left
            right = self._parse_multiplicative()
            left = BinaryOp(op=op, left=left, right=right)

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            op = self.match_operator("*", "/", "%")
            if op is None:
                return left
            # ``*`` directly followed by , or FROM etc. never reaches here
            # because _parse_unary consumed it as a Star only in primary
            # position; in infix position it is always multiplication.
            right = self._parse_unary()
            left = BinaryOp(op=op, left=left, right=right)

    def _parse_unary(self) -> Expression:
        if self.match_operator("-"):
            return UnaryOp(op="-", operand=self._parse_unary())
        if self.match_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self.advance()
            literal = Literal(
                number_value(token.value) if token.type is TokenType.NUMBER else token.value
            )
            self._sources.append((literal, token))
            return literal
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            self.advance()
            self.expect_punct("(")
            subquery = self.parse_select()
            self.expect_punct(")")
            return ExistsSubquery(subquery=subquery)
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self.advance()
            return Star()
        if self.check_punct("("):
            self.advance()
            if self.check_keyword("SELECT"):
                subquery = self.parse_select()
                self.expect_punct(")")
                return ScalarSubquery(subquery=subquery)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            return self._parse_function_call(self.advance().value)
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD and token.value in _NON_RESERVED_KEYWORDS
        ):
            return self._parse_identifier_expression()
        raise ParseError(f"unexpected token {token.value!r} in expression", token)

    def _parse_identifier_expression(self) -> Expression:
        name = self.expect_identifier()
        if self.check_punct("("):
            return self._parse_function_call(name)
        if self.check_punct("."):
            self.advance()
            if self.check_operator("*"):
                self.advance()
                return Star(table=name)
            column = self.expect_identifier()
            return ColumnRef(name=column, table=name)
        return ColumnRef(name=name)

    def _parse_function_call(self, name: str) -> FunctionCall:
        self.expect_punct("(")
        distinct = bool(self.match_keyword("DISTINCT"))
        args: list[Expression] = []
        if not self.check_punct(")"):
            args.append(self.parse_expr())
            while self.match_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        return FunctionCall(name=name.upper(), args=tuple(args), distinct=distinct)

    def _parse_case(self) -> CaseExpression:
        self.expect_keyword("CASE")
        whens: list[tuple[Expression, Expression]] = []
        default: Expression | None = None
        while self.match_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            whens.append((condition, value))
        if self.match_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        if not whens:
            raise ParseError("CASE expression requires at least one WHEN", self.current)
        return CaseExpression(whens=tuple(whens), default=default)

    def _parse_cast(self) -> Expression:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        expr = self.parse_expr()
        self.expect_keyword("AS")
        type_name = self.expect_identifier().upper()
        if self.match_punct("("):
            self._parse_integer()
            self.expect_punct(")")
        self.expect_punct(")")
        return FunctionCall(name="CAST", args=(expr, Literal(type_name)))


def number_value(text: str) -> int | float:
    """Convert a numeric literal's text to int when possible, else float.

    Raises :class:`ParseError` for an integer literal past Python's
    string-conversion digit limit, as ``_Parser._parse_integer`` does.
    """
    if "." in text or "e" in text or "E" in text:
        return float(text)
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"integer literal of {len(text)} digits is too long") from exc
