"""Tests for the SQL formatter (rendering ASTs back to text)."""

import pytest

from repro.sql.formatter import format_expression, format_statement
from repro.sql.parser import parse, parse_expression


ROUND_TRIP_QUERIES = [
    "SELECT * FROM lakes",
    "SELECT DISTINCT state FROM lakes",
    "SELECT name AS n, area_km2 FROM lakes WHERE area_km2 > 10 ORDER BY n DESC LIMIT 5",
    "SELECT * FROM a, b WHERE a.id = b.id AND b.x < 3",
    "SELECT state, COUNT(*) AS n FROM lakes GROUP BY state HAVING COUNT(*) > 1",
    "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.x = c.x",
    "SELECT * FROM (SELECT id FROM t) sub WHERE sub.id IN (1, 2)",
    "SELECT * FROM t WHERE a BETWEEN 1 AND 2 AND name LIKE 'Lake%'",
    "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.id = t.id)",
    "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
    "SELECT * FROM t WHERE x IS NOT NULL AND y IS NULL",
    "SELECT COUNT(DISTINCT name) FROM lakes",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
    "UPDATE t SET a = a + 1 WHERE b <> 0",
    "DELETE FROM t WHERE a IN (SELECT a FROM s)",
    "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, v FLOAT)",
    "DROP TABLE IF EXISTS t",
    "ALTER TABLE t RENAME COLUMN a TO b",
    "ALTER TABLE t ADD COLUMN c TEXT",
    "CREATE UNIQUE INDEX idx ON t (a)",
    "SELECT * FROM t LIMIT 10 OFFSET 20",
    "SELECT a - (b - c), (a - b) - c, a % (b * c), -(a + b) FROM t",
    "SELECT * FROM t WHERE (a > 2) IS NULL OR a > (b IS NULL) OR a BETWEEN b + 1 AND (c = d)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_parse_format_reparse_is_stable(self, sql):
        """format(parse(x)) must re-parse to the identical AST."""
        first_ast = parse(sql)
        rendered = format_statement(first_ast)
        second_ast = parse(rendered)
        assert first_ast == second_ast

    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_formatting_is_idempotent(self, sql):
        once = format_statement(parse(sql))
        twice = format_statement(parse(once))
        assert once == twice


class TestExpressionFormatting:
    def test_string_literal_quotes_escaped(self):
        assert format_expression(parse_expression("'it''s'")) == "'it''s'"

    def test_null_true_false(self):
        assert format_expression(parse_expression("NULL")) == "NULL"
        assert format_expression(parse_expression("TRUE")) == "TRUE"
        assert format_expression(parse_expression("FALSE")) == "FALSE"

    def test_nested_boolean_parenthesized(self):
        rendered = format_expression(parse_expression("a = 1 AND (b = 2 OR c = 3)"))
        assert "(" in rendered and "OR" in rendered
        # Re-parsing keeps the same structure.
        assert parse_expression(rendered) == parse_expression("a = 1 AND (b = 2 OR c = 3)")

    def test_not_rendering(self):
        rendered = format_expression(parse_expression("NOT a = 1"))
        assert rendered.startswith("NOT (")

    def test_in_list_rendering(self):
        assert format_expression(parse_expression("x IN (1, 2)")) == "x IN (1, 2)"

    def test_between_rendering(self):
        assert (
            format_expression(parse_expression("x NOT BETWEEN 1 AND 2"))
            == "x NOT BETWEEN 1 AND 2"
        )

    def test_qualified_column_rendering(self):
        assert format_expression(parse_expression("T.temp")) == "T.temp"

    def test_function_rendering(self):
        assert format_expression(parse_expression("COUNT(DISTINCT a)")) == "COUNT(DISTINCT a)"

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            format_expression(object())

    def test_unsupported_statement_raises(self):
        with pytest.raises(TypeError):
            format_statement(object())
