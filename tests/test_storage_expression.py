"""Tests for expression evaluation (scopes, NULL semantics, operators)."""

import pytest

from repro.errors import ExecutionError
from repro.sql.parser import parse
from repro.storage.binder import Binder
from repro.storage.expression import Scope, evaluate, is_true, layout_of

#: The tables expressions are bound against: ``t`` and ``s`` both have ``a``.
SCHEMA = {"t": ["a", "b", "name", "flag"], "s": ["x", "a"], "u": ["y"]}
BINDER = Binder(lambda name: [(column, None) for column in SCHEMA[name.lower()]])

#: The one row of ``FROM t, s`` every expression is evaluated on.
ROW_SCOPE = Scope(
    layout_of([("t", SCHEMA["t"]), ("s", SCHEMA["s"])]),
    (5, None, "Lake Washington", True, 2.5, 7),
)


def bound(sql):
    """``sql`` with every column reference bound against :data:`SCHEMA`."""
    return BINDER.select(parse(sql))


def run(expression, scope=ROW_SCOPE):
    return evaluate(bound(f"SELECT {expression} FROM t, s").select_items[0].expression, scope)


class TestColumnResolution:
    def test_qualified_lookup(self):
        assert run("t.a") == 5
        assert run("s.a") == 7

    def test_unqualified_unambiguous_lookup(self):
        assert run("x") == 2.5

    def test_unqualified_ambiguous_raises(self):
        with pytest.raises(ExecutionError):
            run("a")

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError):
            run("t.zzz")

    def test_unknown_alias_raises(self):
        with pytest.raises(ExecutionError):
            run("z.a")

    def test_parent_scope_lookup(self):
        statement = bound("SELECT 1 FROM t, s WHERE EXISTS (SELECT t.a, y FROM u)")
        outer_ref, inner_ref = (
            item.expression for item in statement.where.subquery.select_items
        )
        child = Scope(layout_of([("u", SCHEMA["u"])]), (1,), parent=ROW_SCOPE)
        assert evaluate(outer_ref, child) == 5
        assert evaluate(inner_ref, child) == 1

    def test_extras_used_for_aliases(self):
        statement = bound("SELECT 42 AS total FROM t, s ORDER BY total")
        output = statement.order_by[0].expression.output
        assert evaluate(statement.select_items[output].expression, ROW_SCOPE) == 42

    def test_case_insensitive_column_names(self):
        assert run("T.A") == 5


class TestComparisonAndLogic:
    def test_comparisons(self):
        assert run("t.a = 5") is True
        assert run("t.a < 3") is False
        assert run("t.a >= 5") is True
        assert run("t.a <> 6") is True

    def test_null_comparison_is_unknown(self):
        assert run("t.b = 1") is None
        assert run("t.b < 1") is None

    def test_is_null(self):
        assert run("t.b IS NULL") is True
        assert run("t.a IS NULL") is False
        assert run("t.a IS NOT NULL") is True

    def test_and_or_three_valued(self):
        assert run("t.a = 5 AND t.b = 1") is None
        assert run("t.a = 1 AND t.b = 1") is False
        assert run("t.a = 5 OR t.b = 1") is True
        assert run("t.a = 1 OR t.b = 1") is None

    def test_not_of_null_is_null(self):
        assert run("NOT t.b = 1") is None

    def test_is_true_only_for_true(self):
        assert is_true(True)
        assert not is_true(None)
        assert not is_true(False)
        assert not is_true(1)

    def test_between(self):
        assert run("t.a BETWEEN 1 AND 10") is True
        assert run("t.a NOT BETWEEN 1 AND 10") is False
        assert run("t.b BETWEEN 1 AND 10") is None

    def test_in_list(self):
        assert run("t.a IN (1, 5, 9)") is True
        assert run("t.a NOT IN (1, 5, 9)") is False
        assert run("t.a IN (1, 2)") is False

    def test_in_list_with_null_member_unknown_when_absent(self):
        assert run("t.a IN (1, NULL)") is None

    def test_like(self):
        assert run("t.name LIKE 'Lake%'") is True
        assert run("t.name LIKE '%washington'") is True  # case-insensitive
        assert run("t.name LIKE 'Lake _______ton'") is True
        assert run("t.name LIKE 'Ocean%'") is False


class TestArithmeticAndFunctions:
    def test_arithmetic(self):
        assert run("t.a + 1") == 6
        assert run("t.a * 2") == 10
        assert run("t.a - 10") == -5
        assert run("t.a / 2") == 2.5
        assert run("t.a % 2") == 1

    def test_arithmetic_with_null_propagates(self):
        assert run("t.b + 1") is None

    def test_division_by_zero_is_null(self):
        assert run("t.a / 0") is None

    def test_arithmetic_on_text_raises(self):
        with pytest.raises(ExecutionError):
            run("t.name + 1")

    def test_unary_minus(self):
        assert run("-t.a") == -5

    def test_string_concatenation(self):
        assert run("t.name || '!'") == "Lake Washington!"

    def test_scalar_functions(self):
        assert run("LOWER(t.name)") == "lake washington"
        assert run("UPPER('x')") == "X"
        assert run("LENGTH(t.name)") == 15
        assert run("ABS(-3)") == 3
        assert run("COALESCE(t.b, t.a, 1)") == 5
        assert run("ROUND(2.7)") == 3

    def test_cast(self):
        assert run("CAST('5' AS INTEGER)") == 5
        assert run("CAST(t.a AS TEXT)") == "5"
        assert run("CAST(1 AS BOOLEAN)") is True

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            run("FROBNICATE(1)")

    def test_case_expression(self):
        assert run("CASE WHEN t.a > 3 THEN 'big' ELSE 'small' END") == "big"
        assert run("CASE WHEN t.a > 9 THEN 'big' END") is None

    def test_aggregate_outside_group_context_raises(self):
        with pytest.raises(ExecutionError):
            run("COUNT(t.a)")

    def test_subquery_without_runner_raises(self):
        with pytest.raises(ExecutionError):
            run("EXISTS (SELECT 1 FROM t)")
