"""Golden-corpus tests for the SQL semantic linter.

Every rule has at least one firing and one non-firing fixture, run against
the real limnology schema (so index- and type-aware rules exercise genuine
catalog metadata).
"""

import pytest

from repro.analysis.framework import Severity
from repro.analysis.sql_lint import SchemaView, SqlLinter
from repro.workloads.schemas import build_database


@pytest.fixture(scope="module")
def linter():
    database = build_database("limnology")
    return SqlLinter(SchemaView.from_database(database))


@pytest.fixture(scope="module")
def names_only_linter():
    """A linter with only table/column names (the Query Storage's view)."""
    database = build_database("limnology")
    return SqlLinter(SchemaView(schema_columns=database.schema_columns()))


def rules_of(linter, sql):
    return {diagnostic.rule for diagnostic in linter.lint_sql(sql)}


# Each entry: (rule, firing SQL, non-firing SQL)
GOLDEN = [
    (
        "unknown-table",
        "SELECT * FROM Rivers",
        "SELECT * FROM Lakes",
    ),
    (
        "duplicate-table",
        "SELECT * FROM Lakes, Lakes",
        "SELECT A.name FROM Lakes A, Lakes B WHERE A.lake_id = B.lake_id",
    ),
    (
        "unknown-column",
        "SELECT T.wetness FROM WaterTemp T",
        "SELECT T.temp FROM WaterTemp T",
    ),
    (
        "ambiguous-column",
        "SELECT depth FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x",
        "SELECT T.depth FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x",
    ),
    (
        "cartesian-join",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T WHERE T.temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
        "WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
    ),
    (
        "aggregate-misuse",
        "SELECT name FROM Lakes WHERE COUNT(*) > 3",
        "SELECT state, COUNT(*) FROM Lakes GROUP BY state HAVING COUNT(*) > 3",
    ),
    (
        "ungrouped-column",
        "SELECT state, name, COUNT(*) FROM Lakes GROUP BY state",
        "SELECT state, COUNT(*) FROM Lakes GROUP BY state",
    ),
    (
        "type-mismatch",
        "SELECT name FROM Lakes WHERE area_km2 > 'large'",
        "SELECT name FROM Lakes WHERE area_km2 > 100",
    ),
    (
        "non-sargable",
        "SELECT name FROM Lakes WHERE ABS(lake_id) = 7",
        "SELECT name FROM Lakes WHERE lake_id = 7",
    ),
    (
        "constant-predicate",
        "SELECT name FROM Lakes WHERE 1 = 1",
        "SELECT name FROM Lakes WHERE state = 'WA'",
    ),
    (
        "select-star",
        "SELECT * FROM Lakes",
        "SELECT name, state FROM Lakes",
    ),
    (
        "parse-error",
        "SELEC name FROM Lakes",
        "SELECT name FROM Lakes",
    ),
]


@pytest.mark.parametrize(
    "rule,firing,clean", GOLDEN, ids=[entry[0] for entry in GOLDEN]
)
def test_golden_fixture(linter, rule, firing, clean):
    assert rule in rules_of(linter, firing)
    assert rule not in rules_of(linter, clean)


def test_between_bounds_are_type_checked(linter):
    """``BETWEEN`` has its own typed check: either bound can clash."""
    for firing in (
        "SELECT name FROM Lakes WHERE area_km2 BETWEEN 'small' AND 'large'",
        "SELECT name FROM Lakes WHERE area_km2 BETWEEN 10 AND 'large'",
    ):
        assert "type-mismatch" in rules_of(linter, firing)
    assert "type-mismatch" not in rules_of(
        linter, "SELECT name FROM Lakes WHERE area_km2 BETWEEN 10 AND 100"
    )


class TestSeverities:
    def test_hard_errors_are_error_severity(self, linter):
        for sql in (
            "SELECT * FROM Rivers",
            "SELECT T.wetness FROM WaterTemp T",
            "SELECT a.name, b.city FROM Lakes a, CityLocations b",
        ):
            severities = {d.severity for d in linter.lint_sql(sql) if d.rule != "select-star"}
            assert Severity.ERROR in severities

    def test_style_rules_never_error(self, linter):
        diagnostics = linter.lint_sql(
            "SELECT * FROM Lakes WHERE 1 = 1 AND ABS(lake_id) = 3 AND name = 5"
        )
        assert diagnostics
        assert all(d.severity is not Severity.ERROR for d in diagnostics)


class TestDmlAndSubqueries:
    def test_update_unknown_column(self, linter):
        assert "unknown-column" in rules_of(
            linter, "UPDATE Lakes SET wetness = 1 WHERE lake_id = 3"
        )

    def test_update_clean(self, linter):
        assert rules_of(linter, "UPDATE Lakes SET state = 'WA' WHERE lake_id = 3") == set()

    def test_delete_unknown_table(self, linter):
        assert "unknown-table" in rules_of(linter, "DELETE FROM Rivers WHERE x = 1")

    def test_insert_unknown_column(self, linter):
        assert "unknown-column" in rules_of(
            linter, "INSERT INTO Lakes (lake_id, wetness) VALUES (1, 2)"
        )

    def test_subquery_columns_resolve(self, linter):
        assert rules_of(
            linter, "SELECT x.name FROM (SELECT name FROM Lakes) x"
        ) == set()

    def test_subquery_unknown_output_column(self, linter):
        assert "unknown-column" in rules_of(
            linter, "SELECT x.volume FROM (SELECT name FROM Lakes) x"
        )

    def test_correlated_subquery_outer_reference(self, linter):
        sql = (
            "SELECT name FROM Lakes L WHERE EXISTS "
            "(SELECT 1 FROM Sensors S WHERE S.lake_id = L.lake_id)"
        )
        assert rules_of(linter, sql) == set()

    def test_in_subquery_body_is_linted(self, linter):
        sql = "SELECT name FROM Lakes WHERE lake_id IN (SELECT bogus FROM Sensors)"
        assert "unknown-column" in rules_of(linter, sql)


class TestNamesOnlyView:
    """Without a catalog the type/index rules stand down but name checks hold."""

    def test_unknown_column_still_fires(self, names_only_linter):
        assert "unknown-column" in rules_of(
            names_only_linter, "SELECT T.wetness FROM WaterTemp T"
        )

    def test_type_rules_stand_down(self, names_only_linter):
        assert rules_of(
            names_only_linter, "SELECT name FROM Lakes WHERE area_km2 > 'large'"
        ) == set()

    def test_sargability_stands_down(self, names_only_linter):
        assert rules_of(
            names_only_linter, "SELECT name FROM Lakes WHERE ABS(lake_id) = 7"
        ) == set()
