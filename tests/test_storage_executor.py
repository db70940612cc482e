"""Tests for the SQL executor via the Database facade."""

import pytest

from repro.errors import CatalogError, ExecutionError, IntegrityError, SchemaError
from repro.storage.database import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE lakes (id INTEGER PRIMARY KEY, name TEXT, state TEXT, area FLOAT)"
    )
    database.execute(
        "CREATE TABLE readings (lake_id INTEGER, temp FLOAT, depth FLOAT, month INTEGER)"
    )
    database.execute(
        "INSERT INTO lakes (id, name, state, area) VALUES "
        "(1, 'Washington', 'WA', 87.6), (2, 'Union', 'WA', 2.3), "
        "(3, 'Michigan', 'MI', 58000.0), (4, 'Chelan', 'WA', 135.0)"
    )
    database.execute(
        "INSERT INTO readings (lake_id, temp, depth, month) VALUES "
        "(1, 15.0, 5.0, 6), (1, 17.5, 10.0, 7), (1, 12.0, 20.0, 8), "
        "(2, 20.0, 3.0, 6), (2, 22.5, 4.0, 7), "
        "(3, 9.0, 30.0, 6), (4, 11.0, 12.0, 7)"
    )
    return database


class TestSelectBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM lakes")
        assert len(result) == 4
        assert result.columns == ["id", "name", "state", "area"]

    def test_star_next_to_a_computed_item(self, db):
        """``*`` next to a computed item: the star's positions and the item's
        compiled closure make one projection."""
        result = db.execute("SELECT *, area + 1 FROM lakes WHERE id = 2")
        assert result.rows == [(2, "Union", "WA", 2.3, 3.3)]
        assert result.columns[:4] == ["id", "name", "state", "area"]

    def test_qualified_star_next_to_a_computed_item(self, db):
        result = db.execute(
            "SELECT r.*, l.id * 2 FROM lakes l JOIN readings r ON l.id = r.lake_id "
            "WHERE r.month = 8"
        )
        assert result.rows == [(1, 12.0, 20.0, 8, 2)]
        assert result.columns[:4] == ["lake_id", "temp", "depth", "month"]

    def test_projection_and_alias(self, db):
        result = db.execute("SELECT name AS lake, area FROM lakes WHERE id = 1")
        assert result.columns == ["lake", "area"]
        assert result.rows == [("Washington", 87.6)]

    def test_where_filters(self, db):
        result = db.execute("SELECT name FROM lakes WHERE state = 'WA' AND area > 50")
        assert {row[0] for row in result.rows} == {"Washington", "Chelan"}

    def test_expression_in_select_list(self, db):
        result = db.execute("SELECT area * 2 FROM lakes WHERE id = 2")
        assert result.scalar() == 4.6

    def test_order_by_asc_desc(self, db):
        ascending = db.execute("SELECT name FROM lakes ORDER BY area")
        descending = db.execute("SELECT name FROM lakes ORDER BY area DESC")
        assert ascending.column("name") == list(reversed(descending.column("name")))

    def test_order_by_alias(self, db):
        result = db.execute("SELECT name, area * 2 AS doubled FROM lakes ORDER BY doubled DESC")
        assert result.rows[0][0] == "Michigan"

    def test_limit_offset(self, db):
        result = db.execute("SELECT name FROM lakes ORDER BY name LIMIT 2 OFFSET 1")
        assert result.column("name") == ["Michigan", "Union"]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT state FROM lakes")
        assert sorted(result.column("state")) == ["MI", "WA"]

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2").scalar() == 3

    def test_like_predicate(self, db):
        result = db.execute("SELECT name FROM lakes WHERE name LIKE '%ington'")
        assert result.column("name") == ["Washington"]

    def test_in_list(self, db):
        result = db.execute("SELECT name FROM lakes WHERE id IN (1, 3)")
        assert set(result.column("name")) == {"Washington", "Michigan"}

    def test_between(self, db):
        result = db.execute("SELECT name FROM lakes WHERE area BETWEEN 2 AND 200")
        assert set(result.column("name")) == {"Washington", "Union", "Chelan"}

    def test_result_helpers(self, db):
        result = db.execute("SELECT id, name FROM lakes WHERE id = 1")
        assert result.as_dicts() == [{"id": 1, "name": "Washington"}]
        with pytest.raises(ExecutionError):
            result.column("missing")

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM nope")

    def test_ambiguous_column_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM lakes a, lakes b WHERE name = 'Union'")


class TestJoins:
    def test_comma_join_with_where(self, db):
        result = db.execute(
            "SELECT L.name, R.temp FROM lakes L, readings R WHERE L.id = R.lake_id AND R.temp < 12"
        )
        assert set(result.rows) == {("Michigan", 9.0), ("Chelan", 11.0)}

    def test_explicit_inner_join(self, db):
        result = db.execute(
            "SELECT L.name FROM lakes L JOIN readings R ON L.id = R.lake_id WHERE R.month = 8"
        )
        assert result.column("name") == ["Washington"]

    def test_left_join_keeps_unmatched(self, db):
        db.execute("INSERT INTO lakes (id, name, state, area) VALUES (9, 'Dry', 'NV', 0.1)")
        result = db.execute(
            "SELECT L.name, R.temp FROM lakes L LEFT JOIN readings R ON L.id = R.lake_id "
            "WHERE R.temp IS NULL"
        )
        assert result.column("name") == ["Dry"]

    def test_right_join_equivalent_to_swapped_left(self, db):
        left = db.execute(
            "SELECT L.name, R.temp FROM readings R RIGHT JOIN lakes L ON L.id = R.lake_id"
        )
        right = db.execute(
            "SELECT L.name, R.temp FROM lakes L LEFT JOIN readings R ON L.id = R.lake_id"
        )
        assert sorted(left.rows, key=str) == sorted(right.rows, key=str)

    def test_cross_join_cardinality(self, db):
        result = db.execute("SELECT * FROM lakes CROSS JOIN readings")
        assert len(result) == 4 * 7

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE states (code TEXT, region TEXT)")
        db.execute("INSERT INTO states VALUES ('WA', 'west'), ('MI', 'midwest')")
        result = db.execute(
            "SELECT DISTINCT S.region FROM lakes L, readings R, states S "
            "WHERE L.id = R.lake_id AND L.state = S.code AND R.temp < 12"
        )
        assert sorted(result.column("region")) == ["midwest", "west"]

    def test_self_join(self, db):
        result = db.execute(
            "SELECT a.name, b.name FROM lakes a, lakes b WHERE a.state = b.state AND a.id < b.id"
        )
        assert ("Washington", "Union") in result.rows

    def test_derived_table(self, db):
        result = db.execute(
            "SELECT big.name FROM (SELECT name, area FROM lakes WHERE area > 100) big"
        )
        assert set(result.column("name")) == {"Michigan", "Chelan"}


class TestAggregation:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM readings").scalar() == 7

    def test_aggregates_without_group_by(self, db):
        result = db.execute("SELECT MIN(temp), MAX(temp), AVG(depth) FROM readings")
        low, high, avg_depth = result.rows[0]
        assert low == 9.0 and high == 22.5
        assert abs(avg_depth - 12.0) < 0.01

    def test_group_by_with_having(self, db):
        result = db.execute(
            "SELECT lake_id, COUNT(*) AS n, AVG(temp) FROM readings "
            "GROUP BY lake_id HAVING COUNT(*) > 1 ORDER BY n DESC"
        )
        assert result.rows[0][0] == 1
        assert {row[0] for row in result.rows} == {1, 2}

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT state) FROM lakes").scalar() == 2

    def test_sum_ignores_nulls(self, db):
        db.execute("INSERT INTO readings (lake_id, temp, depth, month) VALUES (4, NULL, 1.0, 9)")
        assert db.execute("SELECT COUNT(temp) FROM readings").scalar() == 7

    def test_empty_group_aggregate(self, db):
        result = db.execute("SELECT COUNT(*), MAX(temp) FROM readings WHERE temp > 100")
        assert result.rows == [(0, None)]

    def test_group_by_join_result(self, db):
        result = db.execute(
            "SELECT L.state, COUNT(*) FROM lakes L, readings R WHERE L.id = R.lake_id "
            "GROUP BY L.state ORDER BY L.state"
        )
        assert result.rows == [("MI", 1), ("WA", 6)]

    def test_order_by_aggregate(self, db):
        result = db.execute(
            "SELECT lake_id, AVG(temp) a FROM readings GROUP BY lake_id ORDER BY a DESC LIMIT 1"
        )
        assert result.rows[0][0] == 2

    def test_arithmetic_over_aggregates(self, db):
        value = db.execute("SELECT MAX(temp) - MIN(temp) FROM readings").scalar()
        assert value == 13.5


class TestSubqueries:
    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT name FROM lakes WHERE id IN (SELECT lake_id FROM readings WHERE temp > 20)"
        )
        assert result.column("name") == ["Union"]

    def test_not_in_subquery(self, db):
        result = db.execute(
            "SELECT name FROM lakes WHERE id NOT IN (SELECT lake_id FROM readings)"
        )
        assert result.rows == []

    def test_correlated_exists(self, db):
        result = db.execute(
            "SELECT name FROM lakes WHERE EXISTS "
            "(SELECT 1 FROM readings R WHERE R.lake_id = lakes.id AND R.depth > 25)"
        )
        assert result.column("name") == ["Michigan"]

    def test_scalar_subquery_in_select(self, db):
        result = db.execute(
            "SELECT name, (SELECT MAX(temp) FROM readings R WHERE R.lake_id = lakes.id) m "
            "FROM lakes ORDER BY m DESC LIMIT 1"
        )
        assert result.rows[0] == ("Union", 22.5)

    def test_scalar_subquery_comparison(self, db):
        result = db.execute(
            "SELECT name FROM lakes WHERE area > (SELECT AVG(area) FROM lakes)"
        )
        assert result.column("name") == ["Michigan"]


class TestDmlAndDdl:
    def test_insert_select(self, db):
        db.execute("CREATE TABLE wa_lakes (id INTEGER, name TEXT)")
        count = db.execute(
            "INSERT INTO wa_lakes (id, name) SELECT id, name FROM lakes WHERE state = 'WA'"
        ).rowcount
        assert count == 3
        assert len(db.execute("SELECT * FROM wa_lakes")) == 3

    def test_update_with_expression(self, db):
        updated = db.execute("UPDATE lakes SET area = area + 1 WHERE state = 'WA'").rowcount
        assert updated == 3
        assert db.execute("SELECT area FROM lakes WHERE id = 2").scalar() == 3.3

    def test_delete_with_subquery(self, db):
        db.execute(
            "DELETE FROM readings WHERE lake_id IN (SELECT id FROM lakes WHERE state = 'MI')"
        )
        assert db.execute("SELECT COUNT(*) FROM readings").scalar() == 6

    def test_insert_wrong_arity_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO lakes (id, name) VALUES (10)")

    def test_insert_select_wrong_arity_raises(self, db):
        # Regression: a SELECT wider or narrower than the target column list
        # must fail loudly instead of silently dropping / NULL-filling values.
        db.execute("CREATE TABLE wa_lakes (id INTEGER, name TEXT)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO wa_lakes (id, name) SELECT id, name, state FROM lakes")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO wa_lakes SELECT id FROM lakes")
        assert len(db.execute("SELECT * FROM wa_lakes")) == 0

    @pytest.mark.parametrize(
        "statement, error",
        [
            (  # duplicate of an earlier row of the same statement
                "INSERT INTO lakes VALUES (10, 'a', 'OR', 1.0), (11, 'b', 'OR', 2.0), "
                "(10, 'dup', 'OR', 3.0)",
                IntegrityError,
            ),
            (  # duplicate of a stored row, after two good ones
                "INSERT INTO lakes VALUES (10, 'a', 'OR', 1.0), (11, 'b', 'OR', 2.0), "
                "(1, 'dup', 'OR', 3.0)",
                IntegrityError,
            ),
            ("INSERT INTO lakes VALUES (10, 'a', 'OR', 1.0), ('oops', 'b', 'OR', 2.0)", SchemaError),
            ("INSERT INTO lakes VALUES (10, 'a', 'OR', 1.0), (11, 'b', 'OR')", ExecutionError),
            (  # INSERT ... SELECT whose third source row (6, 5, 4) collides with lakes.id = 4
                "INSERT INTO lakes (id, name) SELECT month - 2, 'copy' FROM readings "
                "WHERE lake_id = 1 ORDER BY month DESC",
                IntegrityError,
            ),
        ],
    )
    def test_failed_multi_row_insert_applies_no_row(self, db, statement, error):
        """One statement, one batch: the rows before the rejected one do not stay."""
        table = db.table("lakes")
        before = (len(table), table.page_count, table.next_row_id, table.version)
        with pytest.raises(error):
            db.execute(statement)
        assert (len(table), table.page_count, table.next_row_id, table.version) == before
        assert db.execute("SELECT COUNT(*) FROM lakes WHERE state = 'OR'").scalar() == 0
        assert db.execute("SELECT name FROM lakes WHERE id = 1").scalar() == "Washington"
        assert table.lookup("id", 10) == [] and table.lookup("id", 3)[0][1] == "Michigan"
        # The rejected keys are free again.
        assert db.execute("INSERT INTO lakes VALUES (10, 'a', 'OR', 1.0), (11, 'b', 'OR', 2.0)").rowcount == 2

    def test_failed_insert_rows_applies_no_row(self, db):
        with pytest.raises(SchemaError):
            db.insert_rows("lakes", [{"id": 5}, {"id": "oops"}])
        with pytest.raises(IntegrityError):
            db.insert_rows("lakes", ({"id": i} for i in (5, 6, 5)))
        assert len(db.table("lakes")) == 4 and db.table("lakes").lookup("id", 5) == []
        assert db.insert_rows("lakes", ({"id": i} for i in (5, 6))) == 2
        assert db.insert_rows("lakes", []) == 0

    def test_create_table_if_not_exists_is_idempotent(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS lakes (id INTEGER)")
        assert len(db.execute("SELECT * FROM lakes")) == 4

    def test_duplicate_create_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE lakes (id INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE readings")
        assert not db.has_table("readings")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM readings")

    def test_drop_if_exists_missing_ok(self, db):
        db.execute("DROP TABLE IF EXISTS nothing_here")

    def test_alter_add_and_drop_column(self, db):
        db.execute("ALTER TABLE lakes ADD COLUMN trophic TEXT")
        assert db.execute("SELECT trophic FROM lakes WHERE id = 1").scalar() is None
        db.execute("ALTER TABLE lakes DROP COLUMN trophic")
        with pytest.raises(ExecutionError):
            db.execute("SELECT trophic FROM lakes")

    def test_alter_rename_column_and_table(self, db):
        db.execute("ALTER TABLE readings RENAME COLUMN temp TO temperature")
        assert db.execute("SELECT MAX(temperature) FROM readings").scalar() == 22.5
        db.execute("ALTER TABLE readings RENAME TO measurements")
        assert db.has_table("measurements") and not db.has_table("readings")

    def test_create_index_statement(self, db):
        db.execute("CREATE INDEX idx_state ON lakes (state)")
        assert db.table("lakes").index_for("state") is not None

    def test_catalog_changes_recorded_for_ddl(self, db):
        before = db.catalog.version
        db.execute("ALTER TABLE lakes RENAME COLUMN area TO surface")
        assert db.catalog.version == before + 1
        assert db.catalog.changes()[-1].kind == "rename_column"


class TestExecutionStats:
    def test_select_stats_populated(self, db):
        result = db.execute("SELECT * FROM lakes WHERE state = 'WA'")
        assert result.stats.statement_kind == "select"
        assert result.stats.result_cardinality == 3
        assert result.stats.rows_scanned >= 4
        assert result.stats.elapsed_seconds >= 0.0

    def test_join_stats_count_joined_rows(self, db):
        result = db.execute(
            "SELECT * FROM lakes L, readings R WHERE L.id = R.lake_id"
        )
        assert result.stats.rows_joined >= 7

    def test_insert_stats(self, db):
        result = db.execute("INSERT INTO lakes (id, name, state, area) VALUES (99, 'X', 'OR', 1.0)")
        assert result.stats.statement_kind == "insert"
        assert result.rowcount == 1
        assert result.stats.result_cardinality == 1
        # A VALUES insert reads nothing.
        assert result.stats.rows_scanned == 0
        assert result.stats.index_lookups == 0

    def test_insert_select_stats_charge_the_source_read(self, db):
        db.execute("CREATE TABLE ids (id INTEGER)")
        result = db.execute("INSERT INTO ids (id) SELECT id FROM lakes WHERE id = 1")
        assert result.stats.statement_kind == "insert"
        assert result.stats.result_cardinality == 1
        # The id = 1 probe goes through the lakes primary-key index.
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 1

    def test_update_stats_full_scan(self, db):
        result = db.execute("UPDATE readings SET depth = depth + 1 WHERE month = 7")
        assert result.stats.statement_kind == "update"
        assert result.stats.result_cardinality == 3
        # month is unindexed: every heap row is scanned, no index lookups.
        assert result.stats.rows_scanned == 7
        assert result.stats.index_lookups == 0

    def test_update_stats_indexed_probe(self, db):
        result = db.execute("UPDATE lakes SET area = 0.0 WHERE id = 3")
        assert result.rowcount == 1
        assert result.stats.index_lookups == 1
        # The primary-key probe touches only the matching row, not the heap.
        assert result.stats.rows_scanned == 1

    def test_delete_stats_indexed_probe(self, db):
        result = db.execute("DELETE FROM lakes WHERE id = 4")
        assert result.rowcount == 1
        assert result.stats.statement_kind == "delete"
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 1

    def test_delete_stats_full_scan(self, db):
        result = db.execute("DELETE FROM readings WHERE temp > 100")
        assert result.rowcount == 0
        assert result.stats.rows_scanned == 7
        assert result.stats.index_lookups == 0
