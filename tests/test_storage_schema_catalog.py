"""Tests for table schemas and the catalog (including the schema-change log)."""

import pytest

from repro.errors import CatalogError, ExecutionError, SchemaError
from repro.storage import Database
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType


def make_schema(name="t"):
    return TableSchema(
        name=name,
        columns=[
            ColumnSchema("id", DataType.INTEGER, primary_key=True),
            ColumnSchema("name", DataType.TEXT, not_null=True),
            ColumnSchema("score", DataType.FLOAT),
        ],
    )


class TestTableSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                name="t",
                columns=[
                    ColumnSchema("a", DataType.TEXT),
                    ColumnSchema("A", DataType.TEXT),
                ],
            )

    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column("NAME").name == "name"
        assert schema.has_column("Score")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_schema().column("missing")

    def test_primary_key_property(self):
        assert make_schema().primary_key.name == "id"

    def test_coerce_row_fills_missing_with_null(self):
        row = make_schema().coerce_row({"id": 1, "name": "x"})
        assert row == (1, "x", None)

    def test_coerce_row_rejects_unknown_column(self):
        with pytest.raises(SchemaError):
            make_schema().coerce_row({"id": 1, "name": "x", "oops": 2})

    def test_coerce_row_enforces_not_null(self):
        with pytest.raises(SchemaError):
            make_schema().coerce_row({"id": 1})

    def test_coerce_row_coerces_types(self):
        row = make_schema().coerce_row({"id": "5", "name": "x", "score": "1.5"})
        assert row == (5, "x", 1.5)

    def test_with_column_added(self):
        schema = make_schema().with_column_added(ColumnSchema("extra", DataType.TEXT))
        assert schema.has_column("extra")

    def test_with_column_added_duplicate_raises(self):
        with pytest.raises(SchemaError):
            make_schema().with_column_added(ColumnSchema("id", DataType.TEXT))

    def test_with_column_dropped(self):
        schema = make_schema().with_column_dropped("score")
        assert not schema.has_column("score")

    def test_cannot_drop_last_column(self):
        schema = TableSchema(name="t", columns=[ColumnSchema("only", DataType.TEXT)])
        with pytest.raises(SchemaError):
            schema.with_column_dropped("only")

    def test_with_column_renamed(self):
        schema = make_schema().with_column_renamed("score", "points")
        assert schema.has_column("points") and not schema.has_column("score")

    def test_rename_to_existing_raises(self):
        with pytest.raises(SchemaError):
            make_schema().with_column_renamed("score", "name")

    def test_renamed_table(self):
        assert make_schema().renamed("other").name == "other"


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(make_schema(), timestamp=1.0)
        assert catalog.has_table("T")
        assert catalog.schema("t").name == "t"

    def test_duplicate_register_raises(self):
        catalog = Catalog()
        catalog.register(make_schema())
        with pytest.raises(CatalogError):
            catalog.register(make_schema())

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().schema("nope")

    def test_unregister(self):
        catalog = Catalog()
        catalog.register(make_schema())
        catalog.unregister("t")
        assert not catalog.has_table("t")

    def test_schema_columns_lowercased(self):
        catalog = Catalog()
        catalog.register(make_schema("MyTable"))
        columns = catalog.schema_columns()
        assert columns == {"mytable": {"id", "name", "score"}}
        # One map per catalog version, shared and read-only.
        assert catalog.schema_columns() is columns
        with pytest.raises(TypeError):
            columns["other"] = frozenset()
        with pytest.raises(TypeError):
            del columns["mytable"]
        assert isinstance(columns["mytable"], frozenset)

    def test_schema_columns_follow_every_change(self):
        catalog = Catalog()
        seen = [catalog.schema_columns()]

        def changed_to(expected):
            columns = catalog.schema_columns()
            assert columns == expected
            assert all(columns is not earlier for earlier in seen)
            seen.append(columns)

        catalog.register(make_schema("A"))
        changed_to({"a": {"id", "name", "score"}})
        catalog.replace_schema(
            "a", make_schema("A").with_column_renamed("Score", "Rank"), kind="rename_column"
        )
        changed_to({"a": {"id", "name", "rank"}})
        catalog.register(make_schema("b"))
        changed_to({"a": {"id", "name", "rank"}, "b": {"id", "name", "score"}})
        catalog.unregister("a")
        changed_to({"b": {"id", "name", "score"}})
        catalog.restore([make_schema("c")], [], version=catalog.version)
        changed_to({"c": {"id", "name", "score"}})

    def test_version_increments_on_every_change(self):
        catalog = Catalog()
        assert catalog.version == 0
        catalog.register(make_schema("a"))
        catalog.register(make_schema("b"))
        catalog.unregister("a")
        assert catalog.version == 3

    def test_change_log_records_kinds_and_timestamps(self):
        catalog = Catalog()
        catalog.register(make_schema("a"), timestamp=10.0)
        catalog.replace_schema(
            "a", make_schema("a").with_column_dropped("score"), kind="drop_column",
            detail="score", timestamp=20.0,
        )
        changes = catalog.changes()
        assert [change.kind for change in changes] == ["create_table", "drop_column"]
        assert changes[1].timestamp == 20.0

    def test_changes_since_version(self):
        catalog = Catalog()
        catalog.register(make_schema("a"))
        catalog.register(make_schema("b"))
        assert len(catalog.changes(since_version=1)) == 1

    def test_changes_for_table(self):
        catalog = Catalog()
        catalog.register(make_schema("a"), timestamp=1.0)
        catalog.register(make_schema("b"), timestamp=2.0)
        assert len(catalog.changes_for_table("a")) == 1
        assert catalog.last_change_timestamp("b") == 2.0
        assert catalog.last_change_timestamp("zzz") is None

    def test_replace_schema_rename_table(self):
        catalog = Catalog()
        catalog.register(make_schema("old"))
        catalog.replace_schema(
            "old", make_schema("old").renamed("new"), kind="rename_table", detail="old->new"
        )
        assert catalog.has_table("new")
        assert not catalog.has_table("old")


class TestDatabaseSchemaColumns:
    """``Database.schema_columns()`` is the catalog's one map per version:
    DDL of every kind builds a new one, anything else hands back the same."""

    @staticmethod
    def make_db():
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, name TEXT)")
        return db

    def test_database_hands_out_the_catalogs_map(self):
        db = self.make_db()
        assert db.schema_columns() is db.catalog.schema_columns()
        assert db.schema_columns() is db.schema_columns()
        assert db.schema_columns() == {"t": {"id", "name"}}

    @pytest.mark.parametrize(
        "sql, kind, expected",
        [
            ("CREATE TABLE U (Key INTEGER)", "create_table", {"t": {"id", "name"}, "u": {"key"}}),
            ("DROP TABLE t", "drop_table", {}),
            ("ALTER TABLE t ADD COLUMN Score REAL", "add_column", {"t": {"id", "name", "score"}}),
            ("ALTER TABLE t DROP COLUMN name", "drop_column", {"t": {"id"}}),
            ("ALTER TABLE t RENAME COLUMN name TO Label", "rename_column", {"t": {"id", "label"}}),
            ("ALTER TABLE t RENAME TO Renamed", "rename_table", {"renamed": {"id", "name"}}),
        ],
    )
    def test_every_ddl_kind_builds_a_new_map(self, sql, kind, expected):
        db = self.make_db()
        before = db.schema_columns()
        db.execute(sql)
        assert db.catalog.changes()[-1].kind == kind
        after = db.schema_columns()
        assert after is not before
        assert after == expected
        assert all(isinstance(columns, frozenset) for columns in after.values())
        # A map handed out earlier still describes its own version.
        assert before == {"t": {"id", "name"}}

    def test_statements_that_change_no_schema_keep_the_map(self):
        db = self.make_db()
        columns = db.schema_columns()
        for sql in (
            "INSERT INTO t VALUES (1, 'a')",
            "UPDATE t SET name = 'b' WHERE id = 1",
            "SELECT name FROM t WHERE id = 1",
            "CREATE INDEX t_id ON t (id)",
            "DELETE FROM t WHERE id = 1",
        ):
            db.execute(sql)
            assert db.schema_columns() is columns, sql

    @pytest.mark.parametrize(
        "sql",
        [
            "DROP TABLE missing",
            "CREATE TABLE t (other INTEGER)",
            "ALTER TABLE t ADD COLUMN name TEXT",
            "ALTER TABLE t RENAME COLUMN missing TO other",
        ],
    )
    def test_rejected_ddl_keeps_the_map(self, sql):
        db = self.make_db()
        columns = db.schema_columns()
        version = db.catalog.version
        with pytest.raises((CatalogError, ExecutionError, SchemaError)):
            db.execute(sql)
        assert db.catalog.version == version
        assert db.schema_columns() is columns

    def test_reopened_database_maps_the_recovered_schema(self, tmp_path):
        data_dir = str(tmp_path / "db")
        with Database.open(data_dir, wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER, name TEXT)")
            db.checkpoint()
            db.execute("ALTER TABLE t RENAME COLUMN name TO label")
            db.execute("CREATE TABLE u (key INTEGER)")
            expected = dict(db.schema_columns())
        with Database.open(data_dir) as db:
            assert db.last_recovery.snapshot_loaded
            assert db.schema_columns() == expected == {"t": {"id", "label"}, "u": {"key"}}
            db.execute("DROP TABLE u")
            assert db.schema_columns() == {"t": {"id", "label"}}
