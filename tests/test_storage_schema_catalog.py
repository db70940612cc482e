"""Tests for table schemas and the catalog (including the schema-change log)."""

import pytest

from repro.errors import CatalogError, SchemaError
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
