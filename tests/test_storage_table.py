"""Tests for heap tables, indexes, and table-level schema evolution."""

import pytest

from repro.errors import IntegrityError, SchemaError
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType


def make_table():
    return Table(
        TableSchema(
            name="lakes",
            columns=[
                ColumnSchema("id", DataType.INTEGER, primary_key=True),
                ColumnSchema("name", DataType.TEXT, unique=True),
                ColumnSchema("state", DataType.TEXT),
                ColumnSchema("area", DataType.FLOAT),
            ],
        )
    )


def seed(table):
    table.insert({"id": 1, "name": "Washington", "state": "WA", "area": 87.6})
    table.insert({"id": 2, "name": "Union", "state": "WA", "area": 2.3})
    table.insert({"id": 3, "name": "Michigan", "state": "MI", "area": 58000.0})
    return table


def named(table, rows):
    """Stored row tuples keyed by column name."""
    return [table.schema.as_dict(row) for row in rows]


def row_id_of(table, lake_id):
    return next(rid for rid, row in table.scan() if row[0] == lake_id)


def fingerprint(table):
    """Everything a failed mutation must leave as it was."""
    rows = [(row_id, table.schema.as_dict(row)) for row_id, row in table.scan()]
    return {
        "rows": rows,
        "len": len(table),
        "pages": table.page_count,
        "next": table.next_row_id,
        "version": table.version,
        "indexes": {
            (index.column, index.kind): {
                row[index.column]: sorted(index.lookup(row[index.column])) for _, row in rows
            }
            | {"distinct": index.distinct_values()}
            for index in table.index_definitions()
        },
    }


class TestInsertDeleteUpdate:
    def test_insert_returns_increasing_row_ids(self):
        table = make_table()
        first = table.insert({"id": 1, "name": "a", "state": "WA", "area": 1.0})
        second = table.insert({"id": 2, "name": "b", "state": "WA", "area": 1.0})
        assert second == first + 1
        assert len(table) == 2

    def test_primary_key_uniqueness_enforced(self):
        table = seed(make_table())
        with pytest.raises(IntegrityError):
            table.insert({"id": 1, "name": "dup", "state": "WA", "area": 1.0})

    def test_unique_column_enforced(self):
        table = seed(make_table())
        with pytest.raises(IntegrityError):
            table.insert({"id": 9, "name": "Union", "state": "OR", "area": 1.0})

    def test_failed_insert_leaves_table_unchanged(self):
        table = seed(make_table())
        before = len(table)
        with pytest.raises(IntegrityError):
            table.insert({"id": 1, "name": "x", "state": "WA", "area": 1.0})
        assert len(table) == before

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ({"id": 1, "name": "x", "state": "WA", "area": 1.0}, IntegrityError),  # in the table
            ({"id": 11, "name": "x", "state": "WA", "area": 1.0}, IntegrityError),  # in the batch
            ({"id": 99, "name": "m", "state": "WA", "area": 1.0}, IntegrityError),  # unique, later in it
            ({"id": None, "name": "x", "state": "WA", "area": 1.0}, SchemaError),  # NOT NULL
            ({"id": 99, "name": "x", "oops": 1}, SchemaError),  # unknown column
            ({"id": 99, "name": "x", "area": "oops"}, SchemaError),  # not coercible
        ],
    )
    def test_failed_batch_leaves_table_unchanged(self, bad_row, error):
        """A batch is one unit: row k failing leaves no row 0..k-1 behind."""
        table = seed(Table(make_table().schema, page_slots=4))
        table.create_index("lakes_state", "state")
        table.create_index("lakes_area", "area")
        good = [
            {"id": 10 + i, "name": chr(ord("i") + i), "state": "OR", "area": float(i)}
            for i in range(6)  # with the 3 seeded rows: crosses two page boundaries
        ]
        before = fingerprint(table)
        with pytest.raises(error):
            table.insert_many(good[:3] + [bad_row] + good[3:])
        assert fingerprint(table) == before
        assert table.lookup("state", "OR") == [] and table.lookup("id", 10) == []
        # The keys of the rejected batch are free and the row ids unspent.
        assert list(table.insert_many(good)) == list(range(before["next"], before["next"] + 6))
        assert len(table) == before["len"] + 6

    def test_unloggable_batch_is_rolled_back_across_pages(self):
        table = seed(Table(make_table().schema, page_slots=4))
        table.create_index("lakes_area", "area")
        logged = []
        table.wal_emit = logged.append
        batch = [
            {"id": 10 + i, "name": f"n{i}", "state": "OR", "area": float(i)} for i in range(10)
        ]
        before = fingerprint(table)

        def boom(record):
            raise OSError("disk full")

        table.wal_emit = boom
        with pytest.raises(OSError):
            table.insert_many(batch)
        assert fingerprint(table) == before  # pages allocated for the batch are freed too
        table.wal_emit = logged.append
        assert table.insert_many(batch) == range(before["next"], before["next"] + 10)
        (record,) = logged  # one frame for the batch: the column list once, rows as arrays
        assert (record["op"], record["rid"]) == ("insert_many", before["next"])
        assert record["cols"] == ["id", "name", "state", "area"]
        assert list(record["rows"][0]) == [10, "n0", "OR", 0.0] and len(record["rows"]) == 10
        assert table.page_count == 4 and table.version == before["version"] + 10

    def test_insert_many_of_nothing_is_a_no_op(self):
        table = seed(make_table())
        table.wal_emit = lambda record: pytest.fail("an empty batch is not logged")
        before = fingerprint(table)
        assert len(table.insert_many([])) == 0
        assert fingerprint(table) == before

    def test_insert_many_resolves_each_key_spelling(self):
        """Rows of one batch may spell, order and omit columns differently."""
        table = make_table()
        table.insert_many(
            [
                {"id": 1, "name": "a", "state": "WA", "area": 1.0},
                {"AREA": "2.5", "ID": "2", "Name": "b"},
                {"id": 3},
                {"name": "d", "id": 4.0, "state": None, "area": 4},
            ]
        )
        assert table.rows() == [
            (1, "a", "WA", 1.0),
            (2, "b", None, 2.5),
            (3, None, None, None),
            (4, "d", None, 4.0),
        ]
        assert all(type(row[3]) in (float, type(None)) for row in table.rows())

    def test_delete_removes_row_and_index_entry(self):
        table = seed(make_table())
        row_id = row_id_of(table, 2)
        table.delete(row_id)
        assert len(table) == 2
        assert table.lookup("id", 2) == []

    def test_update_changes_values_and_indexes(self):
        table = seed(make_table())
        row_id = row_id_of(table, 2)
        table.update(row_id, {"name": "Lake Union", "area": 3.5})
        assert table.lookup("name", "Lake Union") == [(2, "Lake Union", "WA", 3.5)]
        assert table.lookup("name", "Union") == []

    def test_update_unique_violation_restores_index(self):
        table = seed(make_table())
        row_id = row_id_of(table, 2)
        with pytest.raises(IntegrityError):
            table.update(row_id, {"name": "Washington"})
        # The old value is still findable after the failed update.
        assert table.lookup("name", "Union")[0][0] == 2

    def test_failed_update_rolls_back_earlier_indexes(self):
        # Two unique columns: the first (id, the primary key) accepts its new
        # value, then the second (name) raises — the first index must be
        # restored, not left pointing at the never-committed value.
        table = seed(make_table())
        row_id = row_id_of(table, 2)
        with pytest.raises(IntegrityError):
            table.update(row_id, {"id": 99, "name": "Washington"})
        assert table.lookup("id", 2)[0][1] == "Union"
        assert table.lookup("id", 99) == []
        assert table.lookup("name", "Union")[0][0] == 2
        # A re-insert of the rejected id must not hit a phantom index entry.
        table.insert({"id": 99, "name": "New", "state": "OR", "area": 1.0})

    def test_insert_coerces_types(self):
        table = make_table()
        table.insert({"id": "5", "name": "x", "state": "WA", "area": "2.5"})
        assert table.lookup("id", 5) == [(5, "x", "WA", 2.5)]

    def test_insert_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_table().insert({"id": 1, "nope": "x"})


class TestIndexes:
    def test_secondary_index_lookup(self):
        table = seed(make_table())
        index = table.create_index("by_state", "state")
        assert index.distinct_values() == 2
        assert {row["name"] for row in named(table, table.lookup("state", "WA"))} == {
            "Washington",
            "Union",
        }

    def test_lookup_without_index_scans(self):
        table = seed(make_table())
        assert len(table.lookup("area", 2.3)) == 1

    def test_create_index_on_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_table().create_index("bad", "nope")

    def test_index_created_after_inserts_backfills(self):
        table = seed(make_table())
        index = table.create_index("by_state", "state")
        assert index.lookup("MI")

    def test_nulls_not_indexed(self):
        table = make_table()
        table.create_index("by_state", "state")
        table.insert({"id": 10, "name": "n", "state": None, "area": 1.0})
        assert table.index_for("state").lookup(None) == set()

    def test_create_index_is_idempotent_for_matching_request(self):
        table = seed(make_table())
        first = table.create_index("by_state", "state")
        assert table.create_index("other_name", "state") is first

    def test_create_index_uniqueness_conflict_raises(self):
        # A unique index must never be silently satisfied by an existing
        # non-unique one (or vice versa).
        table = seed(make_table())
        table.create_index("by_state", "state", unique=False)
        with pytest.raises(SchemaError):
            table.create_index("by_state_unique", "state", unique=True)
        with pytest.raises(SchemaError):
            table.create_index("pk_again", "id", unique=False)

    @pytest.mark.parametrize("kind", ["rtree", "sorted", "btree"])
    def test_unknown_index_kind_raises(self, kind):
        table = make_table()
        with pytest.raises(SchemaError, match="expected 'hash'"):
            table.create_index("weird", "state", kind=kind)
        assert table.index_for("state") is None

    def test_index_is_maintained_through_mutations(self):
        table = seed(make_table())
        index = table.create_index("area_hash", "area")
        assert table.index_for("area") is index
        table.insert({"id": 7, "name": "Tahoe", "state": "CA", "area": 191.0})
        assert index.lookup(191.0)
        row_id = row_id_of(table, 7)
        table.update(row_id, {"area": 192.0})
        assert not index.lookup(191.0)
        assert index.lookup(192.0)
        table.delete(row_id)
        assert not index.lookup(192.0)

    def test_index_backfills_existing_rows(self):
        table = seed(make_table())
        index = table.create_index("area_hash", "area")
        assert index.distinct_values() == 3

    def test_rename_column_moves_the_index(self):
        table = seed(make_table())
        table.create_index("area_hash", "area")
        table.rename_column("area", "surface")
        assert table.index_for("surface") is not None
        assert table.index_for("surface").column == "surface"
        assert table.index_for("area") is None


class TestSchemaEvolution:
    def test_add_column_fills_nulls(self):
        table = seed(make_table())
        table.add_column(ColumnSchema("depth", DataType.FLOAT))
        assert all(row["depth"] is None for row in named(table, table.rows()))

    def test_add_column_with_default(self):
        table = seed(make_table())
        table.add_column(ColumnSchema("kind", DataType.TEXT), default="freshwater")
        assert all(row["kind"] == "freshwater" for row in named(table, table.rows()))

    def test_add_not_null_column_without_default_raises(self):
        table = seed(make_table())
        with pytest.raises(SchemaError):
            table.add_column(ColumnSchema("kind", DataType.TEXT, not_null=True))

    def test_drop_column(self):
        table = seed(make_table())
        table.drop_column("area")
        assert table.rows()[0] == (1, "Washington", "WA")
        assert not table.schema.has_column("area")

    def test_rename_column_moves_data_and_index(self):
        table = seed(make_table())
        table.rename_column("name", "lake_name")
        assert named(table, table.lookup("lake_name", "Union"))[0]["id"] == 2
        with pytest.raises(SchemaError):
            table.schema.column("name")

    def test_rename_table(self):
        table = make_table()
        table.rename("water_bodies")
        assert table.name == "water_bodies"


class TestStatistics:
    def test_statistics_cached_until_mutation(self):
        table = seed(make_table())
        first = table.statistics()
        assert table.statistics() is first
        table.insert({"id": 9, "name": "new", "state": "OR", "area": 4.0})
        assert table.statistics() is not first

    def test_statistics_row_count(self):
        assert seed(make_table()).statistics().row_count == 3
