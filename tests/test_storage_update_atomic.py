"""An UPDATE statement is all or nothing: one refused at its n-th row — a
unique index, a value the column cannot hold — leaves every row, every
index entry and the write-ahead log as they were before it, as stdlib
``sqlite3`` rolls the statement back."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.errors import ReproError
from repro.storage import Database

SCHEMA = "CREATE TABLE a (k INTEGER, u INTEGER UNIQUE)"
ROWS = "INSERT INTO a VALUES (1, 1), (2, 6), (3, 7), (4, 8)"
BEFORE = [(1, 1), (2, 6), (3, 7), (4, 8)]

#: Each is refused after at least one row of it was accepted.
REFUSED = {
    # (2, 6) takes 100 first; (3, 7) then collides with it.
    "unique_against_an_earlier_row": "UPDATE a SET u = 100 WHERE u > 5",
    # (2, 6) takes 7 while (3, 7) still holds it, as sqlite checks a row.
    "unique_against_a_later_row": "UPDATE a SET u = u + 1 WHERE u > 1",
}


def _loaded(db) -> None:
    db.execute(SCHEMA)
    db.execute(ROWS)


def _rows(db) -> list[tuple]:
    return sorted(db.execute("SELECT k, u FROM a").rows)


def _assert_unchanged(db) -> None:
    assert _rows(db) == BEFORE
    for k, u in BEFORE:  # the unique index still finds every old value
        assert db.execute(f"SELECT k FROM a WHERE u = {u}").rows == [(k,)]
    assert db.execute("SELECT k FROM a WHERE u = 100").rows == []


@pytest.mark.parametrize("sql", REFUSED.values(), ids=list(REFUSED))
def test_a_refused_update_changes_no_row(sql):
    db = Database()
    _loaded(db)
    with closing(sqlite3.connect(":memory:")) as connection:
        connection.execute(SCHEMA)
        connection.execute(ROWS)
        with pytest.raises(sqlite3.IntegrityError):
            connection.execute(sql)
        assert sorted(connection.execute("SELECT k, u FROM a").fetchall()) == BEFORE
    version = db.table("a").version
    with pytest.raises(ReproError):
        db.execute(sql)
    _assert_unchanged(db)
    assert db.table("a").version == version
    # The rows it would have moved are free to move now.
    db.execute("UPDATE a SET u = 100 WHERE u = 8")
    assert _rows(db) == [(1, 1), (2, 6), (3, 7), (4, 100)]


def test_a_value_the_column_cannot_hold_changes_no_row():
    db = Database()
    _loaded(db)
    with pytest.raises(ReproError):
        db.execute("UPDATE a SET k = CASE WHEN k < 3 THEN k + 10 ELSE 'x' END")
    _assert_unchanged(db)


def test_a_refused_update_logs_nothing_and_reopens_as_it_was(tmp_path):
    db = Database.open(tmp_path)
    try:
        _loaded(db)
        records = db.wal_stats().records
        with pytest.raises(ReproError):
            db.execute(REFUSED["unique_against_an_earlier_row"])
        assert db.wal_stats().records == records
        _assert_unchanged(db)
    finally:
        db.close()
    reopened = Database.open(tmp_path)
    try:
        _assert_unchanged(reopened)
        reopened.execute("UPDATE a SET u = u + 100 WHERE k > 1")
    finally:
        reopened.close()
    again = Database.open(tmp_path)
    try:
        assert _rows(again) == [(1, 1), (2, 106), (3, 107), (4, 108)]
    finally:
        again.close()
