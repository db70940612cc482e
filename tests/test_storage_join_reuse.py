"""A base table's kept join hash table (``Table.join_entry``): an inner equi
join whose input is a bare scan builds from the table's entry while the
table is unchanged, and a stale entry never answers.  Every case runs the
same join before and after a change and compares each answer with stdlib
``sqlite3`` on the same data."""

from __future__ import annotations

import itertools
import sqlite3
from contextlib import closing

import pytest

from repro.errors import QueryTimeoutError, ReproError
from repro.storage import Database, ExecutionSettings

#: ``a`` leads with ``d`` so that dropping it moves every other column;
#: ``k`` holds duplicates and NULLs, ``u`` is unique.
A_ROWS = [(i % 3, None if i % 7 == 0 else i % 5, 3 * i % 7, i) for i in range(40)]
B_ROWS = [(None if i == 3 else i % 6, i) for i in range(12)]
SCHEMA = (
    "CREATE TABLE a (d INTEGER, k INTEGER, v INTEGER, u INTEGER UNIQUE)",
    "CREATE TABLE b (k INTEGER, w INTEGER)",
)

#: ``b`` is filtered, so the planner builds it; ``a`` is the bare scan whose
#: entry answers the build instead.
JOIN = "SELECT a.k, a.v, b.w FROM a JOIN b ON a.k = b.k WHERE b.w < 9"


def _same(actual: list[tuple], expected: list[tuple]) -> bool:
    """Equal as multisets of rows."""
    return sorted(actual, key=repr) == sorted(expected, key=repr)


@pytest.fixture()
def pair():
    """The same tables in the engine and in sqlite."""
    db = Database()
    with closing(sqlite3.connect(":memory:")) as connection:
        for sql in SCHEMA:
            db.execute(sql)
            connection.execute(sql)
        for name, rows in (("a", A_ROWS), ("b", B_ROWS)):
            marks = ", ".join("?" * len(rows[0]))
            connection.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
            db.execute(
                f"INSERT INTO {name} VALUES "
                + ", ".join("(" + ", ".join(_literal(v) for v in row) + ")" for row in rows)
            )
        yield db, connection


def _literal(value) -> str:
    return "NULL" if value is None else repr(value)


def _both(pair, sql: str) -> None:
    """Run ``sql`` on both sides; both succeed or both refuse it."""
    db, connection = pair
    try:
        connection.execute(sql)
    except sqlite3.Error:
        with pytest.raises(ReproError):
            db.execute(sql)
        return
    db.execute(sql)


def _answers_match(pair, sql: str, runs: int = 3) -> None:
    db, connection = pair
    expected = connection.execute(sql).fetchall()
    for run in range(runs):
        actual = db.execute(sql).rows
        assert _same(actual, expected), f"run {run + 1}: {actual} != {expected}"


def _analyzed(db, sql: str) -> list[str]:
    return db.explain(sql, analyze=True).lines


def _reused(db, sql: str) -> bool:
    """Whether the join's build was answered from a kept entry."""
    (join,) = [line for line in _analyzed(db, sql) if "HashJoin" in line]
    return "reused=" in join


#: (statements run on both sides between the two runs, the join after them)
CHANGES = {
    "insert": (["INSERT INTO a VALUES (9, 2, 900, 900), (9, NULL, 901, 901)"], JOIN),
    "insert_select": (["INSERT INTO a SELECT d, k, v + 1000, u + 1000 FROM a WHERE k = 1"], JOIN),
    "update_key": (["UPDATE a SET k = 4 WHERE k = 1"], JOIN),
    "update_key_to_null": (["UPDATE a SET k = NULL WHERE k = 2"], JOIN),
    "update_non_key": (["UPDATE a SET v = v * 2 + 1 WHERE k = 2"], JOIN),
    "delete": (["DELETE FROM a WHERE k = 0"], JOIN),
    "insert_refused_by_unique": (["INSERT INTO a VALUES (1, 1, 1, 5)"], JOIN),
    "update_refused_by_unique": (["UPDATE a SET u = 5 WHERE u = 6"], JOIN),
    "add_column": (
        ["ALTER TABLE a ADD COLUMN x INTEGER", "UPDATE a SET x = v WHERE k = 2"],
        "SELECT a.k, a.x, b.w FROM a JOIN b ON a.k = b.k WHERE b.w < 9",
    ),
    # ``v`` now sits where ``k`` sat: an entry kept by position would answer
    # a join on ``v`` with ``k``'s values.
    "drop_leading_column": (
        ["ALTER TABLE a DROP COLUMN d"],
        "SELECT a.k, a.v, a.u, b.w FROM a JOIN b ON a.v = b.k WHERE b.w < 9",
    ),
    "rename_column": (
        ["ALTER TABLE a RENAME COLUMN k TO kk", "UPDATE a SET kk = 5 WHERE kk = 4"],
        "SELECT a.kk, a.v, b.w FROM a JOIN b ON a.kk = b.k WHERE b.w < 9",
    ),
    "drop_and_recreate": (
        [
            "DROP TABLE a",
            "CREATE TABLE a (d INTEGER, k INTEGER, v INTEGER, u INTEGER UNIQUE)",
            "INSERT INTO a VALUES (0, 1, 7, 1), (0, 1, 8, 2), (0, 5, 9, 3)",
        ],
        JOIN,
    ),
}


@pytest.mark.parametrize("change", CHANGES, ids=list(CHANGES))
def test_a_change_between_two_runs_is_seen(pair, change):
    """The entry answers before the change; after it each run equals
    sqlite, through a fresh admission, build and reuse."""
    statements, after = CHANGES[change]
    db, _ = pair
    _answers_match(pair, JOIN)
    assert _reused(db, JOIN)
    for sql in statements:
        _both(pair, sql)
    _answers_match(pair, after)


def test_a_statistics_refresh_drops_the_entry(pair):
    db, _ = pair
    _answers_match(pair, JOIN)
    assert _reused(db, JOIN)
    db.statistics("a", refresh=True)
    assert not _reused(db, JOIN)  # the first ask after the move only admits
    _answers_match(pair, JOIN)


def test_the_entry_answers_the_planned_build_side_first(pair):
    """With both inputs bare, the planner's build side keeps its entry."""
    db, _ = pair
    sql = "SELECT a.v, b.w FROM a, b WHERE a.k = b.k"
    (planned,) = [line for line in db.explain(sql).lines if "HashJoin" in line]
    side = "left" if "build=left" in planned else "right"
    _answers_match(pair, sql)
    (join,) = [line for line in _analyzed(db, sql) if "HashJoin" in line]
    assert f"build={side}" in join and f"reused={side}" in join


def test_a_grouped_entry_with_null_keys(pair):
    """``a.k`` repeats and holds NULLs: the entry groups its rows and drops
    the NULL key, which matches nothing, also NULL on the other side."""
    db, connection = pair
    sql = "SELECT a.u, b.w FROM b JOIN a ON b.k = a.k WHERE b.w < 9"
    _answers_match(pair, sql)
    assert _reused(db, sql)
    entry = next(e for e in db.table("a")._join_entries.values() if e is not None)
    table, unique = entry
    assert not unique and None not in table
    assert all(isinstance(rows, list) for rows in table.values())


def test_a_self_join_on_two_key_columns(pair):
    """One table, two entries: one per key-column tuple."""
    db, _ = pair
    sql = "SELECT x.u, y.u FROM a AS x JOIN a AS y ON x.d = y.k"
    _answers_match(pair, sql)
    _both(pair, "UPDATE a SET d = 4 WHERE u < 10")
    _answers_match(pair, sql)
    other = "SELECT x.u, y.u FROM a AS x JOIN a AS y ON x.k = y.d"
    _answers_match(pair, other)
    entries = db.table("a")._join_entries
    assert {key for key, entry in entries.items() if entry is not None} == {(0,), (1,)}


def test_a_multi_column_key(pair):
    db, _ = pair
    sql = "SELECT x.u, y.u FROM a AS x JOIN a AS y ON x.d = y.d AND x.k = y.k"
    _answers_match(pair, sql)
    _both(pair, "UPDATE a SET d = NULL WHERE u % 4 = 0")
    _answers_match(pair, sql)


def test_a_table_written_between_every_two_joins_never_gets_an_entry(pair):
    """The first ask at a version only admits it, so a write between every
    two joins keeps the planned, filtered build."""
    db, _ = pair
    for step in range(4):
        lines = _analyzed(db, JOIN)
        join = next(line for line in lines if "HashJoin" in line)
        assert "reused=" not in join and "build=right" in join
        assert all("never executed" not in line for line in lines)
        _both(pair, f"INSERT INTO a VALUES (7, {step}, {500 + step}, {500 + step})")
    assert not any(db.table("a")._join_entries.values())
    _answers_match(pair, JOIN, runs=1)


def test_explain_analyze_marks_a_reused_build(pair):
    """The join names the input whose build the entry answered; that input's
    scan never runs and charges no ``rows_scanned``."""
    db, _ = pair
    cold = db.explain(JOIN, analyze=True)
    db.execute(JOIN)  # builds the entry
    warm = db.explain(JOIN, analyze=True)
    join = next(line for line in warm.lines if "HashJoin" in line)
    assert "[build=right" in join and "reused=left" in join
    assert any("SeqScan a" in line and "(never executed)" in line for line in warm.lines)
    assert warm.stats.rows_scanned == cold.stats.rows_scanned - len(A_ROWS)
    assert warm.stats.result_cardinality == cold.stats.result_cardinality


def test_a_timeout_during_the_admitted_build_keeps_no_entry(pair):
    """The build that would have filled the entry is cancelled: nothing is
    kept, and the next runs build, then reuse, the right table."""
    db = Database(exec_settings=ExecutionSettings(batch_size=1))
    for sql in SCHEMA:
        db.execute(sql)
    db.insert_rows("a", [dict(zip("dkvu", row)) for row in A_ROWS])
    db.insert_rows("b", [dict(zip("kw", row)) for row in B_ROWS])
    _, connection = pair
    expected = connection.execute(JOIN).fetchall()
    assert _same(db.execute(JOIN).rows, expected)  # admits
    db.statement_timer = itertools.count().__next__  # one "second" per read
    with pytest.raises(QueryTimeoutError):
        db.execute(JOIN, timeout_seconds=5)
    assert not any(db.table("a")._join_entries.values())
    (join,) = [line for line in _analyzed(db, JOIN) if "HashJoin" in line]
    assert "reused=" not in join
    for _ in range(2):
        assert _same(db.execute(JOIN).rows, expected)
    assert _reused(db, JOIN)


def test_a_store_that_evicts_keeps_no_entry(tmp_path):
    """A durable pool bounded by ``buffer_pool_pages``: an entry would keep
    the table's rows resident past the bound."""
    db = Database.open(tmp_path, exec_settings=ExecutionSettings(buffer_pool_pages=8))
    try:
        for sql in SCHEMA:
            db.execute(sql)
        db.insert_rows("a", [dict(zip("dkvu", row)) for row in A_ROWS])
        db.insert_rows("b", [dict(zip("kw", row)) for row in B_ROWS])
        for _ in range(3):
            db.execute(JOIN)
        assert not _reused(db, JOIN)
        assert not db.table("a")._join_entries
    finally:
        db.close()
