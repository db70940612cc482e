"""What an unchanged base table keeps (``Table.kept``): an inner equi join
whose input is a bare scan builds from the table's kept join entry, and one
whose other input is a kept scan, bare or under kernel filters, reads that
table's kept rows, columns and matches instead of probing; a stale entry or
list never answers.  Every case runs the same join before and after a
change and compares each answer with stdlib ``sqlite3`` on the same data."""

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
#: The probe side's table: ``d`` leads, ``k`` holds duplicates and NULLs,
#: ``w`` is the filtered column, ``x`` is unique.
P_ROWS = [(i % 4, None if i % 6 == 0 else i % 9, 5 * i % 13, 100 + i) for i in range(30)]
SCHEMA = (
    "CREATE TABLE a (d INTEGER, k INTEGER, v INTEGER, u INTEGER UNIQUE)",
    "CREATE TABLE b (k INTEGER, w INTEGER)",
    "CREATE TABLE p (d INTEGER, k INTEGER, w INTEGER, x INTEGER UNIQUE)",
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
        for name, rows in (("a", A_ROWS), ("b", B_ROWS), ("p", P_ROWS)):
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


def _entries(db, name: str) -> dict:
    """The join entries table ``name`` keeps now, by key positions."""
    kept = db.table(name).kept()
    return {} if kept is None else kept.entries


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
    (entry,) = _entries(db, "a").values()
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
    assert set(_entries(db, "a")) == {(0,), (1,)}


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
    assert not _entries(db, "a")
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
    assert not _entries(db, "a")
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
        assert db.table("a").kept() is None
    finally:
        db.close()


# ---------------------------------------------------------------------------
# The probe side: kept rows, columns and matches
# ---------------------------------------------------------------------------

#: The build input is bare, so its kept entry builds; ``p`` is filtered by
#: a kernel, so it is probed, from its kept lists once they exist.  The first
#: joins on ``b.w``, unique and unindexed, and hands the join its select
#: list; the second joins on ``a.k``, whose entry groups its rows, and emits
#: whole rows.
PROBES = {
    "unique_projected": "SELECT b.k, b.w, p.k, p.w, p.x FROM b JOIN p ON b.w = p.k WHERE p.w < 9",
    "grouped_star": "SELECT * FROM a JOIN p ON a.k = p.k WHERE p.w < 9",
}


def _probed_kept(db, sql: str) -> bool:
    """Whether the join read its probe side's kept lists."""
    (join,) = [line for line in _analyzed(db, sql) if "HashJoin" in line]
    return " kept " in join


def _kept_answers(pair, sql: str) -> None:
    """Three runs equal sqlite's rows and, the kept lists answering the
    third, the second's rows in the same order; then the kept path runs."""
    db, connection = pair
    expected = connection.execute(sql).fetchall()
    runs = [db.execute(sql).rows for _ in range(3)]
    for run, actual in enumerate(runs, 1):
        assert _same(actual, expected), f"run {run}: {actual} != {expected}"
    assert runs[1] == runs[2]
    assert _probed_kept(db, sql)


#: Writes to the probe table ``p`` (run on both sides), and the joins after
#: them where they are not :data:`PROBES`.
PROBE_CHANGES = {
    "insert": (["INSERT INTO p VALUES (9, 2, 1, 900), (9, NULL, 2, 901), (9, 3, 30, 902)"], {}),
    "update_key": (["UPDATE p SET k = 4 WHERE k = 1"], {}),
    "update_key_to_null": (["UPDATE p SET k = NULL WHERE k = 2"], {}),
    "update_non_key": (["UPDATE p SET x = x + 1000 WHERE k = 2"], {}),
    "update_filtered_column": (["UPDATE p SET w = 20 - w WHERE k = 3"], {}),
    "delete": (["DELETE FROM p WHERE k = 4"], {}),
    "update_refused_by_unique": (["UPDATE p SET x = 500 WHERE x > 110"], {}),
    "add_column": (
        ["ALTER TABLE p ADD COLUMN y INTEGER", "UPDATE p SET y = w + 1 WHERE k = 2"],
        {
            "unique_projected": "SELECT b.w, p.y, p.w FROM b JOIN p ON b.w = p.k WHERE p.y < 9",
            "grouped_star": "SELECT * FROM a JOIN p ON a.k = p.k WHERE p.y < 9",
        },
    ),
    # ``k`` now sits where ``d`` sat, ``w`` where ``k`` sat: a list kept by
    # position would answer with the old columns.
    "drop_leading_column": (["ALTER TABLE p DROP COLUMN d"], {}),
    "rename_column": (
        ["ALTER TABLE p RENAME COLUMN w TO ww", "UPDATE p SET ww = 1 WHERE k = 5"],
        {
            "unique_projected": "SELECT b.k, p.k, p.ww FROM b JOIN p ON b.w = p.k WHERE p.ww < 9",
            "grouped_star": "SELECT * FROM a JOIN p ON a.k = p.k WHERE p.ww < 9",
        },
    ),
    "drop_and_recreate": (
        [
            "DROP TABLE p",
            "CREATE TABLE p (d INTEGER, k INTEGER, w INTEGER, x INTEGER UNIQUE)",
            "INSERT INTO p VALUES (0, 1, 3, 1), (0, 1, 4, 2), (0, 5, 12, 3), (1, 7, 0, 4)",
        ],
        {},
    ),
}


@pytest.mark.parametrize("probe", PROBES, ids=list(PROBES))
@pytest.mark.parametrize("change", PROBE_CHANGES, ids=list(PROBE_CHANGES))
def test_a_change_to_the_probe_table_is_seen(pair, change, probe):
    """The kept lists answer before the change; after it every run equals
    sqlite, through a fresh admission, and the kept path is back by the
    third run."""
    statements, after = PROBE_CHANGES[change]
    _kept_answers(pair, PROBES[probe])
    for statement in statements:
        _both(pair, statement)
    _kept_answers(pair, after.get(probe, PROBES[probe]))


def test_a_refused_update_keeps_the_lists(pair):
    """A refused UPDATE changes nothing, so the kept lists stand."""
    db, _ = pair
    sql = PROBES["unique_projected"]
    _kept_answers(pair, sql)
    kept = db.table("p").kept()
    _both(pair, "UPDATE p SET x = 500 WHERE x > 110")
    assert db.table("p").kept() is kept
    _kept_answers(pair, sql)


def test_the_build_table_written_while_the_probe_table_is_unchanged(pair):
    """``a`` or ``b`` changes, ``p`` does not: ``p``'s matches in the old
    entry never answer, and die with the kept lists that held it."""
    db, _ = pair
    for sql in PROBES.values():
        _kept_answers(pair, sql)
    matches = db.table("p").kept().matches
    assert len(matches) == 2  # one per build table: ``b`` and ``a``
    for write in (
        "UPDATE b SET w = w + 3 WHERE k = 1",
        "UPDATE a SET k = 4 WHERE k = 1",
        "DELETE FROM a WHERE v = 2",
        "INSERT INTO b VALUES (3, 40), (NULL, 41)",
    ):
        _both(pair, write)
        assert len(matches) == 1
        for sql in PROBES.values():
            _kept_answers(pair, sql)
        assert len(matches) == 2


def test_the_grouped_build_repeats_each_probe_row_per_match(pair):
    db, _ = pair
    sql = PROBES["grouped_star"]
    _kept_answers(pair, sql)
    ((_, unique),) = _entries(db, "a").values()
    assert not unique
    ((positions, found),) = db.table("p").kept().matches[db.table("a").kept()].items()
    assert positions == ((1,), (1,)) and len(found) == len(P_ROWS)
    assert all(group is None or len(group) >= 1 for group in found)


def test_a_self_join_on_two_key_columns_reads_its_own_lists(pair):
    """Build and probe are one table: the entry of ``x.d`` and the matches of
    ``y.k`` in it (and the other way round) are kept side by side."""
    db, _ = pair
    one = "SELECT x.u, y.u, y.v FROM a AS x JOIN a AS y ON x.d = y.k WHERE y.v < 5"
    other = "SELECT x.u, y.u FROM a AS x JOIN a AS y ON x.k = y.d WHERE y.v >= 2"
    for sql in (one, other):
        _kept_answers(pair, sql)
    kept = db.table("a").kept()
    assert set(kept.entries) == {(0,), (1,)}
    assert sorted(kept.matches[kept]) == [((0,), (1,)), ((1,), (0,))]
    _both(pair, "UPDATE a SET d = 4 WHERE u < 10")
    for sql in (one, other):
        _kept_answers(pair, sql)


def test_a_store_that_evicts_keeps_no_lists(tmp_path):
    db = Database.open(tmp_path, exec_settings=ExecutionSettings(buffer_pool_pages=8))
    try:
        for sql in SCHEMA:
            db.execute(sql)
        db.insert_rows("a", [dict(zip("dkvu", row)) for row in A_ROWS])
        db.insert_rows("b", [dict(zip("kw", row)) for row in B_ROWS])
        db.insert_rows("p", [dict(zip("dkwx", row)) for row in P_ROWS])
        for sql in PROBES.values():
            for _ in range(3):
                db.execute(sql)
            assert not any(" kept" in line for line in _analyzed(db, sql))
        assert not any(db.table(name).kept() for name in ("a", "b", "p"))
    finally:
        db.close()


def test_a_timeout_during_the_admitted_build_leaves_nothing_stale(pair):
    """The run that builds the kept lists is cancelled part way: what it
    left answers the next runs right, and the kept path comes back."""
    _, connection = pair
    db = Database(exec_settings=ExecutionSettings(batch_size=1))
    for sql in SCHEMA:
        db.execute(sql)
    db.insert_rows("b", [dict(zip("kw", row)) for row in B_ROWS])
    db.insert_rows("p", [dict(zip("dkwx", row)) for row in P_ROWS])
    sql = PROBES["unique_projected"]
    expected = connection.execute(sql).fetchall()
    assert _same(db.execute(sql).rows, expected)  # admits
    db.statement_timer = itertools.count().__next__  # one "second" per read
    with pytest.raises(QueryTimeoutError):  # while ``b``'s entry builds
        db.execute(sql, timeout_seconds=5)
    assert not _entries(db, "b")
    assert _same(db.execute(sql).rows, expected)  # builds the entry, keeps ``p``
    with pytest.raises(QueryTimeoutError):  # after the matches, in the kept probe
        db.execute(sql, timeout_seconds=5)
    (lists,) = db.table("p").kept().matches.values()
    assert [len(found) for found in lists.values()] == [len(P_ROWS)]
    assert _same(db.execute(sql).rows, expected)
    assert _probed_kept(db, sql)


def test_explain_analyze_shows_the_kept_probe(pair):
    """Under the kept join the filter and the scan still report their actual
    rows, each marked ``kept``, and the scan charges its rows."""
    db, _ = pair
    sql = PROBES["unique_projected"]
    _kept_answers(pair, sql)
    analyzed = db.explain(sql, analyze=True)
    lines = analyzed.lines
    passing = sum(1 for row in P_ROWS if row[2] < 9)
    (join,) = [line for line in lines if "HashJoin" in line]
    (filter_,) = [line for line in lines if line.strip().startswith("Filter")]
    (scan,) = [line for line in lines if "SeqScan p" in line]
    assert "reused=left kept" in join or "reused=right kept" in join
    assert f"(actual rows={passing} batches=1 kept " in filter_
    assert f"(actual rows={len(P_ROWS)} batches=1 kept " in scan
    assert any("SeqScan b" in line and "(never executed)" in line for line in lines)
    assert analyzed.stats.rows_scanned == len(P_ROWS)
