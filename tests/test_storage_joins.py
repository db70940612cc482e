"""Joins: every join type runs through one HashJoin core and is planned where
it is written.  Named regressions for the plans that moved outer joins above
the inner-join tree, a generated oracle that answers two- and three-table
chains over every join type like stdlib ``sqlite3``, and the check that an
equi outer join is hashed rather than evaluated per pair."""

from __future__ import annotations

import random
import sqlite3
from contextlib import closing

import pytest

from repro.errors import ReproError
from repro.storage import Database, ExecutionSettings, operators

pytestmark = pytest.mark.skipif(
    sqlite3.sqlite_version_info < (3, 39, 0),
    reason="RIGHT and FULL joins need sqlite 3.39",
)


def _same(actual: list[tuple], expected: list[tuple]) -> bool:
    """Equal as multisets of rows."""
    return sorted(actual, key=repr) == sorted(expected, key=repr)


# ---------------------------------------------------------------------------
# Named regressions: a = {1, 2}, b = {1, 3}, c = {7, 8}
# ---------------------------------------------------------------------------

SMALL = {"a": (1, 2), "b": (1, 3), "c": (7, 8)}


@pytest.fixture(scope="module")
def small():
    db = Database()
    for name, values in SMALL.items():
        db.execute(f"CREATE TABLE {name} (x INTEGER)")
        db.insert_rows(name, [{"x": value} for value in values])
    return db


class TestOuterJoinPlacement:
    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT a.x, b.x FROM a RIGHT JOIN b ON a.x = b.x WHERE a.x > 0", [(1, 1)]),
            (
                "SELECT a.x, b.x FROM a FULL JOIN b ON a.x = b.x WHERE a.x > 0",
                [(1, 1), (2, None)],
            ),
        ],
        ids=["right", "full"],
    )
    def test_where_on_null_supplying_side_stays_above_the_join(self, small, sql, expected):
        """``a.x > 0`` filters the joined rows: pushed below the join to
        ``a``'s scan it would keep b's unmatched row, padded with NULL."""
        assert _same(small.execute(sql).rows, expected)

    @pytest.mark.parametrize(
        "sql, expected",
        [
            (
                "SELECT a.x, b.x, c.x FROM a RIGHT JOIN b ON a.x = b.x CROSS JOIN c",
                [(1, 1, 7), (1, 1, 8), (None, 3, 7), (None, 3, 8)],
            ),
            (
                "SELECT a.x, b.x, c.x FROM a FULL JOIN b ON a.x = b.x JOIN c ON c.x > 7",
                [(1, 1, 8), (2, None, 8), (None, 3, 8)],
            ),
        ],
        ids=["right-then-cross", "full-then-inner"],
    )
    def test_outer_join_applies_before_the_join_after_it(self, small, sql, expected):
        """An outer join followed by an inner or cross join is joined first:
        b's unmatched row meets every row of c."""
        assert _same(small.execute(sql).rows, expected)

    def test_select_star_lists_columns_in_from_order(self, small):
        result = small.execute(
            "SELECT * FROM a LEFT JOIN b ON a.x = b.x JOIN c ON c.x = 7"
        )
        assert _same(result.rows, [(1, 1, 7), (2, None, 7)])

    @pytest.mark.parametrize(
        "sql, expected",
        [
            (
                "SELECT a.x, b.x, c.x FROM a JOIN b ON b.x = c.x OR EXISTS "
                "(SELECT 1 FROM a AS d) LEFT JOIN c ON a.x = c.x",
                [(1, 1, None), (1, 3, None), (2, 1, None), (2, 3, None)],
            ),
            (
                "SELECT a.x, b.x, c.x FROM a JOIN b ON EXISTS "
                "(SELECT 1 FROM a AS d WHERE d.x < c.x - 6) LEFT JOIN c ON a.x + 6 = c.x",
                [(2, 1, 8), (2, 3, 8)],
            ),
        ],
        ids=["or-exists", "correlated"],
    )
    def test_inner_on_with_a_subquery_naming_a_table_to_its_right(self, small, sql, expected):
        """With no RIGHT or FULL join an inner ON may name a table to its
        right, subquery or not: it is a WHERE conjunct, applied above the
        LEFT join rather than over ``a JOIN b``, where ``c`` is not yet
        joined."""
        assert _same(small.execute(sql).rows, expected)

    def test_on_naming_a_table_to_its_right_is_refused(self, small):
        with pytest.raises(ReproError, match="unknown table alias 'c'"):
            small.execute("SELECT * FROM a LEFT JOIN b ON b.x = c.x JOIN c ON a.x = c.x")


# ---------------------------------------------------------------------------
# The equi outer join is hashed
# ---------------------------------------------------------------------------


class TestEquiOuterJoinIsHashed:
    @pytest.fixture()
    def counted(self, monkeypatch):
        """A database whose ON evaluations are counted: ``a`` = 0..29, ``b``
        = 40 rows keyed ``i % 20`` — 40 key-matching pairs of 1,200."""
        db = Database()
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (x INTEGER, z INTEGER)")
        db.insert_rows("a", [{"x": i} for i in range(30)])
        db.insert_rows("b", [{"x": i % 20, "z": i} for i in range(40)])
        evaluations = [0]
        evaluate = operators.evaluate

        def counted_evaluate(*args):
            evaluations[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(operators, "evaluate", counted_evaluate)
        return db, evaluations

    @pytest.mark.parametrize(
        "join_type, rows", [("LEFT", 50), ("FULL", 50)], ids=["left", "full"]
    )
    def test_equi_on_evaluates_nothing(self, counted, join_type, rows):
        db, evaluations = counted
        result = db.execute(f"SELECT a.x, b.z FROM a {join_type} JOIN b ON a.x = b.x")
        assert len(result.rows) == rows
        assert evaluations[0] == 0

    @pytest.mark.parametrize("join_type", ["LEFT", "FULL"])
    def test_residual_runs_on_key_matches_only(self, counted, join_type):
        db, evaluations = counted
        sql = (
            f"SELECT a.x, b.z FROM a {join_type} JOIN b "
            "ON a.x = b.x AND a.x + b.z > 25"
        )
        rows = db.execute(sql).rows
        assert 0 < evaluations[0] <= 40
        with closing(sqlite3.connect(":memory:")) as connection:
            connection.execute("CREATE TABLE a (x INTEGER)")
            connection.execute("CREATE TABLE b (x INTEGER, z INTEGER)")
            connection.executemany("INSERT INTO a VALUES (?)", [(i,) for i in range(30)])
            connection.executemany(
                "INSERT INTO b VALUES (?, ?)", [(i % 20, i) for i in range(40)]
            )
            assert _same(rows, connection.execute(sql).fetchall())


# ---------------------------------------------------------------------------
# Generated oracle: seeded tables and join chains against sqlite
# ---------------------------------------------------------------------------

#: Each table: a join key ``k`` with duplicates, and ``v`` and ``s`` columns,
#: all three holding NULLs.
COLUMNS = (("k", "INTEGER"), ("v", "INTEGER"), ("s", "TEXT"))
TABLES = ("a", "b", "c")

#: ``FROM`` operators, written as a user would.
OPERATORS = (
    "JOIN",
    "INNER JOIN",
    "LEFT JOIN",
    "LEFT OUTER JOIN",
    "RIGHT JOIN",
    "FULL JOIN",
    "FULL OUTER JOIN",
    "CROSS JOIN",
    ",",
)

#: ON shapes over the left binding ``{l}`` and the right one ``{r}``: equi;
#: equi plus a one-sided or two-sided residual; non-equi only; OR; a
#: subquery, correlated or not.
ON_SHAPES = (
    "{l}.k = {r}.k",
    "{l}.k = {r}.k AND {r}.v > 1",
    "{l}.k = {r}.k AND {l}.v > 1",
    "{r}.k = {l}.k AND {l}.v < {r}.v",
    "{l}.k = {r}.k AND {l}.s = {r}.s",
    "{l}.v < {r}.v",
    "{l}.k <> {r}.k",
    "{l}.k = {r}.k OR {r}.v IS NULL",
    "{l}.s = {r}.s OR {l}.k = {r}.v",
    "{l}.k = {r}.k AND EXISTS (SELECT 1 FROM a AS d WHERE d.k = {l}.v)",
    "{l}.v < {r}.v OR {l}.k IN (SELECT d.v FROM b AS d WHERE d.k > 1)",
)

#: WHERE conjuncts over a binding ``{x}`` (and a second one ``{y}``).
WHERE_SHAPES = (
    "{x}.v > 1",
    "{x}.k IS NULL",
    "{x}.s IS NOT NULL",
    "{x}.k = {y}.k",
    "{x}.v + {y}.v > 3",
    "{x}.k IS NULL OR {y}.v < 3",
)


def _table_rows(rng: random.Random) -> list[tuple]:
    return [
        (
            rng.choice([None, 0, 1, 1, 2, 2, 3]),
            rng.choice([None, 0, 1, 2, 3, 4]),
            rng.choice([None, "p", "q", "r"]),
        )
        for _ in range(rng.randint(0, 12))
    ]


def _statement(rng: random.Random) -> tuple[str, bool]:
    """A seeded statement, and whether an ON in it names a table to its
    right."""
    names = rng.sample(TABLES, rng.choice((2, 3)))
    forward = False
    parts = [names[0]]
    for position, name in enumerate(names[1:], start=1):
        op = rng.choice(OPERATORS)
        parts.append(op if op == "," else f" {op}")
        parts.append(f" {name}")
        if op not in (",", "CROSS JOIN"):
            left = rng.choice(names[:position])
            # One ON in four names the table to its right instead.
            if position + 1 < len(names) and rng.random() < 1 / 4:
                left, forward = names[position + 1], True
            parts.append(" ON " + rng.choice(ON_SHAPES).format(l=left, r=name))
    sql = "".join(parts)
    conjuncts = [
        rng.choice(WHERE_SHAPES).format(x=rng.choice(names), y=rng.choice(names))
        for _ in range(rng.choice((0, 1, 1, 2)))
    ]
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    if rng.random() < 0.4:
        select = "*"
    else:
        columns = [f"{name}.{column}" for name in names for column, _ in COLUMNS]
        select = ", ".join(rng.sample(columns, rng.randint(1, 4)))
    return f"SELECT {select} FROM {sql}{where}", forward


def _literal(value) -> str:
    return "NULL" if value is None else repr(value)


def _dml(rng: random.Random) -> str:
    """A seeded write to one table: a small INSERT, an UPDATE of the join
    key or of another column, or a DELETE, so tables stay about their size."""
    name = rng.choice(TABLES)
    key, value = rng.choice([None, 0, 1, 2, 3]), rng.choice([None, 0, 1, 2, 3, 4])
    return rng.choice(
        (
            f"INSERT INTO {name} VALUES ({_literal(key)}, {_literal(value)}, 'p')",
            f"UPDATE {name} SET k = {_literal(key)} WHERE v = {_literal(value)}",
            f"UPDATE {name} SET v = {_literal(value)}, s = 'q' WHERE k = {_literal(key)}",
            f"DELETE FROM {name} WHERE k = {_literal(key)}",
        )
    )


#: Batch sizes the oracle's engines cycle through: many, few and one batch.
ORACLE_BATCH_SIZES = (1, 2, 256)


#: One dialect difference: an outer join's ON that names a table to its
#: right is refused here, always.  sqlite refuses it too, unless its
#: optimizer has first made the outer join an inner one — a WHERE or a later
#: ON that rejects NULLs from the null-supplying side — when the same ON
#: passes as an inner join's.
SCOPE_ERROR = "unknown table alias"


@pytest.mark.parametrize("seed", range(8))
def test_join_chains_match_sqlite(seed):
    """250 seeded statements per seed over freshly seeded tables (a hash
    index on ``k`` every other seed, so inner joins also take the index
    loop): each returns sqlite's rows as a multiset, and each statement
    sqlite refuses raises a ReproError.  Each statement runs twice, then a
    seeded write to one table comes, then it runs twice again: the second
    run keeps the tables it scanned, so an inner equi join over them builds
    from a kept entry and probes kept rows and columns, the write drops one
    table's lists, and the last two runs meet the dropped lists and their
    re-admission."""
    rng = random.Random(seed)
    db = Database(
        exec_settings=ExecutionSettings(
            batch_size=ORACLE_BATCH_SIZES[seed % len(ORACLE_BATCH_SIZES)]
        )
    )
    definition = ", ".join(f"{column} {kind}" for column, kind in COLUMNS)
    with closing(sqlite3.connect(":memory:")) as connection:
        for name in TABLES:
            rows = _table_rows(rng)
            db.execute(f"CREATE TABLE {name} ({definition})")
            db.insert_rows(name, [dict(zip((c for c, _ in COLUMNS), row)) for row in rows])
            if seed % 2:
                db.execute(f"CREATE INDEX {name}_k ON {name} (k)")
            connection.execute(f"CREATE TABLE {name} ({definition})")
            connection.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
        failures = []
        for _ in range(250):
            sql, forward = _statement(rng)
            for run in range(4):
                if run == 2:
                    write = _dml(rng)
                    connection.execute(write)
                    db.execute(write)
                failure = _differs(db, connection, sql, forward)
                if failure:
                    failures.append(f"run {run + 1}: {failure}")
    assert not failures, f"{len(failures)} of 1000 differ:\n" + "\n".join(failures[:5])


def _differs(db: Database, connection, sql: str, forward: bool) -> str | None:
    """How the engine's answer to ``sql`` differs from sqlite's, or None."""
    try:
        expected = connection.execute(sql).fetchall()
    except sqlite3.Error:
        try:
            db.execute(sql)
        except ReproError:
            return None
        return f"accepted what sqlite refuses: {sql}"
    try:
        actual = db.execute(sql).rows
    except ReproError as error:
        if forward and SCOPE_ERROR in str(error):
            return None
        return f"refused ({error}): {sql}"
    if not _same(actual, expected):
        return f"{sql}\n  got {actual}\n  sqlite {expected}"
    return None
