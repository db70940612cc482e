"""Predicate kernels: typed by the binder, they agree with the compiled
predicate and with sqlite at every site that filters rows; float aggregates fold bit-exact;
EXPLAIN ANALYZE runs the statement's own path."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.storage import Database, ExecutionSettings
from repro.storage.binder import Binder
from repro.storage import kernels
from repro.storage.expression import compile_expression
from repro.storage.executor import Executor
from repro.storage.kernels import (
    apply_kernels,
    compile_columnar_conjuncts,
    compile_columnar_predicate,
)
from repro.storage.operators import (
    Filter,
    HashJoin,
    IndexLookupJoin,
    SubqueryScan,
)
from repro.storage.planner import Planner
from repro.storage.types import DataType
from repro.sql.parser import parse

#: A NULL-heavy dataset with string, int, and float columns.
READING_ROWS = [
    {
        "id": i,
        "station": None if i % 11 == 0 else f"st{i % 9}",
        "value": None if i % 7 == 0 else float((i * 13) % 97) / 3.0,
        "flag": None if i % 5 == 0 else i % 3,
    }
    for i in range(500)
]


def _make_db(exec_settings: ExecutionSettings | None = None) -> Database:
    db = Database(exec_settings=exec_settings)
    db.execute(
        "CREATE TABLE readings (id INTEGER, station TEXT, value FLOAT, flag INTEGER)"
    )
    db.insert_rows("readings", READING_ROWS)
    return db


@pytest.fixture(scope="module")
def reference():
    """``sql -> rows`` answered by sqlite over the same ``readings`` rows: an
    engine sharing no code with this one."""
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE readings (id INTEGER, station TEXT, value REAL, flag INTEGER)"
    )
    connection.executemany(
        "INSERT INTO readings VALUES (:id, :station, :value, :flag)", READING_ROWS
    )
    yield lambda sql: connection.execute(sql).fetchall()
    connection.close()


def assert_matches_sqlite(sql: str, actual: list[tuple], reference) -> None:
    """Row for row in heap order, except where GROUP BY or DISTINCT leaves
    the order to the engine.  Floats are compared rounded: sqlite may fold a
    float SUM in another order (and, from 3.43, with compensated summation);
    :meth:`TestCrossPathEquivalence.test_float_aggregates_bit_identical`
    pins the exact bits."""

    def rounded(rows):
        return [
            tuple(round(v, 9) if isinstance(v, float) else v for v in row)
            for row in rows
        ]

    actual, expected = rounded(actual), rounded(reference(sql))
    if "GROUP BY" in sql or "DISTINCT" in sql:
        actual, expected = sorted(actual, key=repr), sorted(expected, key=repr)
    assert actual == expected, sql


#: Queries covering every kernel shape: comparisons both ways, col-vs-col,
#: LIKE, IS [NOT] NULL, BETWEEN (plain and negated), IN (with and without
#: NULL semantics in play), conjunctions, projection, grouping, DISTINCT.
QUERIES = [
    "SELECT * FROM readings",
    "SELECT id, station FROM readings WHERE value > 10.0",
    "SELECT id FROM readings WHERE 10.0 > value",
    "SELECT id FROM readings WHERE flag = 1 AND value <= 20.5",
    "SELECT id FROM readings WHERE station LIKE 'st1%'",
    "SELECT id FROM readings WHERE station LIKE 'st_'",
    "SELECT id FROM readings WHERE value IS NULL",
    "SELECT id FROM readings WHERE station IS NOT NULL AND flag IS NULL",
    "SELECT id FROM readings WHERE id BETWEEN 100 AND 120",
    "SELECT id FROM readings WHERE id NOT BETWEEN 5 AND 490",
    "SELECT id FROM readings WHERE station IN ('st1', 'st4')",
    "SELECT id FROM readings WHERE flag IN (0, 2)",
    "SELECT id FROM readings WHERE flag <> 1",
    "SELECT DISTINCT station FROM readings",
    "SELECT station, COUNT(*) FROM readings GROUP BY station",
    "SELECT station, COUNT(value), SUM(value), AVG(value), MIN(id), MAX(id) "
    "FROM readings WHERE id > 50 GROUP BY station",
    "SELECT COUNT(*) FROM readings WHERE value IS NOT NULL",
    "SELECT COUNT(DISTINCT station) FROM readings",
    "SELECT id, station FROM readings WHERE id >= 17 LIMIT 9",
]


def _float_bits(rows):
    """Rows with every float spelled as its exact hex form."""
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in row)
        for row in rows
    ]


def _left_fold(values):
    """SUM and AVG of the non-NULL ``values`` as one left fold in heap order."""
    present = [value for value in values if value is not None]
    total = present[0]
    for value in present[1:]:
        total = total + value
    return total, total / len(present)


class TestCrossPathEquivalence:
    """Every batch size answers like sqlite on NULL-heavy string data."""

    def test_variants_match_sqlite(self, exec_variant, reference):
        db = _make_db(exec_variant)
        for sql in QUERIES:
            assert_matches_sqlite(sql, db.execute(sql).rows, reference)

    def test_float_aggregates_bit_identical(self, exec_variant):
        """Float SUM/AVG fold the values in heap order at every batch size,
        whether the argument is a column or computed, so the results are a
        plain left fold to the last bit — not just approximately."""
        db = _make_db(exec_variant)
        values = [row["value"] for row in READING_ROWS]
        assert _float_bits(
            db.execute("SELECT SUM(value), AVG(value) FROM readings").rows
        ) == _float_bits([_left_fold(values)])
        stations = dict.fromkeys(row["station"] for row in READING_ROWS)
        expected = [
            (station,)
            + _left_fold(
                [row["value"] for row in READING_ROWS if row["station"] == station]
            )
            for station in stations
        ]
        for sql in (
            "SELECT station, SUM(value), AVG(value) FROM readings GROUP BY station",
            # A computed argument is its compiled closure mapped over a batch.
            "SELECT station, SUM(value * 1), AVG(value * 1) FROM readings "
            "GROUP BY station",
        ):
            assert _float_bits(db.execute(sql).rows) == _float_bits(expected), sql

    def test_cached_plan_rebinding_stays_columnar_exact(self, reference):
        """Parameter re-binding on a cached plan must reach the kernels: the
        literal is read per execution, never baked into the kernel."""
        db = _make_db()
        template = "SELECT id FROM readings WHERE value > {} AND station = '{}'"
        for threshold, station in [(5.0, "st1"), (20.0, "st4"), (5.0, "st1")]:
            sql = template.format(threshold, station)
            assert_matches_sqlite(sql, db.execute(sql).rows, reference)
        assert db.execute(template.format(20.0, "st4")).stats.plan_cache_hit

    @given(
        threshold=st.integers(min_value=-5, max_value=105),
        stations=st.lists(
            st.sampled_from(["st0", "st1", "st5", "st8", "zzz"]),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    @hsettings(max_examples=30, deadline=None)
    def test_generated_predicates_agree(self, reference, threshold, stations):
        in_list = ", ".join(f"'{s}'" for s in stations)
        sql = (
            f"SELECT id, value FROM readings "
            f"WHERE value > {threshold}.0 AND station IN ({in_list})"
        )
        db = TestCrossPathEquivalence._shared_db()
        assert_matches_sqlite(sql, db.execute(sql).rows, reference)

    _db = None

    @classmethod
    def _shared_db(cls):
        if cls._db is None:
            cls._db = _make_db()
        return cls._db


def _bound(sql):
    """``sql`` bound against a one-table schema ``t(a INTEGER, b TEXT)``:
    kernels read the binder's answer, never a bare name."""
    return Binder(
        lambda name: [("a", DataType.INTEGER), ("b", DataType.TEXT)]
    ).select(parse(sql))


class TestKernelCompilation:
    ROWS = [(1, "x"), (None, "y"), (3, None), (4, "x")]

    def _kernels(self, where):
        from repro.storage.planner import _split_conjuncts

        statement = _bound(f"SELECT a FROM t WHERE {where}")
        bindings = [("t", ["a", "b"])]
        return compile_columnar_conjuncts(_split_conjuncts(statement.where), bindings)

    def _select(self, where):
        kernels = self._kernels(where)
        assert kernels is not None, where
        return list(apply_kernels(kernels, self.ROWS))

    def test_comparison_null_semantics(self):
        assert self._select("a > 1") == [2, 3]
        assert self._select("2 > a") == [0]  # flipped literal-vs-column

    def test_like_null_value_never_matches(self):
        assert self._select("b LIKE 'x%'") == [0, 3]

    def test_in_list_with_null_member_drops_nulls(self):
        assert self._select("a IN (1, 3, NULL)") == [0, 2]
        assert self._select("b NOT IN ('y')") == [0, 3]  # NULL b drops

    def test_between_drops_null(self):
        assert self._select("a BETWEEN 1 AND 3") == [0, 2]
        assert self._select("a NOT BETWEEN 1 AND 3") == [3]

    def test_a_shape_with_no_special_kernel_gets_the_generic_one(self):
        assert self._select("a > 1 AND a + 1 > 2") == [2, 3]
        assert self._select("a + 1 > 2 OR b = 'y'") == [1, 2, 3]


#: The grid's table ``g``: one column per type, NULLs in each, and values
#: that exercise cross-type comparison (numeric-looking text, 0/1 against
#: booleans, an empty string).
GRID_COLUMNS = {
    "i": ("INTEGER", [None, -3, 0, 1, 2, 10]),
    "f": ("FLOAT", [None, -2.5, 0.0, 1.0, 2.5, 10.0]),
    "s": ("TEXT", [None, "", "1", "10", "2.5", "abc", "True", "b"]),
    "b": ("BOOLEAN", [None, True, False]),
}
#: 48 rows: every value of every column, paired with shifting partners.
GRID_ROWS = [
    tuple(
        values[(k + k // len(values) * n) % len(values)]
        for n, (_, values) in enumerate(GRID_COLUMNS.values())
    )
    for k in range(48)
]

#: Per literal type: the compared value, a BETWEEN/IN partner and a LIKE pattern.
GRID_LITERALS = {
    "int": {"v": "1", "lo": "0", "hi": "2", "like": "1"},
    "float": {"v": "2.5", "lo": "0.5", "hi": "2.5", "like": "2.5"},
    "str": {"v": "'10'", "lo": "'1'", "hi": "'abc'", "like": "'1%'"},
    "bool": {"v": "TRUE", "lo": "FALSE", "hi": "TRUE", "like": "TRUE"},
    "null": {"v": "NULL", "lo": "1", "hi": "NULL", "like": "NULL"},
}
_OPS = ("=", "<>", "<", "<=", ">", ">=")
_LITERAL_SHAPES = (
    [f"{{c}} {op} {{v}}" for op in _OPS]
    + [f"{{v}} {op} {{c}}" for op in _OPS]
    + [
        "{c} BETWEEN {lo} AND {hi}",
        "{c} NOT BETWEEN {lo} AND {hi}",
        "{c} IN ({v}, {lo})",
        "{c} NOT IN ({v}, {lo})",
        "{c} LIKE {like}",
    ]
)
GRID_CONDITIONS = (
    [
        shape.format(c=column, **literals)
        for column in GRID_COLUMNS
        for literals in GRID_LITERALS.values()
        for shape in _LITERAL_SHAPES
    ]
    + [f"{column} IS {neg}NULL" for column in GRID_COLUMNS for neg in ("", "NOT ")]
    + [
        f"{left} {op} {right}"
        for left in GRID_COLUMNS
        for right in GRID_COLUMNS
        for op in _OPS
    ]
)


class TestKernelsMatchEvaluator:
    """The compiled predicate is the kernels' contract: every kernel shape,
    compiled against the grid's declared column types and against
    undeclared ones (a derived table's), keeps exactly the rows of a plain
    row batch where the conjunct's compiled predicate is True — over the
    whole batch and over an earlier conjunct's selection.  The grid's values
    are already in stored form, as a heap holds them."""

    @pytest.mark.parametrize("condition", GRID_CONDITIONS)
    def test_kernel_agrees_with_evaluator(self, condition):
        bindings = [("g", list(GRID_COLUMNS))]

        def evens(columns, selection):
            return list(range(0, len(GRID_ROWS), 2))

        for declared in (True, False):
            schema = [
                (name, DataType.from_sql(kind) if declared else None)
                for name, (kind, _) in GRID_COLUMNS.items()
            ]
            where = Binder(lambda name: schema).select(
                parse(f"SELECT i FROM g WHERE {condition}")
            ).where
            kernel = compile_columnar_predicate(where, bindings)
            assert kernel is not None, condition
            predicate = compile_expression(where, bindings)
            expected = [
                position
                for position, row in enumerate(GRID_ROWS)
                if predicate(row) is True
            ]
            case = (condition, declared)
            assert list(apply_kernels([kernel], GRID_ROWS)) == expected, case
            assert list(apply_kernels([evens, kernel], GRID_ROWS)) == [
                p for p in expected if p % 2 == 0
            ], case


class TestAnalyzeCounters:
    def test_row_engine_summary_unchanged(self, reference):
        """A conjunct with no special kernel keeps the whole plan on row
        batches: no columnar summary line, and the rows still match sqlite."""
        db = _make_db()
        sql = "SELECT id FROM readings WHERE value * 2 > 10.0"
        explanation = db.explain(sql, analyze=True)
        assert isinstance(explanation.root, Filter)
        (kernel,) = explanation.root.kernels
        assert kernel.__qualname__.startswith("_predicate_kernel.")
        assert "columnar:" not in explanation.text()
        assert_matches_sqlite(sql, db.execute(sql).rows, reference)

    def test_analyze_runs_the_statements_own_path(self):
        """EXPLAIN ANALYZE executes the path an ordinary execution takes:
        the aggregate consumes the same batches and returns the same rows."""
        db = _big_db()
        sql = "SELECT w, COUNT(*), SUM(v) FROM big WHERE id < 300 GROUP BY w"
        result = db.execute(sql)
        explanation = db.explain(sql, analyze=True)
        assert result.stats.batches == explanation.stats.batches == 2
        text = explanation.text()
        assert "Filter (id < '?') (actual rows=300 batches=2 " in text
        assert "never executed" not in text
        plan = Planner(db).plan_select(parse(sql))
        _, analyzed_rows = Executor(db).execute_plan(plan, node_stats={})
        assert analyzed_rows == result.rows
        assert f"Execution: {len(result.rows)} rows" in text


#: ``big`` rows: ``k`` (hash-indexed) cycles through 50 values and ``w``
#: through 7, ``small.k`` is 0..6, ``s`` and ``f`` hold NULLs.
BIG_ROWS = [
    {
        "id": i,
        "k": i % 50,
        "w": i % 7,
        "v": (i * 37 % 1000) / 10.0,
        "s": None if i % 9 == 0 else f"s{i % 13}",
        "f": None if i % 11 == 0 else i % 3 == 0,
    }
    for i in range(3000)
]
SMALL_ROWS = [{"k": i, "x": i * 12.5, "label": f"l{i}"} for i in range(7)]
_BIG_SCHEMA = (
    "CREATE TABLE big (id INTEGER, k INTEGER, w INTEGER, v {float}, s TEXT, "
    "f BOOLEAN)",
    "CREATE TABLE small (k INTEGER, x {float}, label TEXT)",
)


def _big_db() -> Database:
    db = Database(exec_settings=ExecutionSettings(batch_size=256))
    for ddl in _BIG_SCHEMA:
        db.execute(ddl.format(float="FLOAT"))
    db.execute("CREATE INDEX big_k ON big (k)")
    db.insert_rows("big", BIG_ROWS)
    db.insert_rows("small", SMALL_ROWS)
    return db


def _big_sqlite() -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for ddl in _BIG_SCHEMA:
        connection.execute(ddl.format(float="REAL"))
    connection.executemany(
        "INSERT INTO big VALUES (:id, :k, :w, :v, :s, :f)", BIG_ROWS
    )
    connection.executemany("INSERT INTO small VALUES (:k, :x, :label)", SMALL_ROWS)
    return connection


@pytest.fixture(scope="module")
def big_db():
    return _big_db()


@pytest.fixture(scope="module")
def big_reference():
    with closing(_big_sqlite()) as connection:
        yield lambda sql: connection.execute(sql).fetchall()


@pytest.fixture
def predicate_calls(monkeypatch):
    """Every call a kernel makes of a conjunct's compiled predicate, in
    statements planned after the fixture is set up."""
    calls: list = []
    original = kernels.compile_expression

    def counted_compile(*args, **kwargs):
        predicate = original(*args, **kwargs)

        def counted(row):
            calls.append(None)
            return predicate(row)

        return counted

    monkeypatch.setattr(kernels, "compile_expression", counted_compile)
    return calls


def _operator(node, kind):
    if isinstance(node, kind):
        return node
    for child in node.children:
        found = _operator(child, kind)
        if found is not None:
            return found
    return None


#: ``k`` values the seven ``small`` rows probe: 60 ``big`` rows each.
_PROBED = sum(1 for row in BIG_ROWS if row["k"] < len(SMALL_ROWS))


class TestTypedKernelsAboveRowOperators:
    """A kernel takes its columns' types from the binder, so it runs typed
    wherever it filters rows — above a join, inside an index-join residual,
    in an UPDATE/DELETE residual.  Only an undeclared column (a derived
    table's) defers to the conjunct's compiled predicate, row by row, and
    both answer like sqlite."""

    @pytest.mark.parametrize(
        "sql, below, calls",
        [
            pytest.param(
                "SELECT b.id FROM big b, small m WHERE b.w = m.k AND b.v > m.x",
                HashJoin,
                0,
                id="typed-over-hash-join",
            ),
            pytest.param(
                "SELECT d.id FROM (SELECT id, v FROM big) d WHERE d.v > 50.0",
                SubqueryScan,
                len(BIG_ROWS),
                id="untyped-over-derived-table",
            ),
        ],
    )
    def test_filter(self, big_db, big_reference, predicate_calls, sql, below, calls):
        root = Planner(big_db).plan_select(parse(sql)).root
        node = _operator(root, Filter)
        assert isinstance(node.child, below) and node.kernels is not None
        predicate_calls.clear()
        rows = big_db.execute(sql).rows
        assert len(predicate_calls) == calls
        assert sorted(rows) == sorted(big_reference(sql))

    @pytest.mark.parametrize(
        "sql, calls",
        [
            pytest.param(
                "SELECT m.label, b.id FROM small m, big b "
                "WHERE m.k = b.k AND b.v > 50.0",
                0,
                id="typed",
            ),
            pytest.param(
                "SELECT d.label, b.id FROM (SELECT k, x, label FROM small) d, big b "
                "WHERE d.k = b.k AND d.k = b.w",
                _PROBED,
                id="untyped-outer-column",
            ),
        ],
    )
    def test_index_join_residual(
        self, big_db, big_reference, predicate_calls, sql, calls
    ):
        join = _operator(Planner(big_db).plan_select(parse(sql)).root, IndexLookupJoin)
        assert join.residual and join.residual_kernels is not None
        predicate_calls.clear()
        rows = big_db.execute(sql).rows
        assert len(predicate_calls) == calls
        assert sorted(rows) == sorted(big_reference(sql))

    @pytest.mark.parametrize(
        "sql, calls",
        [
            pytest.param(
                "DELETE FROM big WHERE w = 1 AND v > 50.0", 0, id="typed-delete"
            ),
            pytest.param(
                "UPDATE big SET s = 'z' WHERE w = 1 AND v > 50.0", 0, id="typed-update"
            ),
            # A DML target's columns are always declared; a BOOLEAN column
            # against a boolean literal has no native comparison that
            # matches compare_values, so that kernel defers to the predicate.
            pytest.param(
                "UPDATE big SET s = 'z' WHERE f = TRUE AND v > 50.0",
                len(BIG_ROWS),
                id="boolean-update",
            ),
        ],
    )
    def test_dml_residual(self, predicate_calls, sql, calls):
        db = _big_db()
        predicate_calls.clear()
        count = db.execute(sql).rowcount
        assert len(predicate_calls) == calls
        with closing(_big_sqlite()) as connection:
            assert count == connection.execute(sql).rowcount > 0
            contents = "SELECT * FROM big ORDER BY id"
            assert db.execute(contents).rows == connection.execute(contents).fetchall()
