"""Columnar batch kernels: agreement with the evaluator and with sqlite,
the fused aggregation lane, EXPLAIN ANALYZE counters, the plan-verifier
columnar contract, and the ``columnar-mutation`` hazard rule."""

from __future__ import annotations

import functools
import sqlite3
import textwrap

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.storage import Database, ExecutionSettings
from repro.storage.binder import Binder
from repro.storage.colbatch import ColumnBatch
from repro.storage.executor import ExecutionStats
from repro.storage.expression import Scope, evaluate, is_true, layout_of
from repro.storage.kernels import (
    apply_kernels,
    compile_columnar_conjuncts,
    compile_columnar_predicate,
    hash_group_keys,
)
from repro.storage.operators import ExecutionContext, Filter, SeqScan
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
        """Float SUM/AVG fold the values in heap order at every batch size
        and on both aggregation lanes, so the results are a plain left fold
        to the last bit — not just approximately."""
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
            # A computed argument keeps the fused columnar lane off.
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


_DTYPES = [DataType.INTEGER, DataType.TEXT, DataType.FLOAT]


class TestColumnBatch:
    def test_extraction_by_position(self):
        rows = [(1, "x", 1.5), (None, None, 2.5)]
        batch = ColumnBatch(rows, _DTYPES)
        a = batch.column(0)
        assert a.values == [1, None] and a.dtype is DataType.INTEGER
        b = batch.column(1)
        assert b.values == ["x", None] and b.dtype is DataType.TEXT
        assert batch.column(2).values == [1.5, 2.5]
        untyped = ColumnBatch(rows, (None,) * 3)
        assert untyped.column(1) == (["x", None], None)

    def test_huge_ints_extract_unchanged(self):
        batch = ColumnBatch([(2**70, "x", 0.0)], _DTYPES)
        assert batch.column(0).values == [2**70]

    def test_narrowed_shares_column_cache(self):
        rows = [(i, str(i), float(i)) for i in range(4)]
        batch = ColumnBatch(rows, _DTYPES)
        column = batch.column(0)
        narrowed = batch.narrowed([1, 3])
        assert narrowed.column(0) is column  # extraction shared, not redone
        assert len(narrowed) == 2
        assert narrowed.selected_rows() == [rows[1], rows[3]]

    def test_group_kernel(self):
        rows = [(i % 2, f"s{i}", float(i)) for i in range(6)]
        batch = ColumnBatch(rows, _DTYPES).narrowed([0, 2, 3, 5])
        order, buckets = hash_group_keys(batch, [0])
        assert order == [0, 1]
        assert buckets == {0: [0, 2], 1: [3, 5]}


def _bound(sql):
    """``sql`` bound against a one-table schema ``t(a, b)``: kernels read
    the binder's answer, never a bare name."""
    return Binder(lambda name: [("a", None), ("b", None)]).select(parse(sql))


class TestKernelCompilation:
    def _batch(self):
        rows = [(1, "x"), (None, "y"), (3, None), (4, "x")]
        return ColumnBatch(rows, [DataType.INTEGER, DataType.TEXT])

    def _kernels(self, where):
        from repro.storage.planner import _split_conjuncts

        statement = _bound(f"SELECT a FROM t WHERE {where}")
        bindings = [("t", ["a", "b"])]
        return compile_columnar_conjuncts(_split_conjuncts(statement.where), bindings)

    def _select(self, where):
        kernels = self._kernels(where)
        assert kernels is not None, where
        selection = apply_kernels(kernels, self._batch())
        if selection is None:
            return [0, 1, 2, 3]
        return selection

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

    def test_uncompilable_conjunct_rejects_whole_set(self):
        from repro.storage.planner import _split_conjuncts

        statement = _bound("SELECT a FROM t WHERE a > 1 AND a + 1 > 2")
        bindings = [("t", ["a", "b"])]
        assert (
            compile_columnar_conjuncts(_split_conjuncts(statement.where), bindings)
            is None
        )


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


@functools.cache
def _grid_scan_batch() -> ColumnBatch:
    """The grid table's rows as a heap scan hands them on: one typed batch."""
    db = Database()
    columns = ", ".join(f"{name} {kind}" for name, (kind, _) in GRID_COLUMNS.items())
    db.execute(f"CREATE TABLE g ({columns})")
    db.insert_rows("g", [dict(zip(GRID_COLUMNS, row)) for row in GRID_ROWS])
    scan = SeqScan(db.table("g"), "g", 0.0)
    ctx = ExecutionContext(metrics=ExecutionStats(), batch_size=len(GRID_ROWS))
    (batch,) = scan.col_batches(ctx)
    return batch


class TestKernelsMatchEvaluator:
    """The evaluator is the kernels' contract: on a typed scan batch and on
    an untyped view of the same rows, every kernel shape keeps exactly the
    rows where ``is_true(evaluate(...))`` holds."""

    @pytest.mark.parametrize("condition", GRID_CONDITIONS)
    def test_kernel_agrees_with_evaluator(self, condition):
        where = Binder(lambda name: [(c, None) for c in GRID_COLUMNS]).select(
            parse(f"SELECT i FROM g WHERE {condition}")
        ).where
        bindings = [("g", list(GRID_COLUMNS))]
        kernel = compile_columnar_predicate(where, bindings)
        assert kernel is not None, condition
        typed = _grid_scan_batch()
        layout = layout_of(bindings)
        expected = [
            position
            for position, row in enumerate(typed.rows)
            if is_true(evaluate(where, Scope(layout, row)))
        ]
        evens = list(range(0, len(typed.rows), 2))
        untyped = ColumnBatch(typed.rows, (None,) * len(GRID_COLUMNS))
        for batch in (typed, untyped):
            assert kernel(batch, None) == expected, condition
            assert kernel(batch, evens) == [p for p in expected if p % 2 == 0], condition


class TestAnalyzeCounters:
    def test_columnar_counters_in_stats_and_summary(self):
        db = _make_db()
        explanation = db.explain("SELECT id FROM readings WHERE value > 5.0", analyze=True)
        assert explanation.stats.columnar_batches > 0
        text = explanation.text()
        assert "columnar: batches=" in text
        assert "kernels=" in text

    def test_node_stats_report_columnar_batches(self):
        db = _make_db(ExecutionSettings(batch_size=64))
        text = db.explain("SELECT id FROM readings WHERE value > 5.0", analyze=True).text()
        assert "columnar=" in text

    def test_row_engine_summary_unchanged(self, reference):
        """A conjunct with no kernel keeps the whole plan on row batches: no
        columnar summary line, and the rows still match sqlite."""
        db = _make_db()
        sql = "SELECT id FROM readings WHERE value * 2 > 10.0"
        explanation = db.explain(sql, analyze=True)
        assert isinstance(explanation.root, Filter)
        assert explanation.root.kernels is None
        assert "columnar:" not in explanation.text()
        assert_matches_sqlite(sql, db.execute(sql).rows, reference)


class TestPlanVerifierColumnarContract:
    def test_real_plans_satisfy_the_contract(self):
        db = _make_db(ExecutionSettings(verify_plans=True))
        for sql in QUERIES:
            db.execute(sql)  # verifier raises on any ERROR diagnostic

    def test_capable_operator_outside_scan_family_fires(self):
        from repro.analysis.plan_verify import PlanVerifier

        class FakeCapable:
            bindings = [("t", ["a"]), ("u", ["b"])]
            children = ()

            def columnar_capable(self):
                return True

            def label(self):
                return "FakeCapable"

        diagnostics: list = []
        PlanVerifier()._check_columnar(FakeCapable(), diagnostics)
        rules = {d.rule for d in diagnostics}
        assert "plan-columnar-contract" in rules
        # Both promises break: two bindings, and not a heap-scan/filter.
        assert len(diagnostics) == 2

    def test_capable_filter_over_row_child_fires(self):
        from repro.analysis.plan_verify import PlanVerifier
        from repro.storage.operators import Filter

        db = _make_db()
        root = db.explain("SELECT id FROM readings WHERE value > 5.0").root
        assert isinstance(root, Filter) and root.columnar_capable()
        # Break the chain: the child loses its capability but the Filter's
        # claim goes stale — the exact inconsistency the rule exists to catch
        # (Filter.columnar_capable() normally recomputes through the child).
        root.columnar_capable = lambda: True
        root.child.columnar_capable = lambda: False
        diagnostics: list = []
        PlanVerifier()._check_columnar(root, diagnostics)
        assert any(d.rule == "plan-columnar-contract" for d in diagnostics)


class TestColumnarMutationLint:
    def _lint(self, tmp_path, code):
        from repro.analysis.hazard_lint import lint_paths

        directory = tmp_path / "storage"
        directory.mkdir(exist_ok=True)
        (directory / "fixture.py").write_text(textwrap.dedent(code))
        return list(lint_paths([tmp_path]))

    def test_mutating_a_foreign_batch_fires(self, tmp_path):
        diagnostics = self._lint(
            tmp_path,
            """
            def bad_kernel(batch):
                batch.selection = [0]
                batch.rows.append({})
                return batch
            """,
        )
        fired = [d for d in diagnostics if d.rule == "columnar-mutation"]
        assert len(fired) == 2

    def test_stream_consumer_mutation_fires(self, tmp_path):
        diagnostics = self._lint(
            tmp_path,
            """
            def consume(scan, ctx):
                for chunk in scan.col_batches(ctx):
                    chunk.rows[0] = {}
            """,
        )
        assert any(d.rule == "columnar-mutation" for d in diagnostics)

    def test_locally_allocated_batch_is_exempt(self, tmp_path):
        diagnostics = self._lint(
            tmp_path,
            """
            def build(dtypes, rows):
                batch = ColumnBatch([], dtypes)
                batch.rows.extend(rows)
                return batch
            """,
        )
        assert not any(d.rule == "columnar-mutation" for d in diagnostics)

    def test_selection_vector_output_is_clean(self, tmp_path):
        diagnostics = self._lint(
            tmp_path,
            """
            def kernel(batch, limit):
                values = batch.column(0).values
                return [i for i, v in enumerate(values) if v is not None and v < limit]
            """,
        )
        assert not any(d.rule == "columnar-mutation" for d in diagnostics)

    def test_engine_source_is_clean(self):
        from pathlib import Path

        from repro.analysis.hazard_lint import lint_paths

        src = Path(__file__).resolve().parent.parent / "src" / "repro" / "storage"
        report = lint_paths([src])
        assert not any(d.rule == "columnar-mutation" for d in report)
