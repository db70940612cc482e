"""Columnar batch kernels: cross-path equivalence, the fused aggregation
lane, EXPLAIN ANALYZE counters, the plan-verifier columnar contract, and the
``columnar-mutation`` hazard rule."""

from __future__ import annotations

import textwrap

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.storage import Database, ExecutionSettings
from repro.storage.binder import Binder
from repro.storage.colbatch import ColumnBatch
from repro.storage.kernels import (
    apply_kernels,
    compile_columnar_conjuncts,
    hash_group_keys,
)
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType
from repro.sql.parser import parse


def _make_db(exec_settings: ExecutionSettings | None = None) -> Database:
    """A NULL-heavy dataset with string, int, and float columns."""
    db = Database(exec_settings=exec_settings)
    db.execute(
        "CREATE TABLE readings (id INTEGER, station TEXT, value FLOAT, flag INTEGER)"
    )
    rows = []
    for i in range(500):
        rows.append(
            {
                "id": i,
                "station": None if i % 11 == 0 else f"st{i % 9}",
                "value": None if i % 7 == 0 else float((i * 13) % 97) / 3.0,
                "flag": None if i % 5 == 0 else i % 3,
            }
        )
    db.insert_rows("readings", rows)
    return db


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


def _sorted_rows(result):
    return sorted(result.rows, key=repr)


def _float_bits(result):
    """Result rows with every float spelled as its exact hex form."""
    return [
        tuple(value.hex() if isinstance(value, float) else value for value in row)
        for row in result.rows
    ]


class TestCrossPathEquivalence:
    """The equivalence matrix: every surviving path ≡ the row-batch path on
    NULL-heavy string data — exact equality, not approximate."""

    def test_variants_match_row_path(self, exec_variant):
        variant = _make_db(exec_variant)
        row = _make_db(ExecutionSettings(columnar_kernels=False))
        for sql in QUERIES:
            got = variant.execute(sql)
            expected = row.execute(sql)
            assert got.columns == expected.columns, sql
            assert got.rows == expected.rows, sql

    def test_float_aggregates_bit_identical(self, exec_variant):
        """Float SUM/AVG fold the same values in the same order on every
        path, so the results agree to the last bit — not just approximately."""
        variant = _make_db(exec_variant)
        row = _make_db(ExecutionSettings(columnar_kernels=False))
        for sql in (
            "SELECT SUM(value), AVG(value) FROM readings",
            "SELECT station, SUM(value), AVG(value) FROM readings GROUP BY station",
        ):
            assert _float_bits(variant.execute(sql)) == _float_bits(row.execute(sql)), sql

    def test_columnar_off_reproduces_row_engine(self):
        """``columnar_kernels=False`` builds zero columnar batches — the
        seed engine, bit for bit."""
        db = _make_db(ExecutionSettings(columnar_kernels=False))
        for sql in QUERIES:
            result = db.execute(sql)
            assert result.stats.columnar_batches == 0, sql
            assert result.stats.kernel_seconds == 0.0, sql

    def test_cached_plan_rebinding_stays_columnar_exact(self):
        """Parameter re-binding on a cached plan must reach the kernels: the
        literal is read per execution, never baked into the closure."""
        columnar = _make_db()
        row = _make_db(ExecutionSettings(columnar_kernels=False))
        template = "SELECT id FROM readings WHERE value > {} AND station = '{}'"
        for threshold, station in [(5.0, "st1"), (20.0, "st4"), (5.0, "st1")]:
            sql = template.format(threshold, station)
            got = columnar.execute(sql)
            assert got.rows == row.execute(sql).rows, sql
        assert columnar.execute(template.format(20.0, "st4")).stats.plan_cache_hit

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
    def test_generated_predicates_agree(self, threshold, stations):
        columnar = TestCrossPathEquivalence._shared_columnar()
        row = TestCrossPathEquivalence._shared_row()
        in_list = ", ".join(f"'{s}'" for s in stations)
        sql = (
            f"SELECT id, value FROM readings "
            f"WHERE value > {threshold}.0 AND station IN ({in_list})"
        )
        assert columnar.execute(sql).rows == row.execute(sql).rows

    _columnar_db = None
    _row_db = None

    @classmethod
    def _shared_columnar(cls):
        if cls._columnar_db is None:
            cls._columnar_db = _make_db()
        return cls._columnar_db

    @classmethod
    def _shared_row(cls):
        if cls._row_db is None:
            cls._row_db = _make_db(ExecutionSettings(columnar_kernels=False))
        return cls._row_db


class TestColumnBatch:
    def _schema(self):
        return TableSchema(
            "t",
            [
                ColumnSchema("a", DataType.INTEGER),
                ColumnSchema("b", DataType.TEXT),
                ColumnSchema("c", DataType.FLOAT),
            ],
        )

    def test_extraction_by_position(self):
        rows = [(1, "x", 1.5), (None, None, 2.5)]
        batch = ColumnBatch("t", self._schema(), rows)
        a = batch.column(0)
        assert a.values == [1, None] and a.dtype is DataType.INTEGER
        b = batch.column(1)
        assert b.values == ["x", None] and b.dtype is DataType.TEXT
        assert batch.column(2).values == [1.5, 2.5]

    def test_huge_ints_extract_unchanged(self):
        batch = ColumnBatch("t", self._schema(), [(2**70, "x", 0.0)])
        assert batch.column(0).values == [2**70]

    def test_narrowed_shares_column_cache(self):
        rows = [(i, str(i), float(i)) for i in range(4)]
        batch = ColumnBatch("t", self._schema(), rows)
        column = batch.column(0)
        narrowed = batch.narrowed([1, 3])
        assert narrowed.column(0) is column  # extraction shared, not redone
        assert len(narrowed) == 2
        assert narrowed.selected_rows() == [rows[1], rows[3]]

    def test_group_kernel(self):
        rows = [(i % 2, f"s{i}", float(i)) for i in range(6)]
        batch = ColumnBatch("t", self._schema(), rows).narrowed([0, 2, 3, 5])
        order, buckets = hash_group_keys(batch, [0])
        assert order == [0, 1]
        assert buckets == {0: [0, 2], 1: [3, 5]}


def _bound(sql):
    """``sql`` bound against a one-table schema ``t(a, b)``: kernels read
    the binder's answer, never a bare name."""
    return Binder(lambda name: [("a", None), ("b", None)]).select(parse(sql))


class TestKernelCompilation:
    def _batch(self):
        schema = TableSchema(
            "t", [ColumnSchema("a", "INTEGER"), ColumnSchema("b", "TEXT")]
        )
        rows = [(1, "x"), (None, "y"), (3, None), (4, "x")]
        return ColumnBatch("t", schema, rows)

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

    def test_row_engine_summary_unchanged(self):
        db = _make_db(ExecutionSettings(columnar_kernels=False))
        text = db.explain("SELECT id FROM readings WHERE value > 5.0", analyze=True).text()
        assert "columnar:" not in text


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
            def build(binding, schema, rows):
                batch = ColumnBatch(binding, schema, [])
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
