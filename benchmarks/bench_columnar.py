"""Columnar kernel benchmark: batch kernels vs the batched row path.

The columnar execution lane (PR 9) keeps the batched Volcano shape but moves
scan→filter→project pipelines through :class:`ColumnBatch` spans of bare
stored rows: filter conjuncts run as branch-light selection-vector kernels,
projection is one per-batch column gather, and no per-row ``{binding: row}``
wrapper dict is ever allocated.  This experiment quantifies that change on a
NULL-heavy mixed-type table over the engine's compiled-predicate shapes
(comparisons, AND chains, IN, BETWEEN, LIKE, NULL tests, full projection):

* **row-path** — the PR-6 batched engine, reproduced exactly by
  ``ExecutionSettings(columnar_kernels=False)`` (compiled row predicates,
  vectorized aggregation — only the columnar lane is off),
* **columnar** — the shipped defaults (``columnar_kernels=True``).

Acceptance gate: the columnar lane must beat the batched row path by ≥2x in
full mode (≥1.2x smoke) on total time over the filter+project mix, with
exactly equal result sets on every query.

Results land in ``BENCH_columnar.json`` (``BENCH_columnar.smoke.json`` under
``REPRO_BENCH_SMOKE=1``).
"""

from __future__ import annotations

import time

from bench_common import print_table, smoke_mode, write_bench_json
from repro.storage import Database, ExecutionSettings

NUM_ROWS = 8_000 if smoke_mode() else 60_000
TIMING_LOOPS = 2 if smoke_mode() else 3

#: The filter+project scan mix: every compiled-predicate shape the kernel
#: library covers, over NULL-bearing int/float/text columns.
MIX_SQL = [
    ("narrow-filter", "SELECT id, value FROM readings WHERE value > 25.0"),
    ("selective-and", "SELECT id FROM readings WHERE flag = 1 AND value > 10.0"),
    (
        "triple-and",
        "SELECT id FROM readings "
        "WHERE flag = 1 AND value > 10.0 AND station LIKE 'st%'",
    ),
    ("in-list", "SELECT id, flag FROM readings WHERE station IN ('st1', 'st4', 'st7')"),
    ("between", "SELECT id, value FROM readings WHERE value BETWEEN 10.0 AND 20.0"),
    ("null-test", "SELECT id FROM readings WHERE value IS NOT NULL AND flag IS NOT NULL"),
    ("like-scan", "SELECT id, station FROM readings WHERE station LIKE 'st1%'"),
    ("project-all", "SELECT id, station, value, flag FROM readings"),
]

POPULARITY_SQL = (
    "SELECT station, COUNT(*), COUNT(value), SUM(value), MIN(value), MAX(value) "
    "FROM readings GROUP BY station ORDER BY station"
)

VARIANTS = {
    "row-path": ExecutionSettings(columnar_kernels=False),
    "columnar": ExecutionSettings(),
}

_DB_CACHE: dict[str, Database] = {}


def _build(variant: str) -> Database:
    if variant in _DB_CACHE:
        return _DB_CACHE[variant]
    db = Database(name=f"columnar_{variant}", exec_settings=VARIANTS[variant])
    db.execute(
        "CREATE TABLE readings (id INTEGER, station TEXT, value FLOAT, flag INTEGER)"
    )
    db.insert_rows(
        "readings",
        [
            {
                "id": i,
                "station": None if i % 11 == 0 else f"st{i % 9}",
                "value": None if i % 7 == 0 else float((i * 13) % 97) / 3.0,
                "flag": None if i % 5 == 0 else i % 3,
            }
            for i in range(NUM_ROWS)
        ],
    )
    _DB_CACHE[variant] = db
    return db


def _best_seconds(db: Database, sql: str) -> float:
    best = float("inf")
    for _ in range(TIMING_LOOPS):
        started = time.perf_counter()
        db.execute(sql)
        best = min(best, time.perf_counter() - started)
    return best


class TestColumnarKernels:
    def test_mix_speedup_and_equivalence(self):
        """The headline: ≥2x (full) on the filter+project mix, exact results."""
        row_db = _build("row-path")
        col_db = _build("columnar")
        timings: dict[str, dict[str, float]] = {"row-path": {}, "columnar": {}}
        table_rows = []
        for name, sql in MIX_SQL:
            expected = row_db.execute(sql).rows
            got = col_db.execute(sql).rows
            # Cross-path correctness gate: exact equality, not just speed.
            assert sorted(got) == sorted(expected), name
            row_seconds = _best_seconds(row_db, sql)
            col_seconds = _best_seconds(col_db, sql)
            timings["row-path"][name] = row_seconds
            timings["columnar"][name] = col_seconds
            table_rows.append(
                (
                    name,
                    f"{row_seconds * 1000:.1f}ms",
                    f"{col_seconds * 1000:.1f}ms",
                    f"{row_seconds / col_seconds:.2f}x",
                )
            )
        row_total = sum(timings["row-path"].values())
        col_total = sum(timings["columnar"].values())
        mix_speedup = row_total / col_total
        table_rows.append(
            (
                "mix total",
                f"{row_total * 1000:.1f}ms",
                f"{col_total * 1000:.1f}ms",
                f"{mix_speedup:.2f}x",
            )
        )
        print_table(
            "Columnar kernels: filter+project scan mix",
            ["query", "row-path", "columnar", "speedup"],
            table_rows,
        )
        write_bench_json(
            "columnar",
            {
                "rows": NUM_ROWS,
                "seconds": timings,
                "mix_speedup": round(mix_speedup, 3),
            },
        )
        floor = 1.2 if smoke_mode() else 2.0
        assert mix_speedup >= floor, (
            f"columnar lane only {mix_speedup:.2f}x over the batched row path "
            f"(needed ≥{floor}x)"
        )

    def test_columnar_off_reproduces_row_path_exactly(self):
        """``columnar_kernels=False`` must be byte-for-byte today's engine:
        zero columnar batches and identical rows on every mix query."""
        row_db = _build("row-path")
        for _, sql in MIX_SQL:
            explanation = row_db.explain(sql, analyze=True)
            assert explanation.stats is not None
            assert explanation.stats.columnar_batches == 0
        col_db = _build("columnar")
        grouped = POPULARITY_SQL
        assert row_db.execute(grouped).rows == col_db.execute(grouped).rows
