"""Execution-engine benchmark: row-at-a-time vs batched scans.

The batched execution refactor moves rows through the operator tree in
~256-row batches with compiled predicate/projection fast paths, replacing the
seed engine's one-row-per-``next()`` Volcano loop (per-row Scope construction
and recursive ``evaluate`` dispatch).  This experiment quantifies that change
on the Figure 1 meta-query mix over a 50k-row feature-relation shape:

* **row-at-a-time** — the historical engine model, reproduced exactly by
  ``ExecutionSettings(batch_size=1, compile_expressions=False)``,
* **batched** — the shipped defaults (batch_size=256, compiled expressions).

Acceptance gate: the batched engine must beat row-at-a-time by ≥2x on the
SeqScan+HashJoin meta-query, with identical result sets (and identical order
under ORDER BY) across batch sizes 1/256.

The aggregation experiment (``TestAggEngine``) isolates the vectorized
aggregation stage added on top of the batched engine: grouped queries now run
through ``HashAggregate``/``SortedGroupAggregate`` with incremental
accumulators instead of the executor's historical materialize-then-rewalk
pass.  Its variants hold the batched scan machinery fixed and toggle only
``vectorized_aggregation``, so the measured delta is the aggregation rewrite
itself.

Results are written to ``BENCH_exec.json`` / ``BENCH_agg.json``
(machine-readable, tracked across PRs); ``REPRO_BENCH_SMOKE=1`` shrinks the
tables for CI smoke runs (smoke results go to ``BENCH_*.smoke.json`` and are
uploaded as CI artifacts).
"""

from __future__ import annotations

import time

from bench_common import print_table, smoke_mode, write_bench_json
from repro.storage import Database, ExecutionSettings

NUM_QUERIES = 2_000 if smoke_mode() else 10_000
ATTRS_PER_QUERY = 5  # Attributes rows = NUM_QUERIES * ATTRS_PER_QUERY (50k full)
RELATIONS = [f"rel{i}" for i in range(10)]
TIMING_LOOPS = 2 if smoke_mode() else 3

#: The headline SeqScan+HashJoin meta-query (Figure 1's query-by-feature
#: shape, unindexed so the scan/join engine — not an index — does the work).
JOIN_SQL = (
    "SELECT Q.qid, A.attrName FROM Queries Q, Attributes A "
    "WHERE Q.qid = A.qid AND A.relName = 'rel3'"
)

#: The rest of the interactive meta-query mix: browse refresh (filter scan),
#: session timeline (ORDER BY + LIMIT), and a grouped popularity roll-up.
MIX_SQL = [
    ("filter-scan", "SELECT qid, userName FROM Queries WHERE userName = 'user7'"),
    (
        "timeline",
        "SELECT qid, ts FROM Queries WHERE ts > 100.0 ORDER BY ts DESC LIMIT 50",
    ),
    (
        "popularity",
        "SELECT relName, COUNT(*) FROM Attributes GROUP BY relName ORDER BY relName",
    ),
]

VARIANTS = {
    "row-at-a-time": ExecutionSettings(
        batch_size=1,
        compile_expressions=False,
        vectorized_aggregation=False,
    ),
    "batched": ExecutionSettings(batch_size=256),
}

#: Aggregation-stage variants: identical batched scans, only the aggregation
#: path differs — ``batched-baseline`` is what PR 4 shipped (grouping in the
#: executor), the delta to ``vectorized`` is the aggregation rewrite alone.
AGG_VARIANTS = {
    "row-at-a-time": VARIANTS["row-at-a-time"],
    "batched-baseline": ExecutionSettings(
        batch_size=256, vectorized_aggregation=False
    ),
    "vectorized": ExecutionSettings(batch_size=256),
}

_DB_CACHE: dict[str, Database] = {}


def _build(variant: str) -> Database:
    if variant in _DB_CACHE:
        return _DB_CACHE[variant]
    settings = VARIANTS[variant] if variant in VARIANTS else AGG_VARIANTS[variant]
    db = Database(name=f"exec_{variant}", exec_settings=settings)
    db.execute("CREATE TABLE Queries (qid INTEGER, userName TEXT, ts FLOAT)")
    db.execute("CREATE TABLE Attributes (qid INTEGER, attrName TEXT, relName TEXT)")
    db.insert_rows(
        "Queries",
        [
            {"qid": qid, "userName": f"user{qid % 20}", "ts": float(qid)}
            for qid in range(NUM_QUERIES)
        ],
    )
    db.insert_rows(
        "Attributes",
        [
            {
                "qid": i // ATTRS_PER_QUERY,
                "attrName": f"attr{i % 7}",
                "relName": RELATIONS[i % len(RELATIONS)],
            }
            for i in range(NUM_QUERIES * ATTRS_PER_QUERY)
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


class TestExecEngine:
    def test_join_speedup_and_trajectory(self):
        """The headline: ≥2x on the 50k-row SeqScan+HashJoin meta-query."""
        timings: dict[str, dict[str, float]] = {}
        for variant in VARIANTS:
            db = _build(variant)
            timings[variant] = {"join": _best_seconds(db, JOIN_SQL)}
            for name, sql in MIX_SQL:
                timings[variant][name] = _best_seconds(db, sql)
        base = timings["row-at-a-time"]
        rows = []
        for variant, by_query in timings.items():
            for name, seconds in by_query.items():
                rows.append(
                    (
                        variant,
                        name,
                        f"{seconds * 1000:.1f}ms",
                        f"{base[name] / seconds:.2f}x",
                    )
                )
        print_table(
            "Execution engine: Figure 1 meta-query mix",
            ["variant", "query", "best latency", "speedup vs row-at-a-time"],
            rows,
        )
        batched_speedup = base["join"] / timings["batched"]["join"]
        write_bench_json(
            "exec",
            {
                "rows": {
                    "Queries": NUM_QUERIES,
                    "Attributes": NUM_QUERIES * ATTRS_PER_QUERY,
                },
                "seconds": timings,
                "join_speedup_batched": round(batched_speedup, 3),
            },
        )
        # Smoke runs shrink the tables until fixed costs dominate; the full
        # run enforces the acceptance bar.
        floor = 1.2 if smoke_mode() else 2.0
        assert batched_speedup >= floor, (
            f"batched engine only {batched_speedup:.2f}x over row-at-a-time "
            f"(needed ≥{floor}x)"
        )

    def test_identical_results_across_batch_sizes(self):
        expected = {sql: _build("row-at-a-time").execute(sql).rows
                    for _, sql in MIX_SQL}
        expected[JOIN_SQL] = _build("row-at-a-time").execute(JOIN_SQL).rows
        for batch_size in (1, 256):
            db = Database(exec_settings=ExecutionSettings(batch_size=batch_size))
            source = _build("batched")
            for table in ("Queries", "Attributes"):
                schema = source.table(table).schema
                db.create_table(schema)
                db.insert_rows(table, source.table(table).rows())
            for sql, rows in expected.items():
                got = db.execute(sql).rows
                if "ORDER BY" in sql:
                    assert got == rows, (batch_size, sql)
                else:
                    assert sorted(got) == sorted(rows), (batch_size, sql)

    def test_explain_analyze_row_counts_match_metrics(self):
        db = _build("batched")
        explanation = db.explain(JOIN_SQL, analyze=True)
        result = db.execute(JOIN_SQL)
        assert explanation.analyzed and explanation.stats is not None
        # Per-operator actuals are consistent with the engine's honest
        # rows_scanned metric: both scans touch every heap row once.
        total_heap = len(db.table("Queries")) + len(db.table("Attributes"))
        assert explanation.stats.rows_scanned == total_heap == result.stats.rows_scanned
        text = explanation.text()
        assert f"(actual rows={len(db.table('Attributes'))}" in text
        assert f"(actual rows={len(db.table('Queries'))}" in text
        assert f"Execution: {len(result.rows)} rows" in text


#: The grouped meta-query workload: the Figure 1 popularity roll-up plus
#: multi-aggregate, HAVING, and high-cardinality group-key variants.
AGG_SQL = [
    (
        "popularity",
        "SELECT relName, COUNT(*) FROM Attributes GROUP BY relName ORDER BY relName",
    ),
    (
        "multi-agg",
        "SELECT userName, COUNT(*), AVG(ts), MAX(ts) FROM Queries GROUP BY userName",
    ),
    (
        "having",
        "SELECT relName, COUNT(*) FROM Attributes GROUP BY relName "
        "HAVING COUNT(*) > 100 ORDER BY relName",
    ),
    (
        "high-cardinality",
        "SELECT qid, COUNT(*), MAX(attrName) FROM Attributes GROUP BY qid",
    ),
]


class TestAggEngine:
    def test_agg_speedups(self):
        """Vectorized aggregation ≥3x on the popularity GROUP BY (full run)."""
        timings: dict[str, dict[str, float]] = {}
        for variant in AGG_VARIANTS:
            db = _build(variant)
            timings[variant] = {
                name: _best_seconds(db, sql) for name, sql in AGG_SQL
            }
        base = timings["batched-baseline"]
        rows = []
        for variant, by_query in timings.items():
            for name, seconds in by_query.items():
                rows.append(
                    (
                        variant,
                        name,
                        f"{seconds * 1000:.1f}ms",
                        f"{base[name] / seconds:.2f}x",
                    )
                )
        print_table(
            "Vectorized aggregation: grouped meta-query mix",
            ["variant", "query", "best latency", "speedup vs batched-baseline"],
            rows,
        )
        speedups = {
            name: {
                variant: round(base[name] / timings[variant][name], 3)
                for variant in AGG_VARIANTS
            }
            for name, _ in AGG_SQL
        }
        popularity_speedup = base["popularity"] / timings["vectorized"]["popularity"]
        write_bench_json(
            "agg",
            {
                "rows": {
                    "Queries": NUM_QUERIES,
                    "Attributes": NUM_QUERIES * ATTRS_PER_QUERY,
                },
                "seconds": timings,
                "speedups_vs_batched_baseline": speedups,
                "popularity_speedup_vectorized": round(popularity_speedup, 3),
            },
        )
        floor = 1.2 if smoke_mode() else 3.0
        assert popularity_speedup >= floor, (
            f"vectorized aggregation only {popularity_speedup:.2f}x over the "
            f"batched baseline on popularity (needed ≥{floor}x)"
        )

    def test_grouped_results_identical_across_variants(self):
        """CI correctness gate: the vectorized aggregation path must return
        exactly what the historical row-at-a-time engine returns
        (``ts`` is integral-valued, so even float sums are exact)."""
        expected = {
            sql: _build("row-at-a-time").execute(sql).rows for _, sql in AGG_SQL
        }
        for variant in ("batched-baseline", "vectorized"):
            db = _build(variant)
            for sql, rows in expected.items():
                got = db.execute(sql).rows
                if "ORDER BY" in sql:
                    assert got == rows, (variant, sql)
                else:
                    assert sorted(got) == sorted(rows), (variant, sql)
