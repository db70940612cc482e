"""Integration tests: telemetry, timeouts, and admission control end to end.

Covers the observability acceptance contract: per-statement timeouts cancel a
runaway multi-batch query at a batch boundary with both stores consistent
(verified by durable reopen), a rate-limited principal gets the typed
pre-execution rejection while other principals proceed, and
``CQMS.metrics_text()`` exposes the full telemetry surface (≥ 25 distinct
series) in lint-clean Prometheus exposition format.
"""

import shutil
import tempfile

import pytest

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.client import Workbench
from repro.errors import QueryTimeoutError, RateLimitedError, ReproError
from repro.obs import QueryLimits
from repro.storage import ExecutionSettings, kernels
from repro.storage.database import Database

RUNAWAY_ROWS = 4_000


def _runaway_db(exec_settings: ExecutionSettings | None = None) -> Database:
    db = Database(name="obs_runaway", exec_settings=exec_settings)
    db.execute("CREATE TABLE big (x INTEGER, y FLOAT)")
    db.insert_rows(
        "big", [{"x": i, "y": float(i % 97)} for i in range(RUNAWAY_ROWS)]
    )
    return db


def _cqms(config: CQMSConfig | None = None):
    clock = SimulatedClock()
    database = build_database("limnology", scale=1, clock=clock)
    cqms = CQMS(database, config or CQMSConfig(), clock=clock)
    cqms.register_user("ana", "limno")
    cqms.register_user("ben", "limno")
    return cqms, clock


class TestStatementTimeouts:
    def test_runaway_scan_cancelled_at_batch_boundary(self):
        db = _runaway_db()
        with pytest.raises(QueryTimeoutError, match="batch boundary"):
            db.execute("SELECT * FROM big WHERE y >= 0", timeout_seconds=1e-9)
        # The same statement with a generous budget completes untouched.
        result = db.execute("SELECT * FROM big WHERE y >= 0", timeout_seconds=60.0)
        assert len(result) == RUNAWAY_ROWS

    @pytest.mark.parametrize(
        "aggregates",
        ["SUM(x)", "SUM(x + 0)"],
        ids=["column-argument", "computed-argument"],
    )
    def test_grouped_scan_cancels_within_one_batch(self, aggregates, monkeypatch):
        """An expired budget stops a GROUP BY at the first batch boundary
        whether its argument is a column's getter or a computed closure, not
        after the whole heap has been read."""
        settings = ExecutionSettings()
        db = _runaway_db(settings)
        table = db.table("big")
        assert len(table) > 4 * settings.batch_size  # multi-batch
        pulled = 0
        scan, scan_row_lists = table.scan, table.scan_row_lists

        def counted_scan():
            nonlocal pulled
            for pair in scan():
                pulled += 1
                yield pair

        def counted_row_lists():
            nonlocal pulled
            for rows in scan_row_lists():
                pulled += len(rows)
                yield rows

        monkeypatch.setattr(table, "scan", counted_scan)
        monkeypatch.setattr(table, "scan_row_lists", counted_row_lists)
        with pytest.raises(QueryTimeoutError, match="batch boundary"):
            db.execute(
                f"SELECT y, COUNT(*), {aggregates} FROM big WHERE x >= 0 GROUP BY y",
                timeout_seconds=1e-9,
            )
        assert 0 < pulled <= settings.batch_size

    @pytest.mark.parametrize(
        "sql, expected_rows",
        [
            ("SELECT a.x, b.z FROM a LEFT JOIN b ON a.x = b.x + 0", 30),
            ("SELECT a.x, b.z FROM a FULL JOIN b ON a.x = b.x + 0", 40),
            ("SELECT a.x, b.z FROM a, b WHERE a.x + b.x = 7", 8),
        ],
        ids=["left-outer", "full-outer", "nested-loop"],
    )
    def test_nested_loop_joins_cancel_within_one_left_row(
        self, sql, expected_rows, monkeypatch
    ):
        """The joins that evaluate a condition per (left, right) pair — an
        ON with no equi pair, a cross join under a WHERE — check the budget
        once per left (probe) row: a scan flush alone is a whole left batch
        times the right side away."""
        right_rows = 40
        db = Database(
            name="obs_joins", exec_settings=ExecutionSettings(batch_size=right_rows)
        )
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (x INTEGER, z INTEGER)")
        db.insert_rows("a", [{"x": i} for i in range(30)])
        db.insert_rows("b", [{"x": i, "z": i * 10} for i in range(right_rows)])
        evaluations = 0
        compile_expression = kernels.compile_expression

        def counted_compile(*args):
            predicate = compile_expression(*args)

            def counted(row):
                nonlocal evaluations
                evaluations += 1
                return predicate(row)

            return counted

        # The condition compiles when the statement is planned: count the
        # calls of its compiled predicate from then on, the cached plan's too.
        monkeypatch.setattr(kernels, "compile_expression", counted_compile)
        assert len(db.execute(sql, timeout_seconds=60.0)) == expected_rows

        evaluations = 0
        expire_after = 5 * right_rows + 3  # mid-way through the sixth left row
        # The clock jumps past any deadline at the k-th condition evaluation.
        db.statement_timer = lambda: 1e9 if evaluations >= expire_after else 0.0
        with pytest.raises(QueryTimeoutError):
            db.execute(sql, timeout_seconds=60.0)
        assert expire_after <= evaluations <= expire_after + right_rows

    def test_timed_out_dml_leaves_table_unchanged(self):
        db = _runaway_db()
        with pytest.raises(QueryTimeoutError):
            db.execute("DELETE FROM big WHERE y >= 0", timeout_seconds=1e-9)
        # Cancellation happens in the target-materialization (read) phase,
        # before any write begins — no half-applied mutation.
        assert db.execute("SELECT count(*) FROM big").rows == [(RUNAWAY_ROWS,)]
        with pytest.raises(QueryTimeoutError):
            db.execute("UPDATE big SET y = 0 WHERE y > 1", timeout_seconds=1e-9)
        assert db.execute("SELECT count(*) FROM big WHERE y > 1").rows[0][0] > 0

    def test_timeout_counted_and_trace_spans_present(self):
        cqms, _ = _cqms(CQMSConfig(trace_operators=True))
        with pytest.raises(QueryTimeoutError):
            cqms.database.execute(
                "SELECT * FROM SensorReadings WHERE value >= 0", timeout_seconds=1e-9
            )
        series = {
            name: instance.value
            for name, labels, instance in cqms.metrics.series()
            if labels.get("engine") == "database"
        }
        assert series.get("repro_queries_timed_out_total", 0) == 1
        # A successful statement records the parse → plan → execute pipeline
        # plus per-operator spans (trace_operators=True).
        cqms.submit("ana", "SELECT * FROM SensorReadings WHERE value > 1")
        trace = cqms.telemetry.last_trace
        names = [span.name for span in trace.spans]
        assert names[:2] == ["parse", "plan"]
        assert "execute" in names
        assert any(name.startswith("op:") for name in names)

    def test_timed_out_submission_logged_and_survives_reopen(self):
        data_dir = tempfile.mkdtemp(prefix="obs_timeout_")
        try:
            clock = SimulatedClock()
            db = build_database("limnology", scale=1, clock=clock)
            config = CQMSConfig(data_dir=data_dir, wal_sync="commit")
            with CQMS(db, config, clock=clock) as cqms:
                cqms.register_user("ana", "limno")
                cqms.set_user_limits(
                    "ana", QueryLimits(statement_timeout_seconds=1e-9)
                )
                execution = cqms.submit(
                    "ana", "SELECT * FROM SensorReadings WHERE value >= 0"
                )
                # The cancellation is reported, not raised: the failed attempt
                # is logged like any other failed statement.
                assert not execution.succeeded
                assert "timeout" in execution.error
                qid = execution.record.qid
                cqms.set_user_limits("ana", None)
                assert cqms.submit("ana", "SELECT * FROM Sensors").succeeded
                # The durable store's WAL mirror shows up in the exposition.
                assert "repro_wal_records_total" in cqms.metrics_text()
            # The store reopened from disk is consistent: both records
            # recovered, the timed-out one still marked failed.
            db2 = build_database("limnology", scale=1)
            with CQMS(db2, CQMSConfig(data_dir=data_dir)) as reopened:
                record = reopened.store.get(qid)
                assert record.runtime is not None
                assert not record.runtime.succeeded
                assert len(reopened.store) == 2
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)


class TestRateLimits:
    def test_limited_principal_sheds_while_others_proceed(self):
        cqms, clock = _cqms()
        cqms.set_user_limits("ben", QueryLimits(rate_limit_qps=1.0, rate_limit_burst=1.0))
        sql = "SELECT * FROM Sensors"
        assert cqms.submit("ben", sql).succeeded
        with pytest.raises(RateLimitedError, match="rate limit"):
            cqms.submit("ben", sql)
        # The rejection is pre-execution: nothing was logged for it.
        assert len(cqms.store) == 1
        # Other principals are untouched by ben's dry bucket.
        for _ in range(3):
            assert cqms.submit("ana", sql).succeeded
        # The bucket refills from the injected clock.
        clock.advance(1.0)
        assert cqms.submit("ben", sql).succeeded
        rejected = {
            labels["principal"]: instance.value
            for name, labels, instance in cqms.metrics.series()
            if "queries_rejected" in name
        }
        assert rejected == {"ben": 1.0}

    def test_config_wide_default_rate_limit(self):
        cqms, _ = _cqms(CQMSConfig(rate_limit_qps=1.0, rate_limit_burst=1.0))
        assert cqms.submit("ana", "SELECT * FROM Sensors").succeeded
        with pytest.raises(RateLimitedError):
            cqms.submit("ana", "SELECT * FROM Sensors")

    def test_set_limits_requires_registered_principal(self):
        cqms, _ = _cqms()
        with pytest.raises(ReproError):
            cqms.set_user_limits("nobody", QueryLimits(rate_limit_qps=1.0))


class TestAdmissionWithoutTelemetry:
    """Turning telemetry off drops admission's counters, not its verdicts."""

    def test_statement_timeout_still_cancels(self):
        cqms, _ = _cqms(
            CQMSConfig(telemetry_enabled=False, statement_timeout_seconds=1e-9)
        )
        execution = cqms.submit("ana", "SELECT * FROM SensorReadings WHERE value >= 0")
        assert not execution.succeeded
        assert "timeout" in execution.error

    def test_rate_limit_still_sheds(self):
        cqms, _ = _cqms(CQMSConfig(telemetry_enabled=False))
        cqms.set_user_limits("ben", QueryLimits(rate_limit_qps=1.0, rate_limit_burst=1.0))
        assert cqms.submit("ben", "SELECT * FROM Sensors").succeeded
        for _ in range(2):
            with pytest.raises(RateLimitedError):
                cqms.submit("ben", "SELECT * FROM Sensors")
        assert len(cqms.store) == 1


class TestMetricsSurface:
    def test_metrics_text_exposes_full_surface(self):
        from repro.analysis.exposition_lint import lint_exposition

        cqms, clock = _cqms(CQMSConfig(slow_query_threshold_seconds=0.0))
        for sql in (
            "SELECT * FROM Sensors",
            "SELECT sensor_id, count(*) FROM SensorReadings GROUP BY sensor_id",
        ):
            clock.advance(1.0)
            cqms.submit("ana", sql)
        cqms.search_keyword("ana", ["sensors"])  # meta-database traffic
        text = cqms.metrics_text()
        assert cqms.metrics.series_count() >= 25
        report = lint_exposition(text, min_series=25)
        assert not report.has_errors, report.render()
        for needle in (
            "repro_statements_total",
            "repro_statement_seconds_bucket",
            "repro_plan_cache_hits_total",
            "repro_rows_scanned_total",
            "repro_statement_cache_hits_total",
            "repro_user_queries_total",
            "repro_profiler_overhead_seconds",
            "repro_queries_admitted_total",
            'engine="database"',
            'engine="query_storage"',
        ):
            assert needle in text, needle
        # Sub-threshold-0 everything is slow; the ring captured the traffic.
        assert len(cqms.slow_queries()) >= 2

    def test_workbench_metrics_panel(self):
        cqms, _ = _cqms()
        cqms.submit("ana", "SELECT * FROM Sensors")
        panel = Workbench(cqms, user="ana").metrics_panel()
        assert "repro_statement_seconds" in panel
        assert "p99" in panel

    def test_telemetry_can_be_disabled(self):
        cqms, _ = _cqms(CQMSConfig(telemetry_enabled=False))
        assert cqms.metrics is None
        assert cqms.submit("ana", "SELECT * FROM Sensors").succeeded
        with pytest.raises(ReproError):
            cqms.metrics_text()
        panel = Workbench(cqms, user="ana").metrics_panel()
        assert "disabled" in panel
