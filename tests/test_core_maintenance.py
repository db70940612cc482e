"""Tests for the Query Maintenance component (schema validity, drift, quality)."""

import pytest

from repro.core.records import LoggedQuery, RuntimeStats


@pytest.fixture()
def cqms_with_queries(fresh_cqms):
    cqms = fresh_cqms
    queries = [
        "SELECT T.temp, T.depth FROM WaterTemp T WHERE T.depth < 10",
        "SELECT C.city FROM CityLocations C WHERE C.population > 100000",
        "SELECT * FROM SensorReadings R WHERE R.value > 5",
        "SELECT L.name FROM Lakes L WHERE L.area_km2 > 50",
        "SELECT S.salinity FROM WaterSalinity S WHERE S.salinity > 0.2",
    ]
    for sql in queries:
        execution = cqms.submit("alice", sql)
        assert execution.succeeded, execution.error
    return cqms


class TestSchemaValidity:
    def test_no_changes_no_flags(self, cqms_with_queries):
        report = cqms_with_queries.run_maintenance()
        assert report.flagged == [] and report.repaired == []

    def test_rename_column_repaired(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("ALTER TABLE WaterTemp RENAME COLUMN depth TO depth_m")
        report = cqms.run_maintenance()
        assert 1 in report.repaired
        repaired = cqms.store.get(1)
        assert "depth_m" in repaired.text
        assert not repaired.flagged_invalid
        # The repaired query actually runs against the evolved schema.
        assert cqms.database.execute(repaired.text).stats.statement_kind == "select"

    def test_rename_table_repaired(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("ALTER TABLE SensorReadings RENAME TO SensorMeasurements")
        report = cqms.run_maintenance()
        assert 3 in report.repaired
        assert "sensormeasurements" in cqms.store.get(3).text.lower()

    def test_drop_column_flagged(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("ALTER TABLE CityLocations DROP COLUMN population")
        report = cqms.run_maintenance()
        assert 2 in report.flagged
        record = cqms.store.get(2)
        assert record.flagged_invalid
        assert "population" in record.invalid_reason

    def test_drop_table_flags_queries(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("DROP TABLE Lakes")
        report = cqms.run_maintenance()
        assert 4 in report.flagged
        assert "missing relation lakes" in cqms.store.get(4).invalid_reason

    def test_add_column_does_not_invalidate(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("ALTER TABLE Lakes ADD COLUMN trophic TEXT")
        report = cqms.run_maintenance()
        assert report.flagged == []

    def test_only_stale_queries_rechecked(self, cqms_with_queries):
        cqms = cqms_with_queries
        # No schema change since the queries were logged: nothing to re-check.
        first = cqms.run_maintenance()
        assert first.checked == 0
        # After a schema change every query logged before it is re-checked once.
        cqms.database.execute("ALTER TABLE Lakes ADD COLUMN note TEXT")
        second = cqms.run_maintenance()
        assert second.checked == 5
        # And nothing is re-checked again while the schema stays put.
        third = cqms.run_maintenance()
        assert third.checked == 0

    def test_a_reopen_rechecks_each_record_once(self, tmp_path):
        from repro import CQMS, CQMSConfig, build_database

        d = str(tmp_path / "store")
        with CQMS(build_database("limnology", scale=1, seed=7), config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("alice", group="lab1")
            for bound in range(20):
                cqms.submit("alice", f"SELECT name FROM Lakes WHERE area_km2 > {bound}")
            assert cqms.run_maintenance().checked == 0
        with CQMS(build_database("limnology", scale=1, seed=7), config=CQMSConfig(data_dir=d)) as cqms:
            # A reopened record keeps its log-time features, and the user
            # catalog may have another history than the one it was checked
            # against: each is re-checked once, then not while the schema
            # stays put.
            assert cqms.run_maintenance().checked == 20
            assert cqms.run_maintenance().checked == 0
            cqms.database.execute("ALTER TABLE Lakes ADD COLUMN note TEXT")
            assert cqms.run_maintenance().checked == 20

    @pytest.mark.parametrize(
        "sql, repaired_sql",
        [
            (
                "SELECT name FROM Lakes WHERE name = 'depth' OR name LIKE '%name%'",
                "SELECT lake_name FROM Lakes WHERE lake_name = 'depth' OR lake_name LIKE '%name%'",
            ),
            (
                "SELECT L.name FROM Lakes L WHERE L.state = 'name'",
                "SELECT L.lake_name FROM Lakes L WHERE L.state = 'name'",
            ),
        ],
        ids=["like-pattern", "string-literal"],
    )
    def test_rename_repair_leaves_string_literals_alone(self, fresh_cqms, sql, repaired_sql):
        """The repair renames identifiers only: a literal spelled like the
        renamed column is data, and the repaired query must ask what the
        logged one asked."""
        before = fresh_cqms.submit("alice", sql)
        assert before.succeeded, before.error
        fresh_cqms.database.execute("ALTER TABLE Lakes RENAME COLUMN name TO lake_name")
        report = fresh_cqms.run_maintenance()
        assert report.repaired == [before.record.qid]
        assert fresh_cqms.store.get(before.record.qid).text == repaired_sql
        assert fresh_cqms.database.execute(repaired_sql).rows == before.result.rows

    def test_repair_disabled_flags_instead(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("ALTER TABLE WaterTemp RENAME COLUMN depth TO depth_m")
        report = cqms.maintenance.check_schema_validity(repair=False)
        assert 1 in report.flagged

    def test_queries_over_unaffected_tables_untouched(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.database.execute("ALTER TABLE CityLocations DROP COLUMN population")
        cqms.run_maintenance()
        assert not cqms.store.get(5).flagged_invalid


class TestDropObsolete:
    def test_repeatedly_flagged_queries_dropped(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.config.drop_invalid_after_flags = 2
        cqms.database.execute("ALTER TABLE CityLocations DROP COLUMN population")
        cqms.run_maintenance()
        # Flag once more by re-checking after another (irrelevant) change.
        cqms.database.execute("ALTER TABLE Lakes ADD COLUMN note TEXT")
        cqms.store.set_catalog_version([2], 0)  # force a re-check
        cqms.run_maintenance()
        report = cqms.maintenance.drop_obsolete()
        assert 2 in report.dropped
        assert 2 not in cqms.store

    def test_valid_queries_never_dropped(self, cqms_with_queries):
        cqms = cqms_with_queries
        report = cqms.maintenance.drop_obsolete()
        assert report.dropped == []


class TestStatisticsDrift:
    def test_no_drift_initially(self, cqms_with_queries):
        maintenance = cqms_with_queries.maintenance
        maintenance.snapshot_statistics()
        assert maintenance.detect_drift() == []

    def test_drift_detected_after_bulk_change(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.maintenance.snapshot_statistics()
        cqms.database.execute("DELETE FROM WaterTemp WHERE temp < 15")
        cqms.database.execute("UPDATE WaterTemp SET temp = temp + 40")
        drifted = cqms.maintenance.detect_drift()
        assert "watertemp" in drifted

    def test_refresh_statistics_reexecutes_affected_queries(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.maintenance.snapshot_statistics()
        old_cardinality = cqms.store.get(1).runtime.result_cardinality
        cqms.database.execute("DELETE FROM WaterTemp WHERE depth < 10")
        report = cqms.maintenance.refresh_statistics()
        assert "watertemp" in report.drifted_tables
        assert 1 in report.refreshed_queries
        assert cqms.store.get(1).runtime.result_cardinality != old_cardinality

    def test_refreshed_statistics_reach_the_runtime_stats_relation(self, cqms_with_queries):
        """The record and ``SELECT ... FROM RuntimeStats`` are one fact."""
        cqms = cqms_with_queries
        cqms.maintenance.snapshot_statistics()
        cqms.database.execute("DELETE FROM WaterTemp WHERE depth < 10")
        report = cqms.maintenance.refresh_statistics()
        assert 1 in report.refreshed_queries
        rows = cqms.store.execute_meta_sql(
            "SELECT qid, elapsedSeconds, cardinality, rowsScanned, succeeded FROM RuntimeStats"
        ).rows
        assert len(rows) == len(cqms.store)
        for qid, elapsed, cardinality, scanned, succeeded in rows:
            runtime = cqms.store.get(qid).runtime
            assert (elapsed, cardinality, scanned, succeeded) == (
                runtime.elapsed_seconds,
                runtime.result_cardinality,
                runtime.rows_scanned,
                runtime.succeeded,
            )
        assert cqms.store.get(1).runtime.result_cardinality == 0
        # The sorted index on the column moved with the row.
        assert 1 in cqms.store.execute_meta_sql(
            "SELECT qid FROM RuntimeStats WHERE cardinality < 1"
        ).column("qid")

    def test_refreshed_statistics_survive_a_restart(self, tmp_path):
        from repro import CQMS, CQMSConfig, build_database

        d = str(tmp_path / "store")
        sql = "SELECT T.temp, T.depth FROM WaterTemp T WHERE T.depth < 10"
        db = build_database("limnology", scale=1, seed=7)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("alice", group="lab1")
            logged = cqms.submit("alice", sql).record.runtime.result_cardinality
            cqms.maintenance.snapshot_statistics()
            cqms.database.execute("DELETE FROM WaterTemp WHERE depth < 5")
            assert cqms.maintenance.refresh_statistics().refreshed_queries == [1]
            refreshed = cqms.store.get(1).runtime
            assert 0 < refreshed.result_cardinality < logged
        with CQMS(build_database("limnology", scale=1, seed=7), config=CQMSConfig(data_dir=d)) as cqms:
            assert cqms.store.get(1).runtime == refreshed

    def test_refresh_without_drift_is_noop(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.maintenance.snapshot_statistics()
        report = cqms.maintenance.refresh_statistics()
        assert report.refreshed_queries == []


class TestQuality:
    def test_failed_query_quality_zero(self, fresh_cqms):
        record = LoggedQuery(
            qid=999, user="a", group="g", text="SELECT 1", timestamp=0.0,
            runtime=RuntimeStats(succeeded=False, error="boom"),
        )
        assert fresh_cqms.maintenance.score_quality(record) == 0.0

    def test_annotated_query_scores_higher(self, cqms_with_queries):
        cqms = cqms_with_queries
        plain = cqms.store.get(1)
        annotated = cqms.store.get(5)
        cqms.annotate("alice", 5, "salinity profile by depth")
        assert cqms.maintenance.score_quality(annotated) > cqms.maintenance.score_quality(plain)

    def test_small_result_scores_higher_than_huge(self, cqms_with_queries):
        cqms = cqms_with_queries
        small = cqms.store.get(2)
        big = cqms.store.get(1)
        assert big.runtime.result_cardinality > small.runtime.result_cardinality
        assert cqms.maintenance.score_quality(small) >= cqms.maintenance.score_quality(big)

    def test_score_all_quality_returns_map(self, cqms_with_queries):
        scores = cqms_with_queries.maintenance.score_all_quality()
        assert set(scores) == {1, 2, 3, 4, 5}
        assert all(0.0 <= value <= 1.0 for value in scores.values())

    def test_invalid_query_quality_zero(self, cqms_with_queries):
        cqms = cqms_with_queries
        cqms.store.mark_invalid(4, "obsolete")
        assert cqms.maintenance.score_quality(cqms.store.get(4)) == 0.0
