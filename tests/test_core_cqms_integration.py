"""End-to-end integration tests of the CQMS facade across all interaction modes."""

import pytest

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.core.meta_query import DataCondition, FeatureCondition
from repro.errors import AccessControlError
from repro.workloads import QueryLogGenerator, WorkloadConfig
from repro.workloads.evolution import apply_scenario, evolution_scenario


class TestTraditionalMode:
    def test_submit_executes_and_logs(self, fresh_cqms):
        execution = fresh_cqms.submit("alice", "SELECT COUNT(*) FROM Lakes")
        assert execution.succeeded
        assert execution.result.scalar() == 8
        assert len(fresh_cqms.store) == 1

    def test_submit_unknown_user_raises(self, fresh_cqms):
        with pytest.raises(AccessControlError):
            fresh_cqms.submit("mallory", "SELECT 1")

    def test_failed_query_reports_error(self, fresh_cqms):
        execution = fresh_cqms.submit("alice", "SELECT * FROM NotThere")
        assert not execution.succeeded
        assert execution.error

    def test_duplicate_table_name_is_logged_as_failed(self, fresh_cqms):
        execution = fresh_cqms.submit("alice", "SELECT * FROM Lakes, Lakes")
        assert not execution.succeeded
        assert "specified more than once" in execution.error
        assert len(fresh_cqms.store) == 1

    def test_annotate_requires_visibility(self, fresh_cqms):
        fresh_cqms.submit("carol", "SELECT * FROM Lakes", visibility="private")
        with pytest.raises(AccessControlError):
            fresh_cqms.annotate("alice", 1, "I should not see this")
        fresh_cqms.annotate("carol", 1, "my own note")
        assert fresh_cqms.store.annotations_for(1) == ["my own note"]

    def test_simulated_clock_drives_timestamps(self, fresh_cqms):
        fresh_cqms.clock.advance(1000)
        execution = fresh_cqms.submit("alice", "SELECT * FROM Lakes")
        assert execution.record.timestamp == pytest.approx(1000.0)

    def test_profiling_mode_off_via_config(self):
        clock = SimulatedClock()
        db = build_database("limnology", clock=clock)
        cqms = CQMS(db, CQMSConfig(profiling_mode="off"), clock=clock)
        cqms.register_user("alice", "lab1")
        cqms.submit("alice", "SELECT * FROM Lakes")
        assert len(cqms.store) == 0


class TestWorkloadReplay:
    def test_replay_registers_users_and_annotations(self):
        clock = SimulatedClock()
        db = build_database("limnology", clock=clock)
        cqms = CQMS(db, clock=clock)
        log = QueryLogGenerator(
            WorkloadConfig(num_sessions=10, seed=11, annotation_probability=1.0)
        ).generate()
        submitted = cqms.replay_workload(log)
        assert submitted == len(log)
        assert len(cqms.store) == len(log)
        assert any(record.annotations for record in cqms.store.all_queries())
        # The clock followed the last event.
        assert cqms.clock.now >= log[-1].timestamp

    def test_replay_with_periodic_mining(self):
        clock = SimulatedClock()
        db = build_database("limnology", clock=clock)
        cqms = CQMS(db, clock=clock)
        log = QueryLogGenerator(WorkloadConfig(num_sessions=8, seed=3)).generate()
        cqms.replay_workload(log, run_miner_every=10)
        assert cqms.miner.last_report is not None


class TestSearchAndBrowseMode:
    def test_all_search_paths_work_together(self, replayed_cqms):
        cqms = replayed_cqms
        user = cqms.store.all_queries()[0].user
        assert cqms.search_keyword(user, "watertemp") or cqms.search_keyword(user, "citylocations")
        assert cqms.search_substring(user, "SELECT")
        assert cqms.search_features(
            user, FeatureCondition(tables_any=["watertemp", "citylocations"])
        )
        results = cqms.search_by_data("root", DataCondition(exclude_values=["__nope__"]))
        assert results

    def test_figure1_flow_on_real_log(self, replayed_cqms):
        cqms = replayed_cqms
        results = cqms.search_like_partial("root", "SELECT FROM WaterSalinity, WaterTemp")
        assert results
        for record in results:
            assert {"watersalinity", "watertemp"} <= set(record.features.tables)

    def test_browser_session_graph_renders(self, replayed_cqms):
        from repro.client import render_session_graph

        report = replayed_cqms.miner.last_report
        session = max(report.sessions, key=len)
        text = render_session_graph(session, replayed_cqms.store)
        assert f"Session {session.session_id}" in text
        assert text.count("[q") == len(session.qids)


class TestAssistedMode:
    def test_assist_bundle(self, replayed_cqms):
        user = replayed_cqms.store.all_queries()[0].user
        response = replayed_cqms.assist(user, "SELECT * FROM WaterSalinity S, ")
        assert response.has_content
        tables = [s.text for s in response.completions["tables"]]
        assert "watertemp" in tables

    def test_correct_flow_with_empty_result(self, fresh_cqms):
        cqms = fresh_cqms
        cqms.submit("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 17")
        corrections = cqms.correct("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 1")
        assert any(correction.kind == "predicate" for correction in corrections)

    def test_correct_flow_with_typo(self, fresh_cqms):
        corrections = fresh_cqms.correct("alice", "SELECT * FROM WatrTemp")
        assert any(correction.kind == "table_name" for correction in corrections)

    def test_recommend_after_mining(self, replayed_cqms):
        user = replayed_cqms.store.all_queries()[0].user
        recommendations = replayed_cqms.recommend(
            user, "SELECT * FROM WaterTemp T WHERE T.temp < 20", k=3
        )
        assert recommendations

    @pytest.mark.parametrize(
        "draft, reads",
        [
            ("SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 21", 1),
            # As typed, then the first relaxation (the dangling token dropped).
            ("SELECT * FROM WaterSalinity S, ", 2),
            ("SELECT depth, temp FROM WaterTemp WHERE temp <", 2),
        ],
    )
    def test_a_request_reads_its_draft_once(self, replayed_cqms, monkeypatch, draft, reads):
        """Completion (four kinds), correction and the recommender (kNN probe
        and diff) all work from one reading of the draft — 12 feature
        extractions per ``assist`` and 3 per ``recommend`` before."""
        from repro.core import records

        calls = []
        extract = records.extract_features
        monkeypatch.setattr(
            records, "extract_features", lambda *args: calls.append(args[0]) or extract(*args)
        )
        response = replayed_cqms.assist("root", draft)
        assert len(calls) == reads
        # A draft that stops at an operator still gets its similar queries.
        assert response.completions["tables"] and response.similar_queries
        del calls[:]
        recommendations = replayed_cqms.recommend("root", draft, k=3)
        assert len(calls) == reads
        assert [r.record.qid for r in recommendations] == [
            r.record.qid for r in response.similar_queries
        ]

    def test_ddl_through_submit_reaches_assisted_mode_without_maintenance(self, fresh_cqms):
        """Completion, correction and the tutorial read the live catalog: no
        ``run_maintenance`` (or any other refresh) between DDL and draft."""
        cqms = fresh_cqms
        limnology = {name.lower() for name in cqms.database.table_names()}

        def attributes(draft):
            response = cqms.assist("alice", draft, k=20)
            assert response.completions == cqms.completion.suggest(draft, limit=20)
            return {s.text for s in response.completions["attributes"]}

        def attribute_fixes(sql):
            return {c.suggestion for c in cqms.correct("alice", sql) if c.kind == "attribute_name"}

        def tutorial_relations():
            return {
                section.title.removeprefix("Relation ")
                for section in cqms.tutorial()
                if section.title.startswith("Relation ")
            }

        def submit(sql):
            assert cqms.submit("alice", sql).succeeded, sql

        # Before the table exists nothing knows its columns.
        assert attribute_fixes("SELECT batery FROM Buoys") == set()
        assert attributes("SELECT * FROM Buoys WHERE ") == set()

        submit("CREATE TABLE Buoys (id INTEGER, battery REAL)")
        assert attributes("SELECT * FROM Buoys WHERE ") == {"buoys.id", "buoys.battery"}
        assert attribute_fixes("SELECT batery FROM Buoys") == {"buoys.battery"}
        assert tutorial_relations() == limnology | {"buoys"}

        submit("ALTER TABLE Buoys ADD COLUMN depth REAL")
        assert attributes("SELECT * FROM Buoys WHERE ") == {
            "buoys.id", "buoys.battery", "buoys.depth"
        }
        assert attribute_fixes("SELECT dept FROM Buoys") == {"buoys.depth"}

        submit("ALTER TABLE Buoys RENAME COLUMN battery TO charge")
        assert attributes("SELECT * FROM Buoys WHERE ") == {
            "buoys.id", "buoys.charge", "buoys.depth"
        }
        assert attribute_fixes("SELECT charg FROM Buoys") == {"buoys.charge"}
        assert tutorial_relations() == limnology | {"buoys"}

        submit("DROP TABLE Buoys")
        assert attributes("SELECT * FROM Buoys WHERE ") == set()
        assert attribute_fixes("SELECT charg FROM Buoys") == set()
        assert tutorial_relations() == limnology


class TestAdministrativeMode:
    def test_maintenance_after_evolution_scenario(self):
        clock = SimulatedClock()
        db = build_database("limnology", clock=clock)
        cqms = CQMS(db, clock=clock)
        log = QueryLogGenerator(WorkloadConfig(num_sessions=30, seed=17)).generate()
        cqms.replay_workload(log)
        steps = evolution_scenario("limnology")
        apply_scenario(db, steps)
        report = cqms.run_maintenance()
        # Some queries are broken by the scenario; renames are repaired, drops flagged.
        assert report.checked > 0
        assert report.num_repaired + report.num_flagged > 0
        for qid in report.repaired:
            repaired = cqms.store.get(qid)
            assert cqms.database.execute(repaired.text) is not None

    def test_full_lifecycle(self, fresh_cqms):
        """Submit → annotate → mine → search → recommend → evolve → maintain → purge."""
        cqms = fresh_cqms
        for _ in range(2):
            cqms.submit("alice", "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
                                 "WHERE S.loc_x = T.loc_x AND T.temp < 18")
            cqms.clock.advance(30)
        cqms.submit("bob", "SELECT * FROM CityLocations C WHERE C.population > 50000")
        cqms.annotate("alice", 1, "salinity vs temperature")
        mining = cqms.run_miner()
        assert mining.num_sessions >= 2
        assert cqms.search_keyword("bob", "salinity")  # group visibility
        recommendations = cqms.recommend("bob", "SELECT * FROM WaterSalinity S", k=2)
        assert recommendations
        cqms.database.execute("ALTER TABLE CityLocations DROP COLUMN population")
        maintenance = cqms.run_maintenance()
        assert 3 in maintenance.flagged
        cqms.config.drop_invalid_after_flags = 1
        purge = cqms.admin().purge_invalid("root")
        assert 3 in purge.dropped
        assert len(cqms.store) == 2
