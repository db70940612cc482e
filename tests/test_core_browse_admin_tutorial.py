"""Tests for the browser, administrative interaction, and tutorial generation."""

import dataclasses

import pytest

from repro.core.admin import RUNTIME_PARAMETERS
from repro.core.config import CQMSConfig
from repro.errors import AccessControlError


@pytest.fixture()
def busy_cqms(fresh_cqms):
    cqms = fresh_cqms
    cqms.submit("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 18")
    cqms.clock.advance(60)
    cqms.submit("alice", "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 18")
    cqms.clock.advance(5000)
    cqms.submit("alice", "SELECT * FROM CityLocations C WHERE C.population > 100000")
    cqms.clock.advance(60)
    cqms.submit("bob", "SELECT * FROM Lakes L WHERE L.area_km2 > 10")
    cqms.submit("carol", "SELECT * FROM Sensors", visibility="private")
    cqms.annotate("alice", 2, "correlate salinity with temperature")
    cqms.run_miner()
    return cqms


class TestBrowser:
    def test_my_queries_most_recent_first(self, busy_cqms):
        browser = busy_cqms.browser()
        mine = browser.my_queries("alice")
        assert [record.qid for record in mine] == [3, 2, 1]

    def test_my_queries_limit(self, busy_cqms):
        assert len(busy_cqms.browser().my_queries("alice", limit=2)) == 2

    def test_visible_queries_respect_acl(self, busy_cqms):
        visible_to_bob = busy_cqms.browser().visible_queries("bob")
        assert {record.user for record in visible_to_bob} == {"alice", "bob"}
        visible_to_alice = busy_cqms.browser().visible_queries("alice")
        assert all(record.user != "carol" for record in visible_to_alice)

    def test_ranked_log_returns_limit(self, busy_cqms):
        ranked = busy_cqms.browser().ranked_log("alice", limit=3)
        assert len(ranked) == 3

    def test_sessions_of_user(self, busy_cqms):
        report = busy_cqms.miner.last_report
        browser = busy_cqms.browser()
        alice_sessions = browser.sessions_of("alice", report.sessions, user="alice")
        assert len(alice_sessions) == 2
        assert all(session.user == "alice" for session in alice_sessions)

    def test_sessions_hidden_from_other_groups(self, busy_cqms):
        report = busy_cqms.miner.last_report
        browser = busy_cqms.browser()
        carol_view = browser.sessions_of("carol", report.sessions, user="alice")
        assert carol_view == []

    def test_session_summary_contents(self, busy_cqms):
        report = busy_cqms.miner.last_report
        session = next(s for s in report.sessions if s.user == "alice" and len(s) == 2)
        summary = busy_cqms.browser().summarize_session(session)
        assert summary.num_queries == 2
        assert summary.final_query
        assert any("table" in step for step in summary.steps)
        assert "correlate salinity with temperature" in summary.annotations


class TestUserAdministration:
    def test_owner_can_delete_own_query(self, busy_cqms):
        admin = busy_cqms.admin()
        admin.delete_query("alice", 1)
        assert 1 not in busy_cqms.store

    def test_non_owner_cannot_delete(self, busy_cqms):
        with pytest.raises(AccessControlError):
            busy_cqms.admin().delete_query("bob", 1)

    def test_admin_can_delete_any(self, busy_cqms):
        busy_cqms.admin().delete_query("root", 1)
        assert 1 not in busy_cqms.store

    def test_set_visibility(self, busy_cqms):
        admin = busy_cqms.admin()
        admin.set_visibility("carol", 5, "public")
        assert busy_cqms.store.get(5).visibility == "public"
        # Now everyone can see it.
        assert busy_cqms.access_control.can_see("alice", busy_cqms.store.get(5))

    def test_set_visibility_rejects_stranger(self, busy_cqms):
        with pytest.raises(AccessControlError):
            busy_cqms.admin().set_visibility("bob", 5, "public")

    def test_visibility_change_reaches_the_next_search(self, busy_cqms):
        """The cached visible log is dropped by every change to who sees what."""
        admin = busy_cqms.admin()

        def seen_by_alice():
            searched = [r.qid for r in busy_cqms.search_substring("alice", "Sensors")]
            browsed = [r.qid for r in busy_cqms.browser().visible_queries("alice") if r.qid == 5]
            ranked = [r.qid for r in busy_cqms.browser().ranked_log("alice") if r.qid == 5]
            assert searched == browsed == ranked
            return searched

        assert seen_by_alice() == []
        admin.set_visibility("carol", 5, "public")
        assert seen_by_alice() == [5]
        admin.set_visibility("carol", 5, "private")
        assert seen_by_alice() == []
        admin.share_query("carol", 5, "alice")
        assert seen_by_alice() == [5]
        admin.unshare_query("carol", 5, "alice")
        assert seen_by_alice() == []

    def test_set_visibility_updates_the_queries_relation(self, busy_cqms):
        busy_cqms.admin().set_visibility("carol", 5, "PUBLIC")
        rows = busy_cqms.store.execute_meta_sql(
            "SELECT visibility FROM Queries WHERE qid = 5"
        ).rows
        assert rows == [("public",)]

    def test_share_and_unshare(self, busy_cqms):
        admin = busy_cqms.admin()
        admin.share_query("carol", 5, "alice")
        assert busy_cqms.access_control.can_see("alice", busy_cqms.store.get(5))
        admin.unshare_query("carol", 5, "alice")
        assert not busy_cqms.access_control.can_see("alice", busy_cqms.store.get(5))

    def test_deleted_query_takes_its_grants_with_it(self, busy_cqms):
        admin, access = busy_cqms.admin(), busy_cqms.access_control
        admin.share_query("carol", 5, "alice")
        admin.share_query("carol", 5, "bob")
        admin.delete_query("carol", 5)
        assert access.grants_for(5) == set()
        assert not any(5 in qids for qids in access._granted.values())


class TestSystemAdministration:
    def test_non_admin_rejected(self, busy_cqms):
        with pytest.raises(AccessControlError):
            busy_cqms.admin().run_miner("alice")
        with pytest.raises(AccessControlError):
            busy_cqms.admin().set_parameter("alice", "knn_default_k", 5)

    def test_set_ranking_weight(self, busy_cqms):
        busy_cqms.admin().set_ranking_weight("root", "popularity", 0.9)
        assert busy_cqms.config.ranking.popularity == 0.9

    def test_set_ranking_weight_validation(self, busy_cqms):
        with pytest.raises(ValueError):
            busy_cqms.admin().set_ranking_weight("root", "nonsense", 0.5)
        with pytest.raises(ValueError):
            busy_cqms.admin().set_ranking_weight("root", "popularity", -1)

    def test_set_feature_weight_excludes_class(self, busy_cqms):
        busy_cqms.admin().set_feature_weight("root", "predicates", 0.0)
        assert busy_cqms.config.feature_weights["predicates"] == 0.0

    def test_set_parameter_validates_config(self, busy_cqms):
        busy_cqms.admin().set_parameter("root", "knn_default_k", 20)
        assert busy_cqms.config.knn_default_k == 20
        with pytest.raises(ValueError):
            busy_cqms.admin().set_parameter("root", "knn_default_k", 0)
        assert busy_cqms.config.knn_default_k == 20
        # A value of the wrong type is refused as well, not installed to make
        # every later validate() raise TypeError.
        with pytest.raises(ValueError):
            busy_cqms.admin().set_parameter("root", "knn_default_k", "5")
        assert busy_cqms.config.knn_default_k == 20
        busy_cqms.admin().set_parameter("root", "knn_default_k", 5)
        assert busy_cqms.config.knn_default_k == 5
        with pytest.raises(ValueError):
            busy_cqms.admin().set_parameter("root", "no_such_param", 1)

    @pytest.mark.parametrize(
        "name",
        sorted(
            field.name
            for field in dataclasses.fields(CQMSConfig)
            if field.name not in RUNTIME_PARAMETERS
        ),
    )
    def test_set_parameter_refuses_fields_read_only_at_startup(self, busy_cqms, name):
        before = dataclasses.asdict(busy_cqms.config)
        hint = {"feature_weights": "set_feature_weight", "ranking": "set_ranking_weight"}
        with pytest.raises(ValueError, match=hint.get(name, name)):
            busy_cqms.admin().set_parameter("root", name, getattr(busy_cqms.config, name))
        assert dataclasses.asdict(busy_cqms.config) == before

    def test_set_knn_default_k_bounds_the_next_search(self, busy_cqms):
        sql = "SELECT * FROM WaterTemp T WHERE T.temp < 20"
        assert len(busy_cqms.similar_queries("alice", sql)) > 1
        busy_cqms.admin().set_parameter("root", "knn_default_k", 1)
        assert len(busy_cqms.similar_queries("alice", sql)) == 1

    def test_set_output_sample_budget_shapes_the_next_summary(self, busy_cqms):
        # The simulated clock makes every statement take 0 s, so the summary
        # keeps at most the base budget of rows.
        sql = "SELECT * FROM Lakes"
        assert len(busy_cqms.submit("alice", sql).record.output.rows) == 8
        busy_cqms.admin().set_parameter("root", "output_sample_base_budget", 3)
        output = busy_cqms.submit("alice", sql).record.output
        assert (len(output.rows), output.total_rows, output.complete) == (3, 8, False)

    def test_run_miner_and_maintenance_as_admin(self, busy_cqms):
        mining = busy_cqms.admin().run_miner("root")
        assert mining.num_queries > 0
        maintenance = busy_cqms.admin().run_maintenance("root")
        assert maintenance.flagged == []

    def test_mark_obsolete_and_purge(self, busy_cqms):
        admin = busy_cqms.admin()
        admin.mark_obsolete("root", 4, reason="superseded")
        assert busy_cqms.store.get(4).flagged_invalid
        # One flag is below the default threshold of 3; the next purge obeys
        # a threshold set at run time.
        assert admin.purge_invalid("root").dropped == []
        admin.set_parameter("root", "drop_invalid_after_flags", 1)
        report = admin.purge_invalid("root")
        assert 4 in report.dropped

    def test_overview(self, busy_cqms):
        overview = busy_cqms.admin().overview("root")
        assert overview.num_queries == 5
        assert overview.num_users == 3
        assert overview.num_annotated == 1
        assert overview.table_popularity
        with pytest.raises(AccessControlError):
            busy_cqms.admin().overview("alice")


class TestTutorial:
    def test_tutorial_sections_cover_relations(self, busy_cqms):
        sections = busy_cqms.tutorial()
        titles = [section.title for section in sections]
        assert any("watertemp" in title.lower() for title in titles)

    def test_tutorial_sections_ordered_by_popularity(self, busy_cqms):
        sections = busy_cqms.tutorial()
        first_relation = sections[0].title.replace("Relation ", "")
        popularity = busy_cqms.store.table_popularity()
        assert popularity[first_relation] == max(popularity.values())

    def test_tutorial_max_relations(self, busy_cqms):
        sections = busy_cqms.tutorial(max_relations=2)
        relation_sections = [s for s in sections if s.title.startswith("Relation ")]
        assert len(relation_sections) == 2

    def test_tutorial_examples_and_annotations(self, busy_cqms):
        sections = busy_cqms.tutorial()
        salinity_section = next(s for s in sections if "watersalinity" in s.title)
        assert salinity_section.example_queries
        assert any("correlate salinity" in example for example in salinity_section.example_queries)

    def test_tutorial_includes_mistakes_section_when_corrections_exist(self, busy_cqms):
        busy_cqms.correction.correct_names("SELECT * FROM WaterSalinty")
        sections = busy_cqms.tutorial()
        assert any("mistakes" in section.title.lower() for section in sections)

    def test_tutorial_reads_the_schema_when_generated(self):
        """The generator keeps no copy of the schema: each tutorial lists the
        relations and columns of the store's map as it is then."""
        from repro.core.query_store import QueryStore
        from repro.core.tutorial import TutorialGenerator

        schema = {"buoys": frozenset({"id", "battery"})}
        generator = TutorialGenerator(QueryStore(schema=lambda: schema))

        def relations():
            return {
                section.title: section.lines[0]
                for section in generator.generate()
                if section.title.startswith("Relation ")
            }

        assert relations() == {"Relation buoys": "Columns: battery, id"}
        schema = {"buoys": frozenset({"id", "charge"}), "lakes": frozenset({"name"})}
        assert relations() == {
            "Relation buoys": "Columns: charge, id",
            "Relation lakes": "Columns: name",
        }

    def test_tutorial_render_is_text(self, busy_cqms):
        from repro.core.tutorial import TutorialGenerator

        generator = TutorialGenerator(busy_cqms.store)
        text = generator.render()
        assert "== Relation" in text
        assert "Popular queries:" in text
