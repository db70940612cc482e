"""Tests for the query recommender and the Query Miner."""

import pytest

from repro.core.miner import CLUSTER_COUNT
from repro.core.recommender import Recommendation


@pytest.fixture()
def mined_cqms(replayed_cqms):
    """Alias for readability: the shared replayed + mined CQMS fixture."""
    return replayed_cqms


class TestRecommender:
    PROBE = "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 20"

    def test_recommend_returns_recommendations(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        recommendations = mined_cqms.recommend(user, self.PROBE, k=5)
        assert 0 < len(recommendations) <= 5
        assert all(isinstance(item, Recommendation) for item in recommendations)

    def test_recommendations_sorted_by_score(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        recommendations = mined_cqms.recommend(user, self.PROBE, k=5)
        scores = [item.score for item in recommendations]
        assert scores == sorted(scores, reverse=True)

    def test_recommendations_are_relevant(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        recommendations = mined_cqms.recommend(user, self.PROBE, k=3)
        top_tables = set(recommendations[0].record.features.tables)
        assert top_tables & {"watersalinity", "watertemp"}

    def test_recommendations_deduplicate_canonical_queries(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        recommendations = mined_cqms.recommend(user, self.PROBE, k=10)
        canonicals = [item.record.canonical_text for item in recommendations]
        assert len(canonicals) == len(set(canonicals))

    def test_recommendation_row_format(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        recommendation = mined_cqms.recommend(user, self.PROBE, k=1)[0]
        score, query, diff, annotations = recommendation.as_row()
        assert score.endswith("%")
        assert isinstance(query, str) and query
        assert isinstance(diff, str)

    def test_recommend_respects_access_control(self, fresh_cqms):
        fresh_cqms.submit("carol", "SELECT * FROM WaterTemp T WHERE T.temp < 18")
        fresh_cqms.submit("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 15")
        # bob (lab1) must not be recommended carol's (lab2) query.
        recommendations = fresh_cqms.recommend("bob", "SELECT * FROM WaterTemp T", k=5)
        users = {item.record.user for item in recommendations}
        assert "carol" not in users

    def test_recommend_for_session(self, mined_cqms):
        report = mined_cqms.miner.last_report
        session = max(report.sessions, key=len)
        user = session.user
        recommendations = mined_cqms.recommender.recommend_for_session(
            user, session.qids, k=3
        )
        assert recommendations

    def test_recommend_for_empty_session(self, mined_cqms):
        assert mined_cqms.recommender.recommend_for_session("user01", [], k=3) == []

    def test_popularity_baseline(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        popular = mined_cqms.recommender.recommend_popular(user, k=5)
        assert popular
        scores = [item.score for item in popular]
        assert scores == sorted(scores, reverse=True)

    def test_random_baseline_deterministic_for_seed(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        first = mined_cqms.recommender.recommend_random(user, k=5, seed=1)
        second = mined_cqms.recommender.recommend_random(user, k=5, seed=1)
        assert [r.record.qid for r in first] == [r.record.qid for r in second]

    def test_assist_bundles_recommendations(self, mined_cqms):
        user = mined_cqms.store.all_queries()[0].user
        response = mined_cqms.assist(user, "SELECT * FROM WaterSalinity S, ", k=3)
        assert response.has_content
        assert len(response.similar_queries) <= 3


class TestMinerReport:
    def test_report_counts(self, mined_cqms):
        report = mined_cqms.miner.last_report
        assert report.num_queries > 0
        assert report.num_sessions > 0
        assert report.num_rules > 0

    def test_sessions_cover_all_select_queries(self, mined_cqms):
        report = mined_cqms.miner.last_report
        session_qids = {qid for session in report.sessions for qid in session.qids}
        select_qids = {record.qid for record in mined_cqms.store.select_queries()
                       if record.features is not None}
        assert session_qids == select_qids

    def test_sessions_recorded_in_store(self, mined_cqms):
        sessions_table = mined_cqms.store.execute_meta_sql("SELECT COUNT(*) FROM Sessions")
        assert sessions_table.scalar() == mined_cqms.miner.last_report.num_sessions
        edges = mined_cqms.store.execute_meta_sql("SELECT COUNT(*) FROM SessionEdges").scalar()
        expected_edges = sum(len(s.edges) for s in mined_cqms.miner.last_report.sessions)
        assert edges == expected_edges

    def test_records_carry_session_ids(self, mined_cqms):
        report = mined_cqms.miner.last_report
        session = report.sessions[0]
        for qid in session.qids:
            assert mined_cqms.store.get(qid).session_id == session.session_id

    def test_detected_sessions_match_workload_ground_truth(self, mined_cqms, small_workload):
        """Session detection recovers the generator's sessions almost exactly (F2)."""
        from repro.core.sessions import pairwise_session_metrics

        # Ground truth: queries of the same (user, session_ordinal) share a session.
        records = mined_cqms.store.all_queries()
        truth_pairs = set()
        by_key = {}
        for record, event in zip(records, small_workload):
            by_key.setdefault((event.user, event.session_ordinal), []).append(record.qid)
        for qids in by_key.values():
            for i, first in enumerate(qids):
                for second in qids[i + 1:]:
                    truth_pairs.add((min(first, second), max(first, second)))
        metrics = pairwise_session_metrics(mined_cqms.miner.last_report.sessions, truth_pairs)
        assert metrics["f1"] > 0.9

    def test_popularity_maps(self, mined_cqms):
        report = mined_cqms.miner.last_report
        assert report.popularity
        assert report.table_popularity
        assert max(report.table_popularity.values()) >= 1

    def test_rule_index_suggests_companions(self, mined_cqms):
        report = mined_cqms.miner.last_report
        suggestions = report.rule_index.suggestions(["table:watersalinity"], limit=5)
        assert any(token.startswith("table:") or token.startswith("pred:") for token, _ in suggestions)

    def test_query_clusters_group_same_goal_queries(self, mined_cqms):
        report = mined_cqms.miner.last_report
        clusters = report.query_clusters
        assert clusters is not None
        assert clusters.num_clusters <= CLUSTER_COUNT
        # Queries in the same cluster share at least one table with the medoid.
        for label, members in clusters.clusters().items():
            medoid = clusters.items[clusters.medoids[label]]
            for index in members:
                item = clusters.items[index]
                assert set(item.features.tables) & set(medoid.features.tables)

    def test_session_clusters_present(self, mined_cqms):
        report = mined_cqms.miner.last_report
        assert report.session_clusters is not None
        assert report.session_clusters.num_clusters >= 1

    def test_edit_patterns_counted(self, mined_cqms):
        report = mined_cqms.miner.last_report
        assert report.edit_patterns
        assert any(key in report.edit_patterns for key in ("modification", "investigation"))

    def test_run_if_stale_skips_when_fresh(self, mined_cqms):
        assert mined_cqms.miner.run_if_stale(min_new_queries=5) is None

    def test_run_without_clustering(self, fresh_cqms):
        fresh_cqms.submit("alice", "SELECT * FROM Lakes")
        report = fresh_cqms.miner.run(cluster=False)
        assert report.query_clusters is None
        assert report.num_sessions == 1

    def test_miner_on_empty_store(self, fresh_cqms):
        report = fresh_cqms.miner.run()
        assert report.num_queries == 0
        assert report.sessions == []
