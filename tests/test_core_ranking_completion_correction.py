"""Tests for the ranking function, completion engine, and correction engine."""

import pytest

from repro.core.completion import CompletionEngine
from repro.core.config import CQMSConfig
from repro.core.correction import CorrectionEngine
from repro.core.query_store import QueryStore
from repro.core.ranking import RankingContext, RankingFunction, RankingWeights
from repro.core.records import LoggedQuery, RuntimeStats
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features


def make_record(qid, sql, timestamp=0.0, elapsed=0.0, cardinality=0, quality=0.5,
                succeeded=True, annotations=None):
    return LoggedQuery(
        qid=qid,
        user="alice",
        group="lab1",
        text=sql,
        timestamp=timestamp,
        canonical_text=canonical_text(sql),
        template_text=canonical_text(sql, strip_constants=True),
        features=extract_features(sql),
        runtime=RuntimeStats(
            elapsed_seconds=elapsed, result_cardinality=cardinality, succeeded=succeeded
        ),
        quality=quality,
        annotations=annotations or [],
    )


class TestRankingWeights:
    def test_from_config(self):
        config = CQMSConfig()
        weights = RankingWeights.from_config(config.ranking)
        assert weights.similarity == config.ranking.similarity

    def test_similarity_only_zeroes_others(self):
        weights = RankingWeights.similarity_only()
        assert weights.popularity == 0.0 and weights.similarity == 1.0

    def test_total(self):
        assert RankingWeights(similarity=1, popularity=1, recency=0, runtime=0,
                              cardinality=0, quality=0).total() == 2


class TestRankingFunction:
    def test_score_in_unit_interval(self):
        ranking = RankingFunction()
        record = make_record(1, "SELECT * FROM Lakes", elapsed=2.0, cardinality=100)
        ranked = ranking.score(record, similarity=0.7, context=RankingContext(now=10.0))
        assert 0.0 <= ranked.score <= 1.0
        assert set(ranked.components) == {
            "similarity", "popularity", "recency", "runtime", "cardinality", "quality",
        }

    def test_similarity_dominates_with_similarity_only_weights(self):
        ranking = RankingFunction(RankingWeights.similarity_only())
        similar = make_record(1, "SELECT * FROM Lakes")
        dissimilar = make_record(2, "SELECT * FROM Sensors")
        context = RankingContext(now=0.0)
        assert ranking.score(similar, 0.9, context).score > ranking.score(dissimilar, 0.1, context).score

    def test_popularity_component_uses_store_counts(self):
        store = QueryStore()
        for qid in (1, 2, 3):
            store.add(make_record(qid, "SELECT * FROM Lakes"))
        store.add(make_record(4, "SELECT * FROM Sensors"))
        context = RankingContext.from_store(store, now=0.0)
        ranking = RankingFunction(RankingWeights(similarity=0, popularity=1, recency=0,
                                                 runtime=0, cardinality=0, quality=0))
        popular = ranking.score(store.get(1), 0.0, context)
        rare = ranking.score(store.get(4), 0.0, context)
        assert popular.score > rare.score

    def test_recency_decays_with_age(self):
        ranking = RankingFunction(RankingWeights(similarity=0, popularity=0, recency=1,
                                                 runtime=0, cardinality=0, quality=0))
        context = RankingContext(now=1_000_000.0)
        recent = make_record(1, "SELECT * FROM Lakes", timestamp=999_000.0)
        old = make_record(2, "SELECT * FROM Lakes", timestamp=0.0)
        assert ranking.score(recent, 0, context).score > ranking.score(old, 0, context).score

    def test_runtime_prefers_fast_queries(self):
        ranking = RankingFunction(RankingWeights(similarity=0, popularity=0, recency=0,
                                                 runtime=1, cardinality=0, quality=0))
        fast = make_record(1, "SELECT * FROM Lakes", elapsed=0.01)
        slow = make_record(2, "SELECT * FROM Lakes", elapsed=100.0)
        context = RankingContext(now=0.0)
        assert ranking.score(fast, 0, context).score > ranking.score(slow, 0, context).score

    def test_cardinality_prefers_small_results(self):
        ranking = RankingFunction(RankingWeights(similarity=0, popularity=0, recency=0,
                                                 runtime=0, cardinality=1, quality=0))
        small = make_record(1, "SELECT * FROM Lakes", cardinality=5)
        huge = make_record(2, "SELECT * FROM Lakes", cardinality=1_000_000)
        context = RankingContext(now=0.0)
        assert ranking.score(small, 0, context).score > ranking.score(huge, 0, context).score

    def test_zero_weights_score_zero(self):
        ranking = RankingFunction(RankingWeights(similarity=0, popularity=0, recency=0,
                                                 runtime=0, cardinality=0, quality=0))
        record = make_record(1, "SELECT * FROM Lakes")
        assert ranking.score(record, 1.0, RankingContext(now=0.0)).score == 0.0

    def test_rank_orders_and_limits(self):
        ranking = RankingFunction(RankingWeights.similarity_only())
        records = [make_record(i, "SELECT * FROM Lakes") for i in range(1, 5)]
        candidates = [(record, 0.1 * record.qid) for record in records]
        ranked = ranking.rank(candidates, RankingContext(now=0.0), limit=2)
        assert len(ranked) == 2
        assert ranked[0].record.qid == 4

    def test_explanation_string(self):
        ranking = RankingFunction()
        ranked = ranking.score(make_record(1, "SELECT 1"), 0.5, RankingContext(now=0.0))
        assert "similarity=" in ranked.explanation()


@pytest.fixture()
def completion_store():
    """A store whose log exhibits the paper's CityLocations/WaterTemp example.

    CityLocations is globally the most popular table, but *given* WaterSalinity
    the most frequent companion is WaterTemp.
    """
    store = QueryStore(schema=lambda: SCHEMA)
    qid = 0
    def add(sql):
        nonlocal qid
        qid += 1
        store.add(make_record(qid, sql, cardinality=3))
    for _ in range(6):
        add("SELECT * FROM CityLocations C WHERE C.population > 100000")
    for _ in range(4):
        add("SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < 18")
    add("SELECT * FROM WaterSalinity S, CityLocations C WHERE S.loc_x = C.loc_x")
    for _ in range(2):
        add("SELECT * FROM WaterTemp T WHERE T.temp < 18")
    return store


SCHEMA = {
    "watersalinity": {"salinity", "loc_x", "loc_y", "depth", "lake_id"},
    "watertemp": {"temp", "loc_x", "loc_y", "depth", "lake_id"},
    "citylocations": {"city", "state", "loc_x", "loc_y", "population"},
    "lakes": {"lake_id", "name", "state", "area_km2"},
}


class TestCompletionEngine:
    def test_global_popularity_baseline_prefers_citylocations(self, completion_store):
        engine = CompletionEngine(completion_store)
        popular = engine.popular_tables(limit=3)
        assert popular[0].text == "citylocations"

    def test_context_aware_suggests_watertemp_given_watersalinity(self, completion_store):
        """The paper's Section 2.3 example, reproduced exactly."""
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_tables("SELECT * FROM WaterSalinity S, ", limit=3)
        assert suggestions[0].text == "watertemp"
        assert suggestions[0].source == "rule"

    def test_popularity_baseline_ignores_context(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_tables(
            "SELECT * FROM WaterSalinity S, ", limit=3, context_aware=False
        )
        assert suggestions[0].text == "citylocations"

    def test_context_tables_never_suggested_again(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_tables("SELECT * FROM WaterSalinity S, WaterTemp T, ", limit=5)
        assert all(s.text not in ("watersalinity", "watertemp") for s in suggestions)

    def test_empty_context_falls_back_to_popularity(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_tables("SELECT * FROM ", limit=2)
        assert suggestions and suggestions[0].text == "citylocations"

    def test_suggest_attributes_for_context_tables(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_attributes("SELECT * FROM WaterTemp T WHERE ", limit=5)
        assert any(s.text == "watertemp.temp" for s in suggestions)

    def test_suggest_attributes_schema_fallback(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_attributes("SELECT * FROM Lakes", limit=10)
        assert any(s.source == "schema" for s in suggestions)

    def test_suggest_attributes_without_tables_empty(self, completion_store):
        engine = CompletionEngine(completion_store)
        assert engine.suggest_attributes("SELECT 1") == []

    def test_suggest_predicates(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_predicates("SELECT * FROM WaterTemp T", limit=3)
        assert any("temp < 18" in s.text for s in suggestions)

    def test_suggest_joins(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_joins("SELECT * FROM WaterSalinity S, WaterTemp T", limit=3)
        assert any("loc_x" in s.text for s in suggestions)

    def test_suggest_joins_requires_two_tables(self, completion_store):
        engine = CompletionEngine(completion_store)
        assert engine.suggest_joins("SELECT * FROM WaterTemp") == []

    def test_suggest_bundle_has_all_kinds(self, completion_store):
        engine = CompletionEngine(completion_store)
        bundle = engine.suggest("SELECT * FROM WaterSalinity S, WaterTemp T WHERE ")
        assert set(bundle) == {"tables", "attributes", "predicates", "joins"}

    def test_schema_is_read_when_suggesting(self):
        """The engine keeps no copy of the schema: every suggestion reads the
        store's map as it is then, so later DDL shows without a refresh."""
        schema = {"buoys": frozenset({"id"})}
        engine = CompletionEngine(QueryStore(schema=lambda: schema))

        def attributes():
            suggestions = engine.suggest_attributes("SELECT * FROM Buoys WHERE ", limit=10)
            return {s.text for s in suggestions}

        assert attributes() == {"buoys.id"}
        schema = {"buoys": frozenset({"id", "battery"})}
        assert attributes() == {"buoys.id", "buoys.battery"}
        schema = {}
        assert attributes() == set()

    def test_refresh_with_external_rule_index(self, completion_store):
        from repro.mining.association_rules import RuleIndex, mine_rules

        engine = CompletionEngine(completion_store)
        rules = mine_rules([["table:a", "table:b"]] * 5, min_support=0.5, min_confidence=0.5)
        engine.refresh(rule_index=RuleIndex(rules))
        suggestions = engine.suggest_tables("SELECT * FROM a", limit=2)
        assert suggestions  # falls back to popularity for unknown context

    def test_partial_with_trailing_where(self, completion_store):
        engine = CompletionEngine(completion_store)
        suggestions = engine.suggest_tables("SELECT * FROM WaterSalinity S WHERE", limit=2)
        assert suggestions[0].text == "watertemp"

    def test_suggestions_follow_a_log_rewritten_at_equal_size(self, completion_store):
        """A maintenance repair (``replace_text``) or a remove-then-add keeps
        the number of logged SELECTs, so a fit keyed by that number went stale."""
        engine = CompletionEngine(completion_store)
        assert [s.text for s in engine.popular_tables(limit=1)] == ["citylocations"]
        renamed = "SELECT * FROM Cities C WHERE C.population > 100000"
        for record in completion_store.select_queries():
            if "citylocations" in record.tables:
                sql = record.text.replace("CityLocations", "Cities")
                completion_store.replace_text(
                    record.qid,
                    sql,
                    extract_features(sql),
                    canonical_text(sql),
                    canonical_text(sql, strip_constants=True),
                )
        assert len(completion_store.select_queries()) == 13
        assert [s.text for s in engine.popular_tables(limit=1)] == ["cities"]
        assert "citylocations" not in [s.text for s in engine.popular_tables(limit=10)]
        for qid in [r.qid for r in completion_store.select_queries() if r.text == renamed]:
            completion_store.remove(qid)
            completion_store.add(make_record(qid, "SELECT * FROM Lakes L", cardinality=3))
        assert len(completion_store.select_queries()) == 13
        assert [s.text for s in engine.popular_tables(limit=1)] == ["lakes"]
        assert engine.suggest_tables("SELECT * FROM WaterSalinity S, ", limit=3)[0].text == "watertemp"


class TestCorrectionEngine:
    def test_table_name_spellcheck(self, completion_store):
        engine = CorrectionEngine(completion_store)
        corrections = engine.correct_names("SELECT * FROM WaterSalinty WHERE salinity > 1")
        assert corrections
        assert corrections[0].kind == "table_name"
        assert corrections[0].suggestion == "watersalinity"

    def test_attribute_name_spellcheck(self, completion_store):
        engine = CorrectionEngine(completion_store)
        corrections = engine.correct_names("SELECT T.temperatur FROM WaterTemp T")
        assert any(c.kind == "attribute_name" and c.suggestion.endswith("temp") for c in corrections)

    def test_correct_names_on_valid_query_is_empty(self, completion_store):
        engine = CorrectionEngine(completion_store)
        assert engine.correct_names("SELECT T.temp FROM WaterTemp T") == []

    def test_correct_names_on_unparseable_text(self, completion_store):
        engine = CorrectionEngine(completion_store)
        assert engine.correct_names("not sql at all !!!") == []

    @pytest.mark.parametrize(
        "draft",
        [
            "SELECT * FROM WaterSalinty S WHERE",
            "SELECT * FROM WaterSalinty S, ",
            "SELECT FROM WaterSalinty",
            "SELECT * FROM WaterSalinty S WHERE S.salinity <",
        ],
    )
    def test_spellcheck_reads_a_draft_that_is_still_being_typed(self, completion_store, draft):
        engine = CorrectionEngine(completion_store)
        corrections = engine.correct_names(draft)
        assert [(c.kind, c.suggestion) for c in corrections] == [("table_name", "watersalinity")]
        assert engine.correction_log == corrections

    def test_empty_result_predicate_correction(self, completion_store):
        engine = CorrectionEngine(completion_store)
        corrections = engine.correct_empty_result(
            "SELECT * FROM WaterTemp T WHERE T.temp < 2"
        )
        assert corrections
        assert corrections[0].kind == "predicate"
        assert "temp < 18" in corrections[0].suggestion

    def test_empty_result_correction_skips_unknown_attributes(self, completion_store):
        engine = CorrectionEngine(completion_store)
        assert engine.correct_empty_result("SELECT * FROM Lakes K WHERE K.area_km2 > 999") == []

    def test_schema_is_read_when_correcting(self):
        """Spell-checking reads the store's map as it is then: a relation or
        column created after the engine was built is a candidate at once."""
        schema = {}
        engine = CorrectionEngine(QueryStore(schema=lambda: schema))

        def suggestions(sql):
            return [(c.kind, c.suggestion) for c in engine.correct_names(sql)]

        assert suggestions("SELECT B.batery FROM Buoy B") == []
        schema = {"buoys": frozenset({"id", "battery"})}
        assert suggestions("SELECT B.batery FROM Buoy B") == [("table_name", "buoys")]
        assert suggestions("SELECT B.batery FROM Buoys B") == [("attribute_name", "buoys.battery")]
        schema = {"buoys": frozenset({"id", "charge"})}
        assert suggestions("SELECT B.battery FROM Buoys B") == []

    def test_correction_log_accumulates(self, completion_store):
        engine = CorrectionEngine(completion_store)
        engine.correct_names("SELECT * FROM WaterSalinty")
        engine.correct_empty_result("SELECT * FROM WaterTemp T WHERE T.temp < 2")
        assert len(engine.correction_log) >= 2

