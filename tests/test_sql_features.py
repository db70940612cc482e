"""Tests for query-feature extraction (the Figure 1 data model)."""

from repro.sql.features import UNKNOWN_RELATION, extract_features


SCHEMA = {
    "watersalinity": {"salinity", "loc_x", "loc_y", "depth", "lake_id"},
    "watertemp": {"temp", "loc_x", "loc_y", "depth", "lake_id"},
    "citylocations": {"city", "state", "loc_x", "loc_y", "population"},
    "lakes": {"lake_id", "name", "state", "area_km2"},
}


class TestTables:
    def test_single_table(self):
        features = extract_features("SELECT * FROM Lakes")
        assert features.tables == ["lakes"]
        assert features.num_tables == 1

    def test_multiple_tables_with_aliases(self):
        features = extract_features("SELECT * FROM WaterSalinity S, WaterTemp T")
        assert set(features.tables) == {"watersalinity", "watertemp"}

    def test_join_tables_counted(self):
        features = extract_features("SELECT * FROM a JOIN b ON a.x = b.x")
        assert set(features.tables) == {"a", "b"}

    def test_subquery_tables_included(self):
        features = extract_features(
            "SELECT * FROM a WHERE a.id IN (SELECT b.id FROM b)"
        )
        assert set(features.tables) == {"a", "b"}
        assert features.num_subqueries == 1

    def test_derived_table_subquery_counted(self):
        features = extract_features("SELECT * FROM (SELECT x FROM inner_t) d")
        assert "inner_t" in features.tables
        assert features.num_subqueries == 1

    def test_statement_kind_for_dml(self):
        features = extract_features("DELETE FROM lakes WHERE lake_id = 1")
        assert features.statement_kind == "delete"
        assert features.tables == ["lakes"]


class TestPredicates:
    def test_simple_predicate(self):
        features = extract_features("SELECT * FROM WaterTemp T WHERE T.temp < 18")
        assert len(features.predicates) == 1
        predicate = features.predicates[0]
        assert (predicate.attribute, predicate.relation, predicate.op, predicate.constant) == (
            "temp",
            "watertemp",
            "<",
            18,
        )

    def test_reversed_literal_predicate_mirrored(self):
        features = extract_features("SELECT * FROM WaterTemp T WHERE 18 > T.temp")
        assert features.predicates[0].op == "<"

    def test_between_becomes_two_predicates(self):
        features = extract_features("SELECT * FROM t WHERE t.x BETWEEN 1 AND 5")
        ops = {p.op for p in features.predicates}
        assert ops == {">=", "<="}

    def test_in_list_predicate(self):
        features = extract_features("SELECT * FROM t WHERE t.x IN (1, 2, 3)")
        predicate = features.predicates[0]
        assert predicate.op == "IN"
        assert predicate.constant == (1, 2, 3)

    def test_like_predicate(self):
        features = extract_features("SELECT * FROM t WHERE t.name LIKE 'Lake%'")
        assert features.predicates[0].op == "LIKE"

    def test_is_null_predicate(self):
        features = extract_features("SELECT * FROM t WHERE t.x IS NULL")
        assert features.predicates[0].op == "IS NULL"

    def test_unqualified_column_resolved_via_schema(self):
        features = extract_features(
            "SELECT * FROM WaterSalinity, CityLocations WHERE salinity > 0.2",
            SCHEMA,
        )
        assert features.predicates[0].relation == "watersalinity"

    def test_ambiguous_unqualified_column_unknown(self):
        features = extract_features(
            "SELECT * FROM WaterSalinity, WaterTemp WHERE depth > 5", SCHEMA
        )
        assert features.predicates[0].relation == UNKNOWN_RELATION

    def test_single_table_unqualified_column_resolved(self):
        features = extract_features("SELECT * FROM WaterTemp WHERE temp < 10")
        assert features.predicates[0].relation == "watertemp"

    def test_having_predicates_on_attributes_recorded(self):
        features = extract_features(
            "SELECT state FROM lakes GROUP BY state HAVING COUNT(*) > 2"
        )
        # COUNT(*) > 2 is not an attribute predicate but grouping is captured.
        assert ("state", "lakes") in features.group_by


class TestJoins:
    def test_where_equi_join_detected(self):
        features = extract_features(
            "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x"
        )
        assert features.num_joins == 1
        join = features.joins[0].normalized()
        assert {join.left_relation, join.right_relation} == {"watersalinity", "watertemp"}

    def test_on_clause_join_detected(self):
        features = extract_features("SELECT * FROM a JOIN b ON a.id = b.id")
        assert features.num_joins == 1

    def test_join_signature_is_order_independent(self):
        first = extract_features("SELECT * FROM a, b WHERE a.id = b.id")
        second = extract_features("SELECT * FROM a, b WHERE b.id = a.id")
        assert first.join_signatures() == second.join_signatures()

    def test_join_not_counted_as_predicate(self):
        features = extract_features("SELECT * FROM a, b WHERE a.id = b.id")
        assert features.num_predicates == 0


class TestProjectionsAndMore:
    def test_select_star_flag(self):
        assert extract_features("SELECT * FROM t").select_star is True

    def test_projection_columns(self):
        features = extract_features("SELECT T.temp, T.depth FROM WaterTemp T")
        assert ("temp", "watertemp") in features.projections
        assert ("depth", "watertemp") in features.projections

    def test_aggregates_recorded(self):
        features = extract_features("SELECT AVG(T.temp), COUNT(*) FROM WaterTemp T")
        assert "AVG" in features.aggregates
        assert "COUNT" in features.aggregates

    def test_group_and_order_by(self):
        features = extract_features(
            "SELECT T.month FROM WaterTemp T GROUP BY T.month ORDER BY T.month"
        )
        assert ("month", "watertemp") in features.group_by
        assert ("month", "watertemp") in features.order_by

    def test_distinct_and_limit(self):
        features = extract_features("SELECT DISTINCT state FROM lakes LIMIT 7")
        assert features.distinct is True
        assert features.limit == 7

    def test_nesting_depth(self):
        features = extract_features(
            "SELECT * FROM a WHERE a.x IN (SELECT b.x FROM b WHERE b.y IN (SELECT c.y FROM c))"
        )
        assert features.nesting_depth == 2
        assert features.num_subqueries == 2

    def test_token_bag_contains_all_feature_classes(self):
        features = extract_features(
            "SELECT S.salinity, AVG(T.temp) FROM WaterSalinity S, WaterTemp T "
            "WHERE S.loc_x = T.loc_x AND T.temp < 18 GROUP BY S.salinity"
        )
        bag = features.token_bag()
        assert any(token.startswith("table:") for token in bag)
        assert any(token.startswith("join:") for token in bag)
        assert any(token.startswith("pred:") for token in bag)
        assert any(token.startswith("agg:") for token in bag)
        assert any(token.startswith("group:") for token in bag)

    def test_feature_sets_are_frozensets(self):
        features = extract_features("SELECT * FROM t WHERE t.a = 1")
        assert isinstance(features.table_set(), frozenset)
        assert isinstance(features.predicate_signatures(), frozenset)

    def test_predicate_signatures_with_constants(self):
        features = extract_features("SELECT * FROM t WHERE t.a = 1")
        with_constants = features.predicate_signatures(with_constants=True)
        assert ("a", "t", "=", 1) in with_constants

    def test_accepts_preparsed_statement(self):
        from repro.sql.parser import parse

        features = extract_features(parse("SELECT * FROM lakes"))
        assert features.tables == ["lakes"]



class TestCorrelatedSubqueries:
    def test_outer_alias_resolves_to_the_outer_table(self):
        features = extract_features(
            "SELECT L.name FROM Lakes L WHERE EXISTS "
            "(SELECT 1 FROM WaterTemp T WHERE T.lake_id = L.lake_id)",
            SCHEMA,
        )
        assert ("lake_id", "lakes") in features.attributes
        assert features.join_signatures() == {("lakes", "lake_id", "watertemp", "lake_id")}

    def test_an_unqualified_name_is_attributed_among_the_local_tables(self):
        features = extract_features(
            "SELECT L.name FROM Lakes L WHERE EXISTS "
            "(SELECT 1 FROM WaterTemp T WHERE temp > 20 AND T.lake_id = L.lake_id)",
            SCHEMA,
        )
        assert ("temp", "watertemp") in features.attributes
