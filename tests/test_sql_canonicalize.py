"""Tests for query canonicalization."""

import pytest

from repro.analysis.corpus import DOMAINS, domain_statements
from repro.sql.ast_nodes import SelectStatement
from repro.sql.canonicalize import canonical_text, canonicalize, queries_equivalent
from repro.sql.features import extract_features
from repro.sql.parser import parse
from repro.storage.plan_cache import PlanCache
from repro.workloads.schemas import build_database


class TestCanonicalEquivalence:
    def test_case_insensitivity(self):
        assert queries_equivalent(
            "SELECT * FROM Lakes WHERE Name = 'x'",
            "select * from lakes where name = 'x'",
        )

    def test_from_order_ignored(self):
        assert queries_equivalent(
            "SELECT * FROM a, b WHERE a.id = b.id",
            "SELECT * FROM b, a WHERE a.id = b.id",
        )

    def test_conjunct_order_ignored(self):
        assert queries_equivalent(
            "SELECT * FROM t WHERE a = 1 AND b = 2",
            "SELECT * FROM t WHERE b = 2 AND a = 1",
        )

    def test_alias_resolution_to_table_name(self):
        text = canonical_text("SELECT S.salinity FROM WaterSalinity S")
        assert "watersalinity.salinity" in text
        assert " s." not in text

    def test_alias_names_do_not_matter(self):
        assert queries_equivalent(
            "SELECT S.salinity FROM WaterSalinity S",
            "SELECT W.salinity FROM WaterSalinity W",
        )

    def test_literal_flipped_comparison_oriented(self):
        assert queries_equivalent(
            "SELECT * FROM t WHERE 18 > temp",
            "SELECT * FROM t WHERE temp < 18",
        )

    def test_different_constants_not_equivalent(self):
        assert not queries_equivalent(
            "SELECT * FROM t WHERE temp < 18",
            "SELECT * FROM t WHERE temp < 22",
        )

    def test_strip_constants_makes_them_equivalent(self):
        assert queries_equivalent(
            "SELECT * FROM t WHERE temp < 18",
            "SELECT * FROM t WHERE temp < 22",
            strip_constants=True,
        )

    def test_different_tables_not_equivalent(self):
        assert not queries_equivalent("SELECT * FROM a", "SELECT * FROM b")

    def test_self_join_aliases_preserved(self):
        # A self join must not collapse the two occurrences of the table.
        sql = "SELECT * FROM person a, person b WHERE a.boss = b.id"
        text = canonical_text(sql)
        assert text.count("person") >= 2
        reparsed = parse(text)
        assert len(reparsed.from_items) == 2


class TestCanonicalForm:
    def test_canonicalization_is_idempotent(self):
        sql = "SELECT B.y, a.x FROM bbb B, aaa a WHERE B.k = a.k AND a.x > 5"
        once = canonical_text(sql)
        twice = canonical_text(once)
        assert once == twice

    def test_in_list_values_sorted(self):
        first = canonical_text("SELECT * FROM t WHERE x IN (3, 1, 2)")
        second = canonical_text("SELECT * FROM t WHERE x IN (2, 3, 1)")
        assert first == second

    def test_group_by_sorted(self):
        first = canonical_text("SELECT a, b FROM t GROUP BY b, a")
        second = canonical_text("SELECT a, b FROM t GROUP BY a, b")
        assert first == second

    def test_subquery_canonicalized_too(self):
        text = canonical_text(
            "SELECT * FROM t WHERE x IN (SELECT Y.v FROM Other Y WHERE Y.k = 1)"
        )
        assert "other.v" in text

    def test_canonicalize_returns_select_statement(self):
        statement = canonicalize(parse("SELECT A.x FROM T A"))
        assert statement.from_items[0].name == "t"

    def test_non_select_passthrough(self):
        text = canonical_text("DELETE FROM t WHERE a = 1")
        assert text.startswith("DELETE FROM")

    def test_limit_preserved(self):
        assert "LIMIT 5" in canonical_text("SELECT * FROM t LIMIT 5")

    def test_join_equality_orientation_deterministic(self):
        first = canonical_text("SELECT * FROM a, b WHERE a.id = b.id")
        second = canonical_text("SELECT * FROM a, b WHERE b.id = a.id")
        assert first == second


#: Correlated subqueries over the limnology schema: each names a binding of
#: its enclosing query.
CORRELATED = [
    "SELECT L.name FROM Lakes L WHERE EXISTS "
    "(SELECT 1 FROM Sensors S WHERE S.lake_id = L.lake_id)",
    "SELECT L.name FROM Lakes L WHERE L.area_km2 > "
    "(SELECT AVG(M.area_km2) FROM Lakes M WHERE M.state = L.state)",
    "SELECT L.name FROM Lakes L WHERE L.lake_id IN "
    "(SELECT T.lake_id FROM WaterTemp T WHERE T.depth > L.max_depth_m / 10)",
    "SELECT L.name FROM Lakes L WHERE EXISTS "
    "(SELECT 1 FROM Lakes WHERE Lakes.area_km2 > L.area_km2)",
    "SELECT L.name, (SELECT COUNT(*) FROM WaterTemp T WHERE T.lake_id = L.lake_id) "
    "FROM Lakes L",
]


@pytest.fixture(scope="module")
def limnology():
    return build_database("limnology", scale=1, seed=7)


class TestCorrelatedSubqueries:
    def test_outer_alias_does_not_change_the_canonical_text(self):
        # A table bound at one level only is written by its name.
        for sql in [sql for sql in CORRELATED if sql.count("Lakes") == 1]:
            renamed = sql.replace("L.", "X.").replace("Lakes L", "Lakes X")
            assert canonical_text(sql) == canonical_text(renamed), sql
            assert canonical_text(sql, True) == canonical_text(renamed, True), sql

    def test_canonical_text_returns_the_original_rows(self, limnology):
        for sql in CORRELATED:
            expected = sorted(limnology.execute(sql).rows)
            assert expected, sql  # the data must be able to tell a wrong text
            assert sorted(limnology.execute(canonical_text(sql)).rows) == expected, sql

    def test_outer_reference_reads_the_outer_table(self):
        text = canonical_text(CORRELATED[0])
        assert "lakes.lake_id = sensors.lake_id" in text

    def test_a_table_bound_at_two_levels_keeps_its_aliases(self):
        text = canonical_text(CORRELATED[1])
        assert "FROM lakes l " in text and "FROM lakes m " in text
        assert "l.state = m.state" in text


    def test_no_feature_names_a_relation_outside_the_schema(self, limnology):
        schema = limnology.schema_columns()
        for sql in CORRELATED:
            features = extract_features(sql, schema)
            relations = set(features.tables)
            relations |= {relation for _, relation in features.attributes}
            relations |= {predicate.relation for predicate in features.predicates}
            for join in features.joins:
                relations |= {join.left_relation, join.right_relation}
            assert relations <= set(schema), (sql, relations - set(schema))


class TestTemplateFunctionsAgree:
    def test_template_text_is_the_plan_cache_key(self):
        cache = PlanCache(lambda name: None)
        compared = 0
        for domain in DOMAINS:
            for sql in domain_statements(domain):
                statement = parse(sql)
                if not isinstance(statement, SelectStatement):
                    continue
                assert canonical_text(statement, strip_constants=True) == (
                    cache.prepare(statement).key[0]
                ), sql
                compared += 1
        assert compared > 100
