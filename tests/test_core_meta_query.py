"""Tests for the Meta-Query Executor (all meta-query classes + access control)."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_control import AccessControl
from repro.core.meta_query import DataCondition, FeatureCondition, MetaQueryExecutor
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery
from repro.errors import MetaQueryError, ReproError
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features
from repro.sql.parse_tree import TreePattern, match_pattern, to_parse_tree
from repro.sql.parser import parse


@pytest.fixture()
def loaded_cqms(fresh_cqms):
    """A CQMS with a handful of hand-crafted queries from several users."""
    cqms = fresh_cqms
    queries = [
        ("alice", "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < 18"),
        ("alice", "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18"),
        ("bob", "SELECT * FROM CityLocations C WHERE C.population > 100000"),
        ("bob", "SELECT L.name, T.temp FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id AND T.temp < 18"),
        ("carol", "SELECT * FROM Sensors N WHERE N.installed_year < 2005"),
        ("alice", "SELECT C.city FROM CityLocations C WHERE C.state = 'WA'"),
    ]
    for user, sql in queries:
        execution = cqms.submit(user, sql)
        assert execution.succeeded, execution.error
    cqms.annotate("alice", 1, "correlates salinity and temperature for Seattle lakes")
    return cqms


class TestKeywordAndSubstring:
    def test_keyword_search_matches_text(self, loaded_cqms):
        results = loaded_cqms.search_keyword("alice", "watersalinity")
        assert len(results) == 1

    def test_keyword_search_matches_annotations(self, loaded_cqms):
        results = loaded_cqms.search_keyword("alice", ["seattle", "salinity"])
        assert [record.qid for record in results] == [1]

    def test_keyword_search_requires_all_keywords(self, loaded_cqms):
        assert loaded_cqms.search_keyword("alice", ["salinity", "neverappears"]) == []

    def test_keyword_search_empty_raises(self, loaded_cqms):
        with pytest.raises(MetaQueryError):
            loaded_cqms.search_keyword("alice", [])

    def test_substring_search(self, loaded_cqms):
        results = loaded_cqms.search_substring("alice", "temp < 18")
        assert len(results) >= 2

    def test_substring_search_case_insensitive(self, loaded_cqms):
        assert loaded_cqms.search_substring("alice", "WATERTEMP")

    def test_substring_empty_raises(self, loaded_cqms):
        with pytest.raises(MetaQueryError):
            loaded_cqms.search_substring("alice", "")

    def test_limit_respected(self, loaded_cqms):
        assert len(loaded_cqms.search_substring("alice", "SELECT", limit=2)) == 2


class TestAccessControlFiltering:
    def test_group_member_sees_group_queries(self, loaded_cqms):
        # bob is in lab1 with alice: he sees alice's group-visible queries.
        results = loaded_cqms.search_substring("bob", "WaterSalinity")
        assert len(results) == 1

    def test_other_group_does_not_see(self, loaded_cqms):
        # carol is in lab2: she must not see alice's group-visible queries.
        assert loaded_cqms.search_substring("carol", "WaterSalinity") == []

    def test_admin_sees_everything(self, loaded_cqms):
        assert len(loaded_cqms.search_substring("root", "SELECT")) == 6

    def test_own_queries_always_visible(self, loaded_cqms):
        assert loaded_cqms.search_substring("carol", "Sensors")


class TestQueryByFeature:
    def test_tables_all(self, loaded_cqms):
        condition = FeatureCondition(tables_all=["watersalinity", "watertemp"])
        results = loaded_cqms.search_features("alice", condition)
        assert [record.qid for record in results] == [1]

    def test_tables_any(self, loaded_cqms):
        condition = FeatureCondition(tables_any=["citylocations", "sensors"])
        results = loaded_cqms.search_features("root", condition)
        assert len(results) == 3

    def test_attributes_condition(self, loaded_cqms):
        condition = FeatureCondition(attributes=[("temp", "watertemp")])
        results = loaded_cqms.search_features("root", condition)
        assert len(results) == 3

    def test_predicates_on_with_operator(self, loaded_cqms):
        condition = FeatureCondition(predicates_on=[("temp", "watertemp", "<")])
        assert len(loaded_cqms.search_features("root", condition)) == 3
        condition = FeatureCondition(predicates_on=[("temp", "watertemp", ">")])
        assert loaded_cqms.search_features("root", condition) == []

    def test_author_and_kind(self, loaded_cqms):
        condition = FeatureCondition(author="bob", statement_kind="select")
        assert len(loaded_cqms.search_features("root", condition)) == 2

    def test_cardinality_bounds(self, loaded_cqms):
        condition = FeatureCondition(min_cardinality=1)
        results = loaded_cqms.search_features("root", condition)
        assert all(record.runtime.result_cardinality >= 1 for record in results)

    def test_text_contains(self, loaded_cqms):
        condition = FeatureCondition(text_contains="population")
        assert len(loaded_cqms.search_features("root", condition)) == 1

    def test_feature_sql_figure1(self, loaded_cqms):
        sql = (
            "SELECT Q.qid, Q.qText FROM Queries Q, Attributes A1, Attributes A2 "
            "WHERE Q.qid = A1.qid AND Q.qid = A2.qid "
            "AND A1.attrName = 'salinity' AND A1.relName = 'watersalinity' "
            "AND A2.attrName = 'temp' AND A2.relName = 'watertemp'"
        )
        results = loaded_cqms.search_sql("alice", sql)
        # qid 1 references both loc_x/temp; salinity attribute appears via S.loc_x?  It must
        # match only queries that actually touch both attributes.
        assert all(
            "watersalinity" in record.features.tables for record in results
        )

    def test_feature_sql_requires_qid_column(self, loaded_cqms):
        with pytest.raises(MetaQueryError):
            loaded_cqms.search_sql("alice", "SELECT qText FROM Queries")

    def test_generate_feature_sql_from_partial(self, loaded_cqms):
        sql = loaded_cqms.meta_query.generate_feature_sql(
            "SELECT FROM WaterSalinity, WaterTemp"
        )
        assert "DataSources" in sql
        assert "watersalinity" in sql and "watertemp" in sql

    def test_generate_feature_sql_includes_attributes(self, loaded_cqms):
        sql = loaded_cqms.meta_query.generate_feature_sql(
            "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18"
        )
        assert "Attributes" in sql and "'temp'" in sql

    def test_generate_feature_sql_no_tables_raises(self, loaded_cqms):
        with pytest.raises(MetaQueryError):
            loaded_cqms.meta_query.generate_feature_sql("SELECT 1 + 1")

    def test_find_queries_like_partial_end_to_end(self, loaded_cqms):
        results = loaded_cqms.search_like_partial(
            "alice", "SELECT FROM WaterSalinity, WaterTemp"
        )
        assert [record.qid for record in results] == [1]


class TestQueryByParseTree:
    def test_structural_match_on_table(self, loaded_cqms):
        pattern = TreePattern(label="table", value="sensors")
        results = loaded_cqms.search_parse_tree("root", pattern)
        assert len(results) == 1

    def test_structural_match_join_and_predicate(self, loaded_cqms):
        pattern = TreePattern(
            label="select",
            children=(
                TreePattern(label="table", value="lakes"),
                TreePattern(label="table", value="watertemp"),
                TreePattern(label="op", value="<"),
            ),
        )
        results = loaded_cqms.search_parse_tree("root", pattern)
        assert [record.qid for record in results] == [4]

    def test_no_match(self, loaded_cqms):
        pattern = TreePattern(label="table", value="nonexistent")
        assert loaded_cqms.search_parse_tree("root", pattern) == []

    def test_limit(self, loaded_cqms):
        pattern = TreePattern(label="select")
        assert len(loaded_cqms.search_parse_tree("root", pattern, limit=2)) == 2


class TestQueryByData:
    def test_include_value(self, loaded_cqms):
        condition = DataCondition(include_values=["Lake Washington"])
        results = loaded_cqms.search_by_data("root", condition)
        assert results
        for record in results:
            assert record.output.contains_value("Lake Washington")

    def test_include_and_exclude(self, loaded_cqms):
        condition = DataCondition(
            include_values=["Lake Washington"], exclude_values=["Lake Union"]
        )
        results = loaded_cqms.search_by_data("root", condition)
        # Only the temp < 18 join query distinguishes the two lakes (paper example).
        assert [record.qid for record in results] == [4]

    def test_exclude_only(self, loaded_cqms):
        condition = DataCondition(exclude_values=["NeverAValue"])
        results = loaded_cqms.search_by_data("root", condition)
        assert results  # every query with output qualifies

    def test_queries_without_output_not_matched(self, loaded_cqms):
        condition = DataCondition(include_values=["anything"])
        results = loaded_cqms.search_by_data("root", condition)
        assert all(record.output is not None for record in results)


class TestKnn:
    def test_knn_returns_similar_first(self, loaded_cqms):
        results = loaded_cqms.similar_queries(
            "root", "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 20", k=3
        )
        assert results
        assert results[0].qid == 1

    def test_knn_respects_access_control(self, loaded_cqms):
        results = loaded_cqms.similar_queries(
            "carol", "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 20", k=5
        )
        assert all(record.user == "carol" or record.visibility == "public" for record in results)

    def test_knn_exclude_qids(self, loaded_cqms):
        results = loaded_cqms.meta_query.knn(
            "root", "SELECT * FROM WaterTemp T WHERE T.temp < 18", k=5, exclude_qids={2}
        )
        assert all(record.qid != 2 for record in results)

    def test_knn_ranked_returns_scores(self, loaded_cqms):
        ranked = loaded_cqms.meta_query.knn(
            "root", "SELECT * FROM WaterTemp T WHERE T.temp < 18", k=3, ranked=True
        )
        assert all(0.0 <= item.score <= 1.0 for item in ranked)
        scores = [item.score for item in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_knn_probe_by_qid(self, loaded_cqms):
        results = loaded_cqms.meta_query.knn("root", 1, k=3, exclude_qids={1})
        assert results

    def test_knn_with_unparseable_probe(self, loaded_cqms):
        assert loaded_cqms.meta_query.knn("root", "complete nonsense ~~~", k=3) == []

    def test_knn_unsupported_probe_type_raises(self, loaded_cqms):
        with pytest.raises(MetaQueryError):
            loaded_cqms.meta_query.knn("root", 3.14, k=3)


class TestKnnFollowsTheLog:
    """The kNN index forgets removed queries and re-indexes repaired ones."""

    PROBE = "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 20"

    def test_knn_and_recommend_after_delete(self, loaded_cqms):
        assert loaded_cqms.similar_queries("root", self.PROBE, k=5)[0].qid == 1
        loaded_cqms.admin().delete_query("alice", 1)
        similar = loaded_cqms.similar_queries("root", self.PROBE, k=5)
        assert similar and 1 not in [record.qid for record in similar]
        recommended = loaded_cqms.recommend("root", self.PROBE, k=5)
        assert recommended and 1 not in [item.record.qid for item in recommended]
        panel = loaded_cqms.assist("root", "SELECT * FROM WaterSalinity S, WaterTemp T WHERE", k=3)
        assert panel.similar_queries
        assert 1 not in [item.record.qid for item in panel.similar_queries]

    def test_knn_ranks_a_repaired_query_by_its_new_features(self, loaded_cqms):
        assert loaded_cqms.similar_queries("root", self.PROBE, k=1)[0].qid == 1
        new_text = "SELECT * FROM Sensors N WHERE N.installed_year < 1999"
        loaded_cqms.store.replace_text(
            1,
            new_text,
            extract_features(new_text),
            canonical_text(new_text),
            canonical_text(new_text, strip_constants=True),
        )
        # The salinity/temperature probe no longer finds it ...
        assert 1 not in [
            record.qid for record in loaded_cqms.similar_queries("root", self.PROBE, k=5)
        ]
        # ... and a probe over its new relation does, next to the other Sensors query.
        similar = loaded_cqms.similar_queries(
            "root", "SELECT * FROM Sensors N WHERE N.installed_year < 2010", k=2
        )
        assert sorted(record.qid for record in similar) == [1, 5]


# ---------------------------------------------------------------------------
# The statement table and its tree-label postings
# ---------------------------------------------------------------------------

_TEXTS = [
    "SELECT * FROM WaterTemp T WHERE T.temp < 18",
    "SELECT * FROM WaterTemp T WHERE T.temp < 20",
    "SELECT L.name, T.temp FROM Lakes L, WaterTemp T WHERE L.lake_id = T.lake_id AND T.temp < 18",
    "SELECT L.state, COUNT(*) FROM Lakes L GROUP BY L.state",
    "SELECT name FROM Lakes WHERE lake_id IN (SELECT lake_id FROM WaterTemp WHERE temp > 5)",
    "SELEC oops FROM",                      # logged as a SELECT, does not parse
    "DELETE FROM WaterTemp WHERE temp < 0",  # parses, is not a SELECT
]
_USERS = {"alice": "lab1", "bob": "lab1", "carol": "lab2", "root": "ops"}


def _logged(qid: int, text: str, user: str = "alice", visibility: str = "group") -> LoggedQuery:
    try:
        features = extract_features(text)
    except ReproError:
        features = None
    return LoggedQuery(
        qid=qid,
        user=user,
        group=_USERS[user],
        text=text,
        timestamp=float(qid),
        statement_kind="delete" if text.startswith("DELETE") else "select",
        features=features,
        visibility=visibility,
    )


def _replace_text(store: QueryStore, qid: int, text: str) -> None:
    try:
        artefacts = (
            extract_features(text),
            canonical_text(text),
            canonical_text(text, strip_constants=True),
        )
    except ReproError:
        artefacts = (None, text, text)
    store.replace_text(qid, text, *artefacts)


def _brute_force(store: QueryStore, access: AccessControl, user: str, pattern: TreePattern):
    """What ``by_parse_tree`` means: one parse and one match per visible record."""
    qids = []
    for record in store.all_queries():
        if not (access.can_see(user, record) and record.is_select):
            continue
        try:
            tree = to_parse_tree(record.text)
        except ReproError:
            continue
        if match_pattern(tree, pattern):
            qids.append(record.qid)
    return qids


_patterns = st.recursive(
    st.builds(
        TreePattern,
        label=st.sampled_from(
            ["select", "table", "op", "column", "literal", "function", "where", "no_such_label"]
        ),
        value=st.sampled_from(["", "", "watertemp", "lakes", "<", "18", "t.temp", "COUNT", "zzz"]),
    ),
    lambda children: st.builds(
        TreePattern,
        label=st.sampled_from(["select", "where", "op", "from", "projection"]),
        value=st.sampled_from(["", "", "AND", "<", "IN"]),
        children=st.lists(children, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=4,
)
_users = st.sampled_from(sorted(_USERS))
_positions = st.integers(min_value=0, max_value=50)
_steps = st.one_of(
    st.tuples(st.just("search"), _users, _patterns, st.sampled_from([None, 1, 2])),
    st.tuples(st.just("remove"), _positions),
    st.tuples(st.just("replace_text"), _positions, st.sampled_from(_TEXTS)),
    st.tuples(st.just("set_visibility"), _positions, st.sampled_from(["private", "group", "public"])),
    st.tuples(st.just("grant"), _positions, _users),
    st.tuples(st.just("revoke"), _positions, _users),
)


class TestParseTreeIndex:
    @settings(max_examples=60, deadline=None)
    @given(
        log=st.lists(
            st.tuples(
                st.sampled_from(_TEXTS),
                st.sampled_from(["alice", "bob", "carol"]),
                st.sampled_from(["private", "group", "public"]),
            ),
            min_size=1,
            max_size=12,
        ),
        steps=st.lists(_steps, min_size=1, max_size=12),
    )
    def test_indexed_search_equals_brute_force(self, log, steps):
        store, access = QueryStore(), AccessControl()
        for user, group in _USERS.items():
            access.register(user, group, is_admin=user == "root")
        executor = MetaQueryExecutor(store, access)
        for qid, (text, user, visibility) in enumerate(log, start=1):
            store.add(_logged(qid, text, user, visibility))
        for step in steps:
            kind = step[0]
            if kind == "search":
                _, user, pattern, limit = step
                expected = _brute_force(store, access, user, pattern)
                found = executor.by_parse_tree(user, pattern, limit=limit)
                assert [record.qid for record in found] == expected[:limit]
                continue
            if not len(store):
                continue
            qid = store.all_queries()[step[1] % len(store)].qid
            if kind == "remove":
                store.remove(qid)
            elif kind == "replace_text":
                _replace_text(store, qid, step[2])
            elif kind == "set_visibility":
                store.set_visibility(qid, step[2])
            elif kind == "grant":
                access.grant(qid, step[2])
            else:
                access.revoke(qid, step[2])
        # Every user, one fixed pattern, whatever the steps left behind.
        pattern = TreePattern("select", children=(TreePattern("table", "watertemp"),))
        for user in _USERS:
            found = executor.by_parse_tree(user, pattern)
            assert [record.qid for record in found] == _brute_force(store, access, user, pattern)

    def test_second_search_parses_nothing(self, loaded_cqms, monkeypatch):
        calls = []

        def counting_parse(sql):
            calls.append(sql)
            return parse(sql)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, "parse", None) is parse:
                monkeypatch.setattr(module, "parse", counting_parse)
        pattern = TreePattern(label="select", children=(TreePattern("table", "watertemp"),))
        first = loaded_cqms.search_parse_tree("alice", pattern)
        visible_texts = {record.text for record in loaded_cqms.browser().visible_queries("alice")}
        assert 0 < len(calls) <= len(visible_texts)
        assert len(set(calls)) == len(calls)  # no text twice
        del calls[:]
        assert loaded_cqms.search_parse_tree("alice", pattern) == first
        # Nor does another pattern, or a principal who sees a subset of the same texts.
        loaded_cqms.search_parse_tree("alice", TreePattern("op", "<"))
        loaded_cqms.search_parse_tree("bob", pattern)
        assert calls == []

    def test_statement_entry_dies_with_its_last_record(self):
        store = QueryStore()
        shared, other = _TEXTS[0], _TEXTS[3]
        store.add(_logged(1, shared))
        store.add(_logged(2, shared))
        store.add(_logged(3, other))
        assert store.qids_matching(TreePattern("table", "watertemp"), {1, 2, 3}) == [1, 2]
        assert store._statements[shared].qids == {1, 2}
        assert store._statements[shared].tree is not None

        store.remove(1)
        assert store._statements[shared].qids == {2}
        assert shared in store._tree_postings[("table", "watertemp")]

        store.remove(2)
        assert shared not in store._statements
        assert ("table", "watertemp") not in store._tree_postings
        assert all(bucket and shared not in bucket for bucket in store._tree_postings.values())
        assert other in store._tree_postings["select"]

        store.remove(3)
        assert store._statements == {} and store._tree_postings == {}
