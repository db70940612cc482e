"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import string
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mining.knn import KNNIndex
from repro.mining.similarity import edit_distance, jaccard_similarity, weighted_feature_similarity
from repro.sql.canonicalize import canonical_text, queries_equivalent
from repro.sql.diff import diff_queries
from repro.sql.formatter import format_statement
from repro.sql.parse_tree import to_parse_tree, tree_edit_distance, tree_size
from repro.sql.parser import parse
from repro.storage.statistics import Histogram, summarize_output
from repro.storage.types import sort_key

# ---------------------------------------------------------------------------
# Strategies: random (but valid) SQL queries over a small fixed schema.
# ---------------------------------------------------------------------------

_TABLES = {
    "watertemp": ["temp", "depth", "lake_id", "month"],
    "watersalinity": ["salinity", "depth", "lake_id"],
    "lakes": ["lake_id", "name", "state"],
}

_identifiers = st.sampled_from(sorted(_TABLES))


@st.composite
def sql_queries(draw) -> str:
    """Generate a syntactically valid SELECT over the fixed schema."""
    tables = draw(st.lists(_identifiers, min_size=1, max_size=3, unique=True))
    aliases = {table: f"t{i}" for i, table in enumerate(tables)}
    projections = []
    for table in tables:
        for column in draw(
            st.lists(st.sampled_from(_TABLES[table]), min_size=0, max_size=2, unique=True)
        ):
            projections.append(f"{aliases[table]}.{column}")
    select_clause = ", ".join(projections) if projections else "*"
    from_clause = ", ".join(f"{table} {aliases[table]}" for table in tables)
    predicates = []
    for table in tables:
        if draw(st.booleans()):
            column = draw(st.sampled_from(_TABLES[table]))
            op = draw(st.sampled_from(["<", ">", "=", "<=", ">=", "<>"]))
            value = draw(st.integers(min_value=-100, max_value=100))
            predicates.append(f"{aliases[table]}.{column} {op} {value}")
    if len(tables) >= 2 and draw(st.booleans()):
        predicates.append(f"{aliases[tables[0]]}.lake_id = {aliases[tables[1]]}.lake_id")
    sql = f"SELECT {select_clause} FROM {from_clause}"
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(min_value=1, max_value=50))}"
    return sql


token_sets = st.sets(st.sampled_from([f"tok{i}" for i in range(12)]), max_size=8)
token_lists = st.lists(st.sampled_from([f"tok{i}" for i in range(12)]), max_size=10)
short_text = st.text(alphabet=string.ascii_lowercase + " ", max_size=12)
_feature_classes = st.sampled_from(["aggregates", "joins", "predicates", "tables", "x", "y"])
feature_set_dicts = st.dictionaries(_feature_classes, token_sets.map(frozenset))
class_weights = st.dictionaries(
    _feature_classes, st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
)


# ---------------------------------------------------------------------------
# Parser / formatter / canonicalizer
# ---------------------------------------------------------------------------


class TestSqlRoundTripProperties:
    @given(sql_queries())
    @settings(max_examples=60, deadline=None)
    def test_parse_format_reparse_fixpoint(self, sql):
        ast = parse(sql)
        rendered = format_statement(ast)
        assert parse(rendered) == ast

    @given(sql_queries())
    @settings(max_examples=60, deadline=None)
    def test_canonicalization_idempotent(self, sql):
        once = canonical_text(sql)
        assert canonical_text(once) == once

    @given(sql_queries())
    @settings(max_examples=40, deadline=None)
    def test_query_equivalent_to_itself(self, sql):
        assert queries_equivalent(sql, sql)
        assert queries_equivalent(sql, sql, strip_constants=True)

    @given(sql_queries())
    @settings(max_examples=40, deadline=None)
    def test_diff_with_self_is_empty(self, sql):
        assert diff_queries(sql, sql).is_empty

    @given(sql_queries(), sql_queries())
    @settings(max_examples=40, deadline=None)
    def test_diff_distance_symmetric(self, first, second):
        assert diff_queries(first, second).distance() == diff_queries(second, first).distance()

    @given(sql_queries())
    @settings(max_examples=30, deadline=None)
    def test_parse_tree_distance_to_self_is_zero(self, sql):
        tree = to_parse_tree(sql)
        assert tree_edit_distance(tree, tree) == 0

    @given(sql_queries(), sql_queries())
    @settings(max_examples=25, deadline=None)
    def test_parse_tree_distance_symmetric_and_bounded(self, first, second):
        t1, t2 = to_parse_tree(first), to_parse_tree(second)
        d12 = tree_edit_distance(t1, t2)
        d21 = tree_edit_distance(t2, t1)
        assert d12 == d21
        assert 0 <= d12 <= tree_size(t1) + tree_size(t2)


# ---------------------------------------------------------------------------
# Similarity measures
# ---------------------------------------------------------------------------


class TestSimilarityProperties:
    @given(token_sets, token_sets)
    def test_jaccard_bounds_and_symmetry(self, first, second):
        value = jaccard_similarity(first, second)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(second, first)

    @given(token_sets)
    def test_jaccard_identity(self, items):
        assert jaccard_similarity(items, items) == 1.0

    @given(short_text, short_text)
    def test_edit_distance_symmetry_and_triangle_with_empty(self, first, second):
        assert edit_distance(first, second) == edit_distance(second, first)
        assert edit_distance(first, second) <= len(first) + len(second)

    @given(short_text, short_text, short_text)
    @settings(max_examples=60)
    def test_edit_distance_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(token_sets, token_sets)
    def test_weighted_feature_similarity_bounds(self, first, second):
        value = weighted_feature_similarity(
            {"tables": first, "predicates": second},
            {"tables": second, "predicates": first},
        )
        assert 0.0 <= value <= 1.0

    @given(feature_set_dicts, feature_set_dicts, class_weights)
    def test_weighted_feature_similarity_is_its_definition(self, first, second, weights):
        """The weighted mean of per-class Jaccard similarities over the classes
        non-empty on a side and weighted above zero, summed in sorted class
        order — equal to the last bit, whatever order the dicts list their
        classes in (a tie between two kNN shapes must stay a tie)."""
        total = score = 0.0
        for key in sorted(first.keys() | second.keys()):
            a, b = first.get(key, frozenset()), second.get(key, frozenset())
            weight = weights.get(key, 1.0)
            if (a or b) and weight > 0.0:
                total += weight
                score += weight * jaccard_similarity(a, b)
        expected = score / total if total else 1.0
        assert weighted_feature_similarity(first, second, weights) == expected
        backwards = dict(reversed(first.items())), dict(reversed(second.items()))
        assert weighted_feature_similarity(*backwards, weights) == expected


# ---------------------------------------------------------------------------
# kNN index
# ---------------------------------------------------------------------------


class TestKnnProperties:
    @given(st.lists(token_lists, min_size=1, max_size=10), token_lists)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_knn_results_sorted_and_within_k(self, corpus, probe):
        index = KNNIndex()
        for position, tokens in enumerate(corpus):
            index.add(position, tokens)
        k = 3
        neighbors = index.nearest(probe, k=k)
        assert len(neighbors) <= k
        similarities = [neighbor.similarity for neighbor in neighbors]
        assert similarities == sorted(similarities, reverse=True)
        assert all(0.0 <= value <= 1.0 for value in similarities)

    @given(st.lists(token_lists, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_item_is_its_own_nearest_neighbor(self, corpus):
        index = KNNIndex()
        for position, tokens in enumerate(corpus):
            index.add(position, tokens)
        for position, tokens in enumerate(corpus):
            if not tokens:
                continue
            neighbors = index.nearest(tokens, k=len(corpus))
            best = max(neighbors, key=lambda n: n.similarity)
            own = next(n for n in neighbors if n.key == position)
            assert own.similarity == best.similarity


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=300))
    def test_histogram_counts_sum_to_population(self, values):
        histogram = Histogram.build(values)
        assert histogram is not None
        assert sum(histogram.counts) == len(values)

    @given(
        st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=2, max_size=200),
        st.sampled_from(["<", "<=", ">", ">=", "="]),
        st.floats(min_value=-100, max_value=1100, allow_nan=False),
    )
    def test_selectivity_estimates_in_unit_interval(self, values, op, constant):
        histogram = Histogram.build(values)
        estimate = histogram.estimate_selectivity(op, constant)
        assert 0.0 <= estimate <= 1.0

    @given(
        # Small domains: heavy duplicates, so containment must respect multiplicity.
        st.lists(st.tuples(st.integers(-3, 3), st.one_of(st.none(), st.integers(0, 2))), max_size=300),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_output_summary_never_exceeds_budget_and_is_subset(self, rows, elapsed):
        summary = summarize_output(rows, ["a", "b"], elapsed, base_budget=16,
                                   seconds_per_extra_row=1.0, max_budget=64)
        budget = min(16 + int(elapsed), 64)
        assert len(summary) == min(budget, len(rows))
        assert Counter(summary) <= Counter(rows)
        # A sub-sequence: the sampled rows in result order.
        remaining = iter(rows)
        assert all(row in remaining for row in summary)

    @given(st.lists(st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5), st.booleans()), max_size=50))
    def test_sort_key_provides_total_order(self, values):
        ordered = sorted(values, key=sort_key)
        # Sorting twice gives the same order (total, deterministic).
        assert sorted(ordered, key=sort_key) == ordered
        # All Nones first.
        non_none_seen = False
        for value in ordered:
            if value is None:
                assert not non_none_seen
            else:
                non_none_seen = True
