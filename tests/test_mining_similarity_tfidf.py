"""Tests for the similarity measures."""

import pytest

from repro.mining.similarity import (
    best_match,
    dice_similarity,
    edit_distance,
    jaccard_similarity,
    normalized_edit_similarity,
    overlap_coefficient,
    rank_by_similarity,
    text_trigram_similarity,
    weighted_feature_similarity,
)


class TestSetSimilarities:
    def test_jaccard_identical(self):
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_jaccard_partial(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_jaccard_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    def test_overlap_coefficient(self):
        assert overlap_coefficient({"a", "b", "c"}, {"a"}) == 1.0
        assert overlap_coefficient({"a"}, set()) == 0.0

    def test_dice(self):
        assert dice_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)

    def test_weighted_feature_similarity_weights_matter(self):
        first = {"tables": {"a", "b"}, "predicates": {"p"}}
        second = {"tables": {"a", "b"}, "predicates": {"q"}}
        table_heavy = weighted_feature_similarity(first, second, {"tables": 10, "predicates": 1})
        predicate_heavy = weighted_feature_similarity(first, second, {"tables": 1, "predicates": 10})
        assert table_heavy > predicate_heavy

    def test_weighted_feature_similarity_skips_empty_classes(self):
        first = {"tables": {"a"}, "joins": set()}
        second = {"tables": {"a"}, "joins": set()}
        assert weighted_feature_similarity(first, second) == 1.0

    def test_weighted_feature_similarity_zero_weight_excludes_class(self):
        first = {"tables": {"a"}, "predicates": {"p"}}
        second = {"tables": {"a"}, "predicates": {"q"}}
        assert weighted_feature_similarity(first, second, {"predicates": 0.0}) == 1.0

    def test_weighted_similarity_bounds(self):
        first = {"tables": {"a", "b"}, "predicates": {"p", "q"}}
        second = {"tables": {"b", "c"}, "predicates": set()}
        value = weighted_feature_similarity(first, second)
        assert 0.0 <= value <= 1.0


class TestEditDistance:
    def test_identical(self):
        assert edit_distance("abc", "abc") == 0

    def test_insertions_deletions(self):
        assert edit_distance("abc", "abcd") == 1
        assert edit_distance("abcd", "abc") == 1

    def test_substitution(self):
        assert edit_distance("kitten", "sitten") == 1

    def test_classic_example(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_empty_sequences(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_works_on_token_lists(self):
        assert edit_distance(["select", "a"], ["select", "b"]) == 1

    def test_max_distance_early_exit(self):
        assert edit_distance("aaaaaaaa", "bbbbbbbb", max_distance=2) == 3

    def test_normalized_similarity(self):
        assert normalized_edit_similarity("abc", "abc") == 1.0
        assert normalized_edit_similarity("", "") == 1.0
        assert 0.0 <= normalized_edit_similarity("abc", "xyz") <= 1.0


class TestTrigramAndMatching:
    def test_identical_strings(self):
        assert text_trigram_similarity("salinity", "salinity") == 1.0

    def test_typo_is_similar(self):
        assert text_trigram_similarity("salinity", "salinty") > 0.4

    def test_unrelated_strings_dissimilar(self):
        assert text_trigram_similarity("salinity", "population") < 0.2

    def test_case_insensitive(self):
        assert text_trigram_similarity("WaterTemp", "watertemp") == 1.0

    def test_best_match_finds_closest(self):
        match, score = best_match("watertmp", ["watertemp", "watersalinity", "lakes"])
        assert match == "watertemp"
        assert score > 0.4

    def test_best_match_respects_minimum(self):
        match, score = best_match("zzz", ["watertemp"], minimum=0.9)
        assert match is None and score == 0.0

    def test_rank_by_similarity(self):
        ranked = rank_by_similarity(
            "watertemp", ["watertemp", "watersalinity", "lakes"], text_trigram_similarity, limit=2
        )
        assert ranked[0][0] == "watertemp"
        assert len(ranked) == 2
