"""Tests for histograms, samples, selectivity estimation, and output summaries."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.storage import statistics
from repro.storage.statistics import Histogram, TableStatistics, entropy, summarize_output


class TestHistogram:
    def test_build_on_non_numeric_returns_none(self):
        assert Histogram.build(["a", "b", None]) is None

    def test_counts_sum_to_population(self):
        values = list(range(100))
        histogram = Histogram.build(values, buckets=8)
        assert sum(histogram.counts) == 100

    def test_null_count_tracked(self):
        histogram = Histogram.build([1, 2, None, None, 3])
        assert histogram.null_count == 2

    def test_selectivity_less_than(self):
        values = list(range(100))
        histogram = Histogram.build(values, buckets=10)
        estimate = histogram.estimate_selectivity("<", 50)
        assert 0.4 <= estimate <= 0.6

    def test_selectivity_out_of_range(self):
        histogram = Histogram.build(list(range(10)))
        assert histogram.estimate_selectivity("<", -5) == 0.0
        assert histogram.estimate_selectivity("<", 100) == 1.0
        assert histogram.estimate_selectivity(">", 100) == 0.0

    def test_selectivity_equality_small(self):
        histogram = Histogram.build(list(range(1000)), buckets=16)
        assert histogram.estimate_selectivity("=", 500) < 0.05

    def test_inclusive_bounds_cost_more_than_strict(self):
        histogram = Histogram.build(list(range(100)), buckets=10)
        assert histogram.estimate_selectivity("<=", 50) > histogram.estimate_selectivity("<", 50)
        assert histogram.estimate_selectivity(">=", 50) > histogram.estimate_selectivity(">", 50)

    def test_le_equals_lt_plus_eq(self):
        histogram = Histogram.build(list(range(100)), buckets=10)
        lt = histogram.estimate_selectivity("<", 50)
        le = histogram.estimate_selectivity("<=", 50)
        eq = histogram.estimate_selectivity("=", 50)
        assert abs(le - (lt + eq)) < 1e-9

    def test_inclusivity_at_domain_boundaries(self):
        histogram = Histogram.build(list(range(100)), buckets=10)
        assert histogram.estimate_selectivity("<", 0) == 0.0
        assert histogram.estimate_selectivity("<=", 0) > 0.0
        assert histogram.estimate_selectivity(">", 99) == 0.0
        assert histogram.estimate_selectivity(">=", 99) > 0.0
        assert histogram.estimate_selectivity("<=", 99) == 1.0

    def test_distance_of_identical_distributions_near_zero(self):
        values = [random.Random(0).uniform(0, 10) for _ in range(500)]
        first = Histogram.build(values)
        second = Histogram.build(list(values))
        assert first.distance(second) < 0.05

    def test_distance_of_shifted_distributions_large(self):
        first = Histogram.build([random.Random(0).uniform(0, 10) for _ in range(500)])
        second = Histogram.build([random.Random(1).uniform(100, 110) for _ in range(500)])
        assert first.distance(second) > 0.5


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the random words it draws."""

    draws = 0

    def getrandbits(self, k):
        CountingRandom.draws += 1
        return super().getrandbits(k)


class TestOutputSample:
    """The sampler's contract: ``min(rows, budget)`` rows drawn without
    replacement, kept in result order, a function of the rows alone, and
    O(budget) random draws however long the output is."""

    @pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 500, 5000])
    @pytest.mark.parametrize("budget", [0, 1, 32, 100])
    def test_size_is_min_of_rows_and_budget(self, rows, budget):
        output = [(i, -i) for i in range(rows)]
        summary = summarize_output(output, ["a", "b"], 0.0, base_budget=budget)
        assert len(summary) == min(rows, budget)

    def test_summary_is_a_sub_multiset_with_heavy_duplicates(self):
        rows = [(i % 3, "x" if i % 2 else None) for i in range(3000)]
        summary = summarize_output(rows, ["a", "b"], 0.0, base_budget=500)
        assert len(summary) == 500
        assert Counter(summary) <= Counter(rows)
        # Every distinct row is ~1/6 of the output, so each is drawn many times.
        assert all(count > 30 for count in Counter(summary).values())

    def test_sample_is_spread_over_the_output(self):
        summary = summarize_output([(i,) for i in range(10_000)], ["a"], 0.0, base_budget=64)
        assert len(set(summary)) == 64
        assert max(summary)[0] > 64 and min(summary)[0] < 10_000 - 64

    def test_sample_is_a_subsequence_in_result_order_with_nulls_and_mixed_types(self):
        values = [None, 3, 2.5, "b", "a", True, None, -1, "z", 0.0]
        rows = [(values[i % len(values)], values[(i * 7) % len(values)]) for i in range(400)]
        summary = summarize_output(rows, ["a", "b"], 0.0, base_budget=40)
        assert len(summary) == 40
        remaining = iter(rows)
        assert all(row in remaining for row in summary)
        # Distinct rows in descending order: the positions strictly increase.
        descending = [(-i,) for i in range(1000)]
        sample = summarize_output(descending, ["a"], 0.0, base_budget=40)
        assert len(set(sample)) == 40 and sample == sorted(sample, reverse=True)

    def test_equal_inputs_give_equal_summaries(self):
        rows = [(i % 17, f"v{i % 5}") for i in range(2000)]
        first = summarize_output(rows, ["a", "b"], 0.0, base_budget=32)
        second = summarize_output(list(rows), ["a", "b"], 0.0, base_budget=32)
        assert first == second

    def test_summary_does_not_depend_on_the_hash_seed(self):
        program = (
            "from repro.storage.statistics import summarize_output\n"
            "rows = [(i % 17, f'v{i % 5}', None if i % 3 else 1.5) for i in range(2000)]\n"
            "print(summarize_output(rows, ['a', 'b', 'c'], 0.0, base_budget=32))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", program],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(outputs) == 1

    def test_draws_are_bounded_by_the_budget_not_the_output(self, monkeypatch):
        monkeypatch.setattr(statistics, "random", SimpleNamespace(Random=CountingRandom))
        rows = [(i,) for i in range(200_000)]
        CountingRandom.draws = 0
        summary = summarize_output(rows, ["a"], 0.0, base_budget=32)
        assert len(summary) == 32
        # Rejection sampling may redraw a word; one draw per row would be 200k.
        assert 32 <= CountingRandom.draws <= 4 * 32


def _stats(rows):
    """Statistics of ``(id, state, area)`` rows."""
    return TableStatistics.compute("t", rows, ["id", "state", "area"])


class TestTableStatistics:
    ROWS = [(i, "WA" if i % 3 else "MI", float(i)) for i in range(60)]

    def test_compute_row_count_and_columns(self):
        stats = _stats(self.ROWS)
        assert stats.row_count == 60
        assert set(stats.columns) == {"id", "state", "area"}

    def test_distinct_and_most_common(self):
        stats = _stats(self.ROWS)
        assert stats.columns["state"].distinct_count == 2
        assert stats.columns["state"].most_common[0][0] == "WA"

    def test_selectivity_equality_on_categorical(self):
        stats = _stats(self.ROWS)
        assert abs(stats.selectivity("state", "=", "WA") - 0.5) < 0.1

    def test_selectivity_range_on_numeric(self):
        stats = _stats(self.ROWS)
        assert 0.3 <= stats.selectivity("area", "<", 30.0) <= 0.7

    def test_selectivity_in_list(self):
        stats = _stats(self.ROWS)
        assert stats.selectivity("state", "IN", ["WA", "MI"]) == 1.0

    def test_selectivity_unknown_column_default(self):
        stats = _stats(self.ROWS)
        assert stats.selectivity("nope", "=", 1) == 0.33

    def test_empty_table(self):
        stats = _stats([])
        assert stats.row_count == 0
        assert stats.selectivity("x", "=", 1) == 0.33

    def test_drift_detects_row_count_change(self):
        first = _stats(self.ROWS)
        second = _stats(self.ROWS[:20])
        assert first.drift(second) > 0.3

    def test_drift_near_zero_for_same_data(self):
        first = _stats(self.ROWS)
        second = _stats(list(self.ROWS))
        assert first.drift(second) < 0.05

    def test_drift_detects_distribution_shift(self):
        shifted = [(i, "WA", float(i) + 1000.0) for i in range(60)]
        first = _stats(self.ROWS)
        second = _stats(shifted)
        assert first.drift(second) > 0.5


class TestOutputSummarization:
    COLUMNS = ["a", "b"]

    def test_small_output_kept_completely(self):
        rows = [(i, i) for i in range(10)]
        assert summarize_output(rows, self.COLUMNS, execution_time=0.0) == rows

    def test_large_fast_output_sampled_to_base_budget(self):
        rows = [(i, i) for i in range(10_000)]
        summary = summarize_output(rows, self.COLUMNS, execution_time=0.0, base_budget=64)
        assert len(summary) == 64

    def test_long_running_query_gets_bigger_budget(self):
        rows = [(i, i) for i in range(10_000)]
        fast = summarize_output(rows, self.COLUMNS, execution_time=0.0, base_budget=32)
        slow = summarize_output(rows, self.COLUMNS, execution_time=60.0, base_budget=32)
        assert len(slow) > len(fast)

    def test_budget_capped_at_max(self):
        rows = [(i,) for i in range(20_000)]
        summary = summarize_output(
            rows, ["a"], execution_time=10_000.0, base_budget=32, max_budget=500
        )
        assert len(summary) == 500

    def test_sampled_rows_come_from_output(self):
        rows = [(i, str(i)) for i in range(1000)]
        summary = summarize_output(rows, self.COLUMNS, execution_time=0.0, base_budget=16)
        assert all(row in rows for row in summary)


class TestEntropy:
    def test_entropy_zero_for_single_bucket(self):
        assert entropy([10, 0, 0]) == 0.0

    def test_entropy_max_for_uniform(self):
        assert abs(entropy([5, 5, 5, 5]) - 2.0) < 1e-9

    def test_entropy_empty(self):
        assert entropy([]) == 0.0
