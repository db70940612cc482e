"""Table statistics: histograms, output samples, selectivity estimation.

Two CQMS requirements motivate this module:

* the Query Profiler stores *runtime* query features — result cardinality and
  output samples — and the paper notes the output-summary problem "is closely
  related to selectivity estimation [16] and standard approaches exist
  including building histograms or sampling" (Section 4.1);
* the Query Maintenance component must detect "significant changes in data
  distribution" that invalidate stored statistics (Section 4.4), which we do
  by comparing histogram snapshots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


#: Default number of buckets in an equi-width histogram.
DEFAULT_BUCKETS = 16

#: Default output sample size.
DEFAULT_SAMPLE_SIZE = 64


@dataclass
class Histogram:
    """An equi-width histogram over a numeric column (NULLs counted apart)."""

    low: float
    high: float
    counts: list[int]
    null_count: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts) + self.null_count

    @classmethod
    def build(cls, values: list, buckets: int = DEFAULT_BUCKETS) -> "Histogram | None":
        """Build a histogram from a column's values; None for non-numeric columns."""
        numeric = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
        null_count = sum(1 for v in values if v is None)
        if not numeric:
            return None
        low, high = float(min(numeric)), float(max(numeric))
        counts = [0] * buckets
        width = (high - low) / buckets if high > low else 1.0
        if width <= 0.0:
            width = 1.0  # a subnormal spread can underflow the bucket width
        for value in numeric:
            index = int((float(value) - low) / width)
            counts[min(index, buckets - 1)] += 1
        return cls(low=low, high=high, counts=counts, null_count=null_count)

    def estimate_selectivity(self, op: str, constant: float) -> float:
        """Estimate the fraction of rows satisfying ``column op constant``."""
        populated = sum(self.counts)
        if populated == 0:
            return 0.0
        buckets = len(self.counts)
        width = (self.high - self.low) / buckets if self.high > self.low else 1.0
        if width <= 0.0:
            width = 1.0
        if op == "=":
            return self._equal_fraction(constant, populated, width)
        if op == "<":
            return self._cumulative_fraction(constant, populated, width, inclusive=False)
        if op == "<=":
            return self._cumulative_fraction(constant, populated, width, inclusive=True)
        if op == ">":
            return max(
                0.0,
                1.0 - self._cumulative_fraction(constant, populated, width, inclusive=True),
            )
        if op == ">=":
            return max(
                0.0,
                1.0 - self._cumulative_fraction(constant, populated, width, inclusive=False),
            )
        if op == "<>":
            return 1.0 - self.estimate_selectivity("=", constant)
        return 0.33

    def _equal_fraction(self, constant: float, populated: int, width: float) -> float:
        """Estimated fraction of rows exactly equal to ``constant``."""
        if constant < self.low or constant > self.high:
            return 0.0
        buckets = len(self.counts)
        index = min(int((constant - self.low) / width), buckets - 1)
        # Assume uniformity inside the bucket with ~10 distinct values.
        return self.counts[index] / populated / 10.0

    def _cumulative_fraction(
        self, constant: float, populated: int, width: float, inclusive: bool
    ) -> float:
        """P(value <= constant) when ``inclusive`` else P(value < constant).

        The boundary value itself is worth roughly one bucket-tenth of mass
        (the same heuristic the ``=`` estimate uses), which is what makes
        ``<`` and ``<=`` — and hence BETWEEN versus strict ranges — cost
        differently.
        """
        equal = self._equal_fraction(constant, populated, width)
        if constant < self.low:
            return 0.0
        if constant == self.low:
            return equal if inclusive else 0.0
        if constant > self.high:
            return 1.0
        if constant == self.high:
            return 1.0 if inclusive else max(0.0, 1.0 - equal)
        position = (constant - self.low) / width if width else 0.0
        full_buckets = int(position)
        fraction_in_bucket = position - full_buckets
        count = sum(self.counts[:full_buckets])
        if full_buckets < len(self.counts):
            count += self.counts[full_buckets] * fraction_in_bucket
        base = count / populated
        return min(1.0, base + equal) if inclusive else base

    def distance(self, other: "Histogram") -> float:
        """Total-variation-style distance in [0, 1] between two histograms.

        Used by Query Maintenance to decide whether a column's distribution
        has changed enough to invalidate stored runtime statistics.
        """
        if self.total == 0 or other.total == 0:
            return 1.0 if self.total != other.total else 0.0
        # Resample both onto a common grid spanning both ranges.
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        grid = 32
        mine = self._resample(low, high, grid)
        theirs = other._resample(low, high, grid)
        return 0.5 * sum(abs(a - b) for a, b in zip(mine, theirs))

    def _resample(self, low: float, high: float, grid: int) -> list[float]:
        populated = sum(self.counts)
        if populated == 0:
            return [0.0] * grid
        result = [0.0] * grid
        width = (high - low) / grid if high > low else 1.0
        if width <= 0.0:
            width = 1.0
        own_width = (self.high - self.low) / len(self.counts) if self.high > self.low else 1.0
        if own_width <= 0.0:
            own_width = 1.0
        for index, count in enumerate(self.counts):
            center = self.low + (index + 0.5) * own_width
            target = int((center - low) / width) if width else 0
            result[min(max(target, 0), grid - 1)] += count / populated
        return result


@dataclass
class ColumnStatistics:
    """Statistics for one column."""

    name: str
    distinct_count: int = 0
    null_count: int = 0
    histogram: Histogram | None = None
    most_common: list[tuple[object, int]] = field(default_factory=list)


@dataclass
class TableStatistics:
    """Statistics for one table: row count plus per-column statistics."""

    table: str
    row_count: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    @classmethod
    def compute(
        cls,
        table_name: str,
        rows: list[tuple],
        columns: list[str],
        buckets: int = DEFAULT_BUCKETS,
    ) -> "TableStatistics":
        """Compute statistics from a table's rows, tuples laid out by
        ``columns``."""
        stats = cls(table=table_name, row_count=len(rows))
        if not rows:
            return stats
        for column, values in zip(columns, zip(*rows)):
            frequencies: dict[object, int] = {}
            for value in values:
                if value is not None:
                    frequencies[value] = frequencies.get(value, 0) + 1
            most_common = sorted(frequencies.items(), key=lambda kv: (-kv[1], str(kv[0])))[:8]
            stats.columns[column.lower()] = ColumnStatistics(
                name=column,
                distinct_count=len(frequencies),
                null_count=sum(1 for value in values if value is None),
                histogram=Histogram.build(values, buckets=buckets),
                most_common=most_common,
            )
        return stats

    def selectivity(self, column: str, op: str, constant) -> float:
        """Estimate selectivity of ``column op constant`` against this table."""
        column_stats = self.columns.get(column.lower())
        if column_stats is None or self.row_count == 0:
            return 0.33
        if op in ("IN", "NOT IN") and isinstance(constant, (list, tuple)):
            per_value = max(column_stats.distinct_count, 1)
            fraction = min(1.0, len(constant) / per_value)
            return fraction if op == "IN" else 1.0 - fraction
        if isinstance(constant, (int, float)) and column_stats.histogram is not None:
            return column_stats.histogram.estimate_selectivity(op, float(constant))
        if op == "=":
            return 1.0 / max(column_stats.distinct_count, 1)
        if op == "<>":
            return 1.0 - 1.0 / max(column_stats.distinct_count, 1)
        return 0.33

    def drift(self, other: "TableStatistics") -> float:
        """Aggregate distribution drift between two snapshots, in [0, 1].

        The maximum histogram distance over shared numeric columns, combined
        with the relative change in row count.  Query Maintenance compares the
        result against a configurable threshold.
        """
        row_drift = 0.0
        if max(self.row_count, other.row_count) > 0:
            row_drift = abs(self.row_count - other.row_count) / max(
                self.row_count, other.row_count
            )
        histogram_drift = 0.0
        for name, column_stats in self.columns.items():
            other_stats = other.columns.get(name)
            if other_stats is None:
                continue
            if column_stats.histogram is not None and other_stats.histogram is not None:
                histogram_drift = max(
                    histogram_drift, column_stats.histogram.distance(other_stats.histogram)
                )
        return min(1.0, max(row_drift, histogram_drift))


def group_count_estimate(distinct_counts: list[float], input_rows: float) -> float:
    """Estimated GROUP BY output cardinality from per-key distinct counts.

    The product of the keys' distinct counts assumes key independence (the
    textbook estimate), capped at the input row estimate — a group cannot
    exist without at least one input row — and floored at one group.
    """
    product = 1.0
    for count in distinct_counts:
        product *= max(count, 1.0)
    return max(1.0, min(product, max(input_rows, 1.0)))


def join_key_overlap(left: ColumnStatistics | None, right: ColumnStatistics | None) -> tuple[float, float]:
    """Fractions of each side's rows whose join-key value can possibly match.

    Returns ``(left_fraction, right_fraction)``: the histogram-estimated share
    of each column's rows that fall inside the intersection of the two
    columns' value ranges.  Disjoint ranges return ``(0, 0)`` (the equi-join
    is provably near-empty); a missing histogram on either side returns
    ``(1, 1)`` (no evidence, assume full overlap).  The planner multiplies
    these into its join fanout estimate so joins between partially
    overlapping key domains stop being costed as if every key matched.
    """
    if left is None or right is None:
        return 1.0, 1.0
    left_hist, right_hist = left.histogram, right.histogram
    if left_hist is None or right_hist is None:
        return 1.0, 1.0
    low = max(left_hist.low, right_hist.low)
    high = min(left_hist.high, right_hist.high)
    if low > high:
        return 0.0, 0.0

    def _fraction(histogram: Histogram) -> float:
        inside = histogram.estimate_selectivity(
            "<=", high
        ) - histogram.estimate_selectivity("<", low)
        return min(1.0, max(inside, 0.0))

    return _fraction(left_hist), _fraction(right_hist)


def summarize_output(
    rows: list[tuple],
    columns: list[str],
    execution_time: float,
    base_budget: int = DEFAULT_SAMPLE_SIZE,
    seconds_per_extra_row: float = 0.05,
    max_budget: int = 2_000,
) -> list[tuple]:
    """Adaptive output summarization (paper Section 4.1, "Profiling query results").

    The allowed summary size grows with the query's execution time: a query
    that took hours but produced ten rows is stored in full, while a fast
    query with millions of rows is down-sampled to the base budget: ``budget``
    positions drawn without replacement, seeded by the row count, and their
    rows kept in result order — a sub-sequence of ``rows``, O(budget log
    budget) and never a comparison of two values.
    """
    budget = base_budget + int(execution_time / seconds_per_extra_row)
    budget = min(budget, max_budget)
    if len(rows) <= budget:
        return list(rows)
    rng = random.Random(len(rows) * 2654435761 % (2**31))
    return [rows[position] for position in sorted(rng.sample(range(len(rows)), budget))]


def entropy(counts: list[int]) -> float:
    """Shannon entropy of a count vector (used in workload diagnostics)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result
