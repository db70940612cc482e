"""Unit tests for the obs primitives: metrics, tracing, admission."""

import pytest

from repro.clock import SimulatedClock
from repro.errors import RateLimitedError
from repro.obs import (
    AdmissionController,
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryLimits,
    SlowQueryLog,
    TokenBucket,
    Trace,
)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_total_never_moves_backward(self):
        counter = Counter()
        counter.set_total(10)
        counter.set_total(4)  # a stats mirror restarting must not rewind
        assert counter.value == 10
        counter.set_total(12)
        assert counter.value == 12

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4

    def test_histogram_quantiles_interpolate(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        # rank 2 of 4 lands mid-bucket (1.0, 2.0]; linear interpolation.
        assert histogram.quantile(0.5) == pytest.approx(1.5, abs=0.51)
        assert histogram.quantile(1.0) == pytest.approx(4.0)
        assert histogram.quantile(0.0) == pytest.approx(0.0, abs=1.0)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(6.5 / 4)
        assert set(summary) == {"p50", "p90", "p99", "count", "mean"}

    def test_histogram_overflow_lands_in_inf_and_caps_quantile(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(100.0)
        assert histogram.bucket_counts[-1] == 1
        # +Inf ranks report the observable ceiling, not infinity.
        assert histogram.quantile(0.99) == 1.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0


class TestRegistry:
    def test_get_or_create_and_counter_total_suffix(self):
        registry = MetricsRegistry()
        first = registry.counter("statements", "n", engine="database")
        again = registry.counter("statements", "n", engine="database")
        assert first is again
        (name, labels, instance) = next(iter(registry.series()))
        assert name == "repro_statements_total"
        assert labels == {"engine": "database"}
        assert instance is first

    def test_series_require_at_least_one_label(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("naked", "no labels")

    def test_kind_and_label_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("pool_pages", "g", engine="database")
        with pytest.raises(ValueError):
            registry.histogram("pool_pages", "h", engine="database")
        with pytest.raises(ValueError):
            registry.gauge("pool_pages", "g", shard="0")

    def test_a_bound_child_is_reused_and_conflicts_still_raise(self):
        registry = MetricsRegistry()
        child = registry.gauge("pool_pages", "g", engine="database", pool="meta")
        assert registry.gauge("pool_pages", "g", engine="database", pool="meta") is child
        # Another spelling of the same series binds to the same child.
        assert registry.gauge("repro_pool_pages", "g", pool="meta", engine="database") is child
        for _ in range(2):
            with pytest.raises(ValueError):
                registry.histogram("pool_pages", "h", engine="database", pool="meta")
            with pytest.raises(ValueError):
                registry.gauge("pool_pages", "g", engine="database")
        assert registry.series_count() == 1

    def test_find_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("statement_seconds", "s", engine="database")
        assert registry.find_histogram("statement_seconds", engine="database") is histogram
        assert registry.find_histogram("statement_seconds", engine="other") is None
        assert registry.find_histogram("missing", engine="database") is None

    def test_render_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("statements", "executed statements", engine="database").inc(3)
        registry.histogram(
            "statement_seconds", "latency", buckets=(0.1, 1.0), engine="database"
        ).observe(0.05)
        text = registry.render()
        assert "# HELP repro_statements_total executed statements" in text
        assert "# TYPE repro_statements_total counter" in text
        assert 'repro_statements_total{engine="database"} 3' in text
        assert '# TYPE repro_statement_seconds histogram' in text
        # Buckets are cumulative and +Inf mirrors _count.
        assert 'repro_statement_seconds_bucket{engine="database",le="0.1"} 1' in text
        assert 'repro_statement_seconds_bucket{engine="database",le="+Inf"} 1' in text
        assert 'repro_statement_seconds_count{engine="database"} 1' in text

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("statements", "n", engine='we"ird\\lab\nel').inc()
        line = [l for l in registry.render().splitlines() if l.startswith("repro_state")][0]
        assert '\\"' in line and "\\\\" in line and "\\n" in line

    def test_time_block_uses_injected_timer(self):
        ticks = iter([1.0, 3.5])
        registry = MetricsRegistry(timer=lambda: next(ticks))
        histogram = registry.histogram("work_seconds", "w", engine="database")
        with registry.time_block(histogram):
            pass
        assert histogram.sum == pytest.approx(2.5)

    def test_series_count_counts_children_not_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("statement_seconds", "s", engine="a")
        registry.histogram("statement_seconds", "s", engine="b")
        registry.counter("statements", "n", engine="a")
        assert registry.series_count() == 3

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))


class TestTracing:
    def test_span_timer_records_duration_and_meta(self):
        ticks = iter([0.0, 1.0, 1.0, 2.5])
        trace = Trace("SELECT 1", timer=lambda: next(ticks))
        with trace.span("parse") as span:
            span["statement_cache_hit"] = False
        with trace.span("execute"):
            pass
        assert [s.name for s in trace.spans] == ["parse", "execute"]
        assert trace.spans[0].duration_seconds == pytest.approx(1.0)
        assert trace.spans[0].meta == {"statement_cache_hit": False}
        assert trace.spans[1].duration_seconds == pytest.approx(1.5)

    def test_span_records_error_type_on_exception(self):
        trace = Trace("SELECT 1")
        with pytest.raises(RuntimeError):
            with trace.span("execute"):
                raise RuntimeError("boom")
        assert trace.spans[0].meta["error"] == "RuntimeError"

    def test_render_mentions_sql_and_spans(self):
        trace = Trace("SELECT * FROM t")
        trace.add_span("op:SeqScan", 0.25, rows=10)
        trace.total_seconds = 0.5
        rendered = trace.render()
        assert "SELECT * FROM t" in rendered
        assert "op:SeqScan" in rendered and "rows=10" in rendered

    def test_slow_query_log_threshold_and_ring(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=1.0)
        fast = Trace("fast")
        fast.total_seconds = 0.5
        assert not log.offer(fast)
        slow = []
        for index in range(3):
            trace = Trace(f"slow {index}")
            trace.total_seconds = 2.0
            slow.append(trace)
            assert log.offer(trace)
        assert log.observed == 4 and log.admitted == 3
        assert len(log) == 2  # oldest slow trace evicted
        assert [t.sql for t in log.entries()] == ["slow 1", "slow 2"]

    def test_slow_query_log_validates_arguments(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_seconds=-1.0)


class TestAdmission:
    def test_token_bucket_starts_full_then_refills(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 2 qps × 0.5s = 1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(10.0)
        assert bucket.available == pytest.approx(2.0)  # capped at burst

    def test_token_bucket_validates_arguments(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5, clock=clock)

    def test_limits_merge_over_defaults(self):
        defaults = QueryLimits(rate_limit_qps=5.0, statement_timeout_seconds=30.0)
        merged = QueryLimits(statement_timeout_seconds=1.0).merged_over(defaults)
        assert merged.rate_limit_qps == 5.0
        assert merged.statement_timeout_seconds == 1.0

    def test_admit_counts_and_rejects(self):
        clock = SimulatedClock()
        registry = MetricsRegistry(clock=clock)
        controller = AdmissionController(registry, clock=clock)
        limits = QueryLimits(rate_limit_qps=1.0, rate_limit_burst=1.0)
        budget = controller.admit("ana", QueryLimits(statement_timeout_seconds=2.0))
        assert budget.timeout_seconds == 2.0
        controller.admit("ben", limits)
        with pytest.raises(RateLimitedError):
            controller.admit("ben", limits)
        # Unlimited principals never shed; the rejected counter is ben's only.
        series = {
            (name, labels.get("principal")): instance.value
            for name, labels, instance in registry.series()
        }
        assert series[("repro_queries_admitted_total", "ana")] == 1
        assert series[("repro_queries_admitted_total", "ben")] == 1
        assert series[("repro_queries_rejected_total", "ben")] == 1

    def test_bucket_recreated_when_rate_changes(self):
        clock = SimulatedClock()
        controller = AdmissionController(MetricsRegistry(clock=clock), clock=clock)
        controller.admit("ana", QueryLimits(rate_limit_qps=1.0, rate_limit_burst=1.0))
        # A raised limit takes effect immediately (fresh bucket, full burst).
        controller.admit("ana", QueryLimits(rate_limit_qps=5.0, rate_limit_burst=2.0))
        controller.admit("ana", QueryLimits(rate_limit_qps=5.0, rate_limit_burst=2.0))
        with pytest.raises(RateLimitedError):
            controller.admit("ana", QueryLimits(rate_limit_qps=5.0, rate_limit_burst=2.0))
