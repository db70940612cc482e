"""Text renderers for the CQMS client.

These functions turn CQMS data structures into the ASCII equivalents of the
paper's figures: the query-session window (Figure 2) and the assisted
query-composition panel (Figure 3).
"""

from __future__ import annotations

from repro.core.browse import SessionSummary
from repro.core.cqms import AssistResponse
from repro.core.records import LoggedQuery
from repro.core.recommender import Recommendation
from repro.core.sessions import QuerySession


def render_session_graph(
    session: QuerySession, store, max_width: int = 100
) -> str:
    """Render a session as a left-to-right chain of nodes with diff edges.

    This is the textual version of Figure 2: each node is a query of the
    session; each arrow is labelled with the difference from the previous
    query.
    """
    lines: list[str] = [
        f"Session {session.session_id} — {session.user} — "
        f"{len(session.qids)} queries over {session.duration:.0f}s"
    ]
    if not session.qids:
        return "\n".join(lines)
    first = store.get(session.qids[0])
    lines.append(f"  [q{first.qid}] {first.describe(max_width)}")
    edge_by_target = {edge.to_qid: edge for edge in session.edges}
    for qid in session.qids[1:]:
        record = store.get(qid)
        edge = edge_by_target.get(qid)
        label = edge.diff_summary if edge is not None else ""
        edge_type = edge.edge_type if edge is not None else "temporal"
        lines.append(f"    |--({edge_type}: {label})")
        lines.append(f"  [q{record.qid}] {record.describe(max_width)}")
    return "\n".join(lines)


def render_session_summary(summary: SessionSummary) -> str:
    """Render a :class:`~repro.core.browse.SessionSummary` as text."""
    lines = [
        f"Session {summary.session_id} by {summary.user}: "
        f"{summary.num_queries} queries, {summary.duration:.0f}s",
        f"  final: {summary.final_query}",
    ]
    for step in summary.steps:
        lines.append(f"  - {step}")
    for annotation in summary.annotations:
        lines.append(f"  note: {annotation}")
    return "\n".join(lines)


def render_recommendations(recommendations: list[Recommendation]) -> str:
    """Render the similar-queries table of the Figure 3 panel.

    Columns: Score | Query | Diff | Annotations.
    """
    header = f"{'Score':<7}| {'Query':<60}| {'Diff':<22}| Annotations"
    lines = [header, "-" * len(header)]
    for recommendation in recommendations:
        score, query, diff, annotations = recommendation.as_row()
        lines.append(f"{score:<7}| {query:<60}| {diff:<22}| {annotations}")
    return "\n".join(lines)


def render_assist_panel(partial_sql: str, response: AssistResponse) -> str:
    """Render the full Figure 3 panel: editor content, suggestions, similar queries."""
    lines = ["=== Query editor ===", partial_sql.rstrip() or "(empty)", ""]
    lines.append("--- Completions ---")
    for kind, suggestions in response.completions.items():
        if not suggestions:
            continue
        lines.append(f"{kind}:")
        for suggestion in suggestions:
            lines.append(f"  + {suggestion.text}   ({suggestion.score:.2f}, {suggestion.source})")
    lines.append("")
    lines.append("--- Corrections ---")
    if response.corrections:
        for correction in response.corrections:
            lines.append(f"  ! {correction}")
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append("--- Similar queries ---")
    if response.similar_queries:
        lines.append(render_recommendations(response.similar_queries))
    else:
        lines.append("  (none)")
    return "\n".join(lines)


def render_plan(explanation, title: str = "Query plan") -> str:
    """Render a :class:`~repro.storage.planner.PlanExplanation` as text.

    Shows the operator tree the engine chose — access paths (``IndexScan`` vs
    ``SeqScan``), join order and physical join operators, and the
    aggregation stage (``HashAggregate`` with its estimated group count) —
    so users can see why a (meta-)query is fast or slow.  An analyzed
    explanation (EXPLAIN ANALYZE) is titled accordingly; its lines already
    carry the per-node actual rows/batches/times and the execution summary
    (including groups emitted and aggregation time for grouped queries).
    """
    if getattr(explanation, "analyzed", False):
        title += " (analyzed)"
    lines = [f"=== {title} ==="]
    lines.extend(explanation.lines)
    return "\n".join(lines)


def render_plan_cache(stats_by_engine: dict[str, object]) -> str:
    """Render plan-cache hit rates per engine (the Workbench status line).

    ``stats_by_engine`` maps an engine label to its
    :class:`~repro.storage.plan_cache.PlanCacheStats`.
    """
    lines = ["=== Plan cache ==="]
    for label, stats in stats_by_engine.items():
        lines.append(
            f"{label}: {stats.hit_rate:.0%} hit rate "
            f"({stats.hits} hits / {stats.lookups} lookups, "
            f"{stats.size}/{stats.capacity} plans cached, "
            f"invalidated ddl={stats.invalidated_ddl} drift={stats.invalidated_drift}, "
            f"statements {stats.statement_hits}/{stats.statement_lookups})"
        )
    return "\n".join(lines)


def render_durability(stats_by_engine: dict[str, object]) -> str:
    """Render WAL/checkpoint and buffer-pool activity per engine (the
    Workbench durability panel).

    ``stats_by_engine`` maps an engine label to its
    :class:`~repro.storage.wal.WalStats` (None for an in-memory engine — the
    panel makes it obvious which engines would survive a crash) or to its
    :class:`~repro.storage.buffer_pool.BufferPoolStats`, surfacing
    working-set pressure: a falling hit rate or climbing eviction count
    means the pool is too small for the hot set.
    """
    lines = ["=== Durability ==="]
    for label, stats in stats_by_engine.items():
        if stats is None:
            lines.append(f"{label}: in-memory (no write-ahead log)")
            continue
        if hasattr(stats, "sync_policy"):
            lines.append(
                f"{label}: wal sync={stats.sync_policy}, "
                f"{stats.records} records / {stats.bytes_written} bytes, "
                f"{stats.row_mutations} row mutations "
                f"({stats.records_since_checkpoint} since checkpoint), "
                f"{stats.syncs} fsyncs over {stats.flushes} group commits "
                f"(avg batch {stats.avg_batch_records:.1f}, max {stats.max_batch_records}), "
                f"{stats.checkpoints} checkpoints, last lsn {stats.last_lsn}"
            )
            continue
        capacity = "unbounded" if stats.capacity is None else str(stats.capacity)
        lines.append(
            f"{label}: {stats.resident}/{capacity} pages resident "
            f"({stats.dirty} dirty, {stats.pins} pinned), "
            f"hit rate {stats.hit_rate:.1%} ({stats.hits} hits / {stats.misses} misses), "
            f"{stats.evictions} evictions, {stats.writebacks} writebacks, "
            f"{stats.pages_allocated} pages ever allocated"
        )
    return "\n".join(lines)


def render_query_health(health: dict[str, dict[str, object]]) -> str:
    """Render the per-user query-health panel (the SQL linter's summary).

    ``health`` is :meth:`~repro.core.cqms.CQMS.query_health` output: per
    user, query and invalid-flag counts, lint finding counts by severity,
    and a few example findings (worst first).
    """
    lines = ["=== Query health ==="]
    if not health:
        lines.append("(no logged queries)")
        return "\n".join(lines)
    header = (
        f"{'user':<12}| {'queries':<8}| {'invalid':<8}| "
        f"{'errors':<7}| {'warnings':<9}| info"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for user in sorted(health):
        entry = health[user]
        lines.append(
            f"{user:<12}| {entry['queries']:<8}| {entry['flagged_invalid']:<8}| "
            f"{entry['errors']:<7}| {entry['warnings']:<9}| {entry['info']}"
        )
    for user in sorted(health):
        for example in health[user]["examples"]:
            lines.append(f"  {user}: {example}")
    return "\n".join(lines)


def render_metrics(registry, slow_queries=(), max_slow: int = 5) -> str:
    """Render the Workbench metrics panel from a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    Latency histograms show their p50/p90/p99 deciles, counters and gauges
    their current value; the tail lists the slowest recent statements from
    the slow-query log (newest last).  This is the human view of the same
    data :meth:`~repro.core.cqms.CQMS.metrics_text` exposes for scraping.
    """
    from repro.obs.metrics import Histogram

    lines = ["=== Metrics ==="]
    histogram_lines: list[str] = []
    scalar_lines: list[str] = []
    for name, labels, instance in registry.series():
        label_text = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
        if isinstance(instance, Histogram):
            summary = instance.summary()
            histogram_lines.append(
                f"{name}{{{label_text}}}: "
                f"p50={summary['p50'] * 1000.0:.3f}ms "
                f"p90={summary['p90'] * 1000.0:.3f}ms "
                f"p99={summary['p99'] * 1000.0:.3f}ms "
                f"(n={int(summary['count'])})"
            )
        else:
            value = instance.value
            rendered = f"{value:g}" if value == int(value) else f"{value:.6g}"
            scalar_lines.append(f"{name}{{{label_text}}}: {rendered}")
    if histogram_lines:
        lines.append("-- latency --")
        lines.extend(histogram_lines)
    if scalar_lines:
        lines.append("-- counters & gauges --")
        lines.extend(scalar_lines)
    slow = list(slow_queries)
    if slow:
        lines.append(f"-- slow queries (last {min(len(slow), max_slow)}) --")
        for trace in slow[-max_slow:]:
            lines.append(f"{trace.total_seconds * 1000.0:.3f}ms  {trace.sql}")
    return "\n".join(lines)


def render_query_table(records: list[LoggedQuery], max_width: int = 70) -> str:
    """Render a list of logged queries as a table (the browse log view)."""
    header = f"{'qid':<6}| {'user':<10}| {'when':<10}| {'card.':<7}| query"
    lines = [header, "-" * len(header)]
    for record in records:
        lines.append(
            f"{record.qid:<6}| {record.user:<10}| {record.timestamp:<10.0f}| "
            f"{record.runtime.result_cardinality:<7}| {record.describe(max_width)}"
        )
    return "\n".join(lines)
