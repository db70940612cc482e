#!/usr/bin/env python
"""Quickstart: a five-minute tour of the Collaborative Query Management System.

Builds the paper's limnology database, wraps it in a CQMS, submits a few
queries as two collaborating scientists, and demonstrates each interaction
mode: traditional (submit + annotate), search & browse (keyword, feature, and
kNN meta-queries), assisted (completion / correction / recommendation), and
administrative (mining and maintenance) — then shows the durable Query
Storage: with ``CQMSConfig(data_dir=...)`` the query log is written ahead to
disk and survives a restart.

Run with:  python examples/quickstart.py
"""

import shutil
import tempfile

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.client import (
    Workbench,
    render_assist_panel,
    render_query_table,
    render_session_graph,
)


def main() -> None:
    # 1. The shared scientific database (the "DBMS" of the paper's Figure 4).
    clock = SimulatedClock()
    db = build_database("limnology", scale=1, clock=clock)
    cqms = CQMS(db, clock=clock)

    # 2. Register collaborating users (access control is group based).
    cqms.register_user("nodira", group="uw-db")
    cqms.register_user("magda", group="uw-db")

    # 3. Traditional interaction: submit queries; the profiler logs everything.
    print("== Traditional interaction ==")
    queries = [
        "SELECT * FROM WaterTemp T WHERE T.temp < 22",
        "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 22",
        "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
        "WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 18",
    ]
    for sql in queries:
        execution = cqms.submit("nodira", sql)
        print(f"  nodira ran ({execution.result.rowcount:>4} rows): {sql[:70]}")
        clock.advance(45)
    cqms.annotate("nodira", 4, "find temp and salinity of seattle lakes")

    # 4. Background components (normally periodic): the Query Miner.
    report = cqms.run_miner()
    print(f"\nMined {report.num_sessions} session(s), {report.num_rules} association rules")

    # 5. Search & browse: keyword search and the Figure 2 session graph.
    print("\n== Search & browse interaction ==")
    hits = cqms.search_keyword("magda", "salinity")
    print(f"keyword 'salinity' -> {len(hits)} queries from the group's log")
    print(render_query_table(hits[:3]))
    session = max(report.sessions, key=len)
    print("\nSession graph (Figure 2):")
    print(render_session_graph(session, cqms.store))

    # 6. Assisted interaction: the Figure 3 panel for a partially typed query.
    print("\n== Assisted interaction ==")
    partial = "SELECT * FROM WaterSalinity S, "
    response = cqms.assist("magda", partial)
    print(render_assist_panel(partial, response))

    # 7. Administrative interaction: schema evolution and maintenance.
    print("\n== Administrative interaction ==")
    db.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temp_c")
    maintenance = cqms.run_maintenance()
    print(
        f"after renaming WaterTemp.temp: {maintenance.num_repaired} repaired, "
        f"{maintenance.num_flagged} flagged"
    )
    print("repaired example:", cqms.store.get(maintenance.repaired[0]).describe(90))

    # 8. Observability: every statement above was traced and histogrammed.
    # The Workbench metrics panel renders the registry's latency deciles,
    # counters, and the slow-query ring; CQMS.metrics_text() is the same
    # registry in Prometheus text format for a real scraper, and
    # set_user_limits(user, QueryLimits(rate_limit_qps=..,
    # statement_timeout_seconds=..)) adds per-principal admission control.
    print("\n== Observability ==")
    bench = Workbench(cqms, user="nodira")
    panel = bench.metrics_panel().splitlines()
    print("\n".join(panel[:12]))
    print(f"... ({len(panel)} panel lines; see also cqms.metrics_text())")

    # 9. Durability: with a data_dir the query log survives restarts.  The
    # Query Storage writes every logged query through a write-ahead log
    # (group-commit batched by default) and recovers it on reopen.
    print("\n== Durable Query Storage ==")
    data_dir = tempfile.mkdtemp(prefix="cqms_quickstart_")
    try:
        db2 = build_database("limnology", scale=1)
        with CQMS(db2, config=CQMSConfig(data_dir=data_dir, wal_sync="batch")) as durable:
            durable.register_user("nodira", group="uw-db")
            durable.submit("nodira", "SELECT * FROM WaterTemp T WHERE T.temp < 18")
            durable.annotate("nodira", 1, "the cold-water baseline query")
            durable.checkpoint()  # snapshot + truncate the WAL
            print("  logged 1 query into", data_dir)
        # ... the process "restarts": reopening the same data_dir recovers it.
        db3 = build_database("limnology", scale=1)
        with CQMS(db3, config=CQMSConfig(data_dir=data_dir)) as reopened:
            reopened.register_user("nodira", group="uw-db")
            record = reopened.store.get(1)
            print(f"  recovered q{record.qid}: {record.text}")
            print(f"  with annotations: {record.annotations}")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
