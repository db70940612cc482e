"""Generated plan corpus for the plan-invariant verifier.

CI does not get to hand-pick friendly plans: this module regenerates the
Figure-1 workload for every domain, plans each distinct statement under
both planner configurations (indexed, index-less), and
runs :class:`~repro.analysis.plan_verify.PlanVerifier` over every plan the
planner emits — SELECTs through ``plan_select`` (synthesized outer and cross
joins included), plus synthesized UPDATE/DELETE shapes per table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.ast_nodes import DeleteStatement, SelectStatement, UpdateStatement
from repro.sql.canonicalize import parameterize_statement
from repro.sql.parser import parse
from repro.storage.planner import Planner
from repro.workloads.generator import QueryLogGenerator, WorkloadConfig
from repro.workloads.schemas import build_database

from repro.analysis.framework import DiagnosticReport
from repro.analysis.plan_verify import PlanVerifier

DOMAINS = ("limnology", "sky_survey", "web_analytics")


@dataclass
class CorpusResult:
    """Outcome of one corpus run: counts plus the combined diagnostics."""

    plans_verified: int = 0
    statements: int = 0
    report: DiagnosticReport = field(default_factory=DiagnosticReport)

    def summary(self) -> str:
        counts = self.report.counts()
        severities = ", ".join(f"{count} {name}" for name, count in counts.items())
        return (
            f"verified {self.plans_verified} plans from {self.statements} "
            f"statements ({severities})"
        )


def domain_statements(domain: str, sessions: int = 60, seed: int = 42) -> list[str]:
    """Distinct workload SQL texts for one domain (deterministic)."""
    config = WorkloadConfig(domain=domain, num_sessions=sessions, seed=seed)
    seen: dict[str, None] = {}
    for query in QueryLogGenerator(config).generate():
        seen.setdefault(query.sql, None)
    return list(seen)


def dml_statements(database) -> list[str]:
    """Synthesized UPDATE/DELETE shapes per table: equality, range, and
    full-table predicates — the access paths the DML planner chooses among."""
    statements: list[str] = []
    for name in sorted(database.table_names()):
        schema = database.table(name).schema
        columns = list(schema.columns)
        if not columns:
            continue
        target = columns[0]
        numeric = next((c for c in columns if c.data_type.is_numeric), None)
        value = "0" if target.data_type.is_numeric else "'x'"
        statements.append(f"DELETE FROM {name} WHERE {target.name} = {value}")
        if numeric is not None:
            statements.append(
                f"UPDATE {name} SET {numeric.name} = 1 WHERE {numeric.name} > 0"
            )
        statements.append(f"UPDATE {name} SET {target.name} = {value}")
    return statements


def join_statements(database) -> list[str]:
    """Synthesized LEFT, RIGHT, FULL and CROSS joins per pair of adjacent
    tables, keyed on each one's first numeric column: an ON residual, a
    non-equi ON, WHERE conjuncts on either side, and an outer join under an
    inner one — shapes the workload never writes."""
    statements: list[str] = []
    names = sorted(database.table_names())
    for left, right in zip(names, names[1:]):
        lk, rk = (
            next((c.name for c in schema.columns if c.data_type.is_numeric), None)
            for schema in (database.table(left).schema, database.table(right).schema)
        )
        if lk is None or rk is None:
            continue
        on = f"l.{lk} = r.{rk}"
        statements += [
            f"SELECT * FROM {left} l LEFT JOIN {right} r ON {on} AND r.{rk} > 0",
            f"SELECT l.{lk}, r.{rk} FROM {left} l RIGHT JOIN {right} r ON {on} "
            f"WHERE l.{lk} > 1 AND r.{rk} < 9",
            f"SELECT * FROM {left} l FULL JOIN {right} r ON l.{lk} < r.{rk} "
            f"WHERE r.{rk} IS NULL",
            f"SELECT m.{lk}, r.{rk} FROM {left} l LEFT JOIN {right} r ON {on} "
            f"JOIN {left} m ON m.{lk} = l.{lk} WHERE l.{lk} = 2",
            f"SELECT l.{lk} FROM {left} l CROSS JOIN {right} r WHERE r.{rk} = 3",
        ]
    return statements


def verify_corpus(
    domains=DOMAINS, sessions: int = 60, seed: int = 42, scale: int = 1
) -> CorpusResult:
    """Plan and verify the whole generated corpus; parameterized *and* plain
    statement forms are both covered (the parameterized form is what the plan
    cache re-binds)."""
    result = CorpusResult()
    verifier = PlanVerifier()
    for domain in domains:
        sql_texts = domain_statements(domain, sessions=sessions, seed=seed)
        database = build_database(domain, scale=scale)
        sql_texts_all = sql_texts + dml_statements(database) + join_statements(database)
        for use_indexes in (True, False):
            for sql in sql_texts_all:
                statement = parse(sql)
                for variant in _statement_variants(statement):
                    plan = _plan(Planner(database, use_indexes=use_indexes), variant)
                    if plan is None:
                        continue
                    result.statements += 1
                    result.plans_verified += 1
                    for diagnostic in verifier.verify(plan):
                        result.report.add(
                            type(diagnostic)(
                                rule=diagnostic.rule,
                                severity=diagnostic.severity,
                                location=(
                                    f"{domain}{'' if use_indexes else '/no-index'}: "
                                    f"{diagnostic.location}"
                                ),
                                message=f"{diagnostic.message} [sql: {sql}]",
                            )
                        )
    return result


def _statement_variants(statement):
    yield statement
    parameterized, parameters = parameterize_statement(statement)
    if parameters:
        yield parameterized


def _plan(planner: Planner, statement):
    if isinstance(statement, SelectStatement):
        return planner.plan_select(statement)
    if isinstance(statement, UpdateStatement):
        return planner.plan_update(statement)
    if isinstance(statement, DeleteStatement):
        return planner.plan_delete(statement)
    return None
