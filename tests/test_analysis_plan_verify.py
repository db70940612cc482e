"""Tests for the plan-invariant verifier.

Broken plans are built by planning real SQL against the limnology schema and
then corrupting one invariant at a time, so each test pins exactly one rule.
The property test at the bottom is the positive half: every plan the planner
actually produces for generated workload queries must verify clean.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.corpus import domain_statements, verify_corpus
from repro.analysis.plan_verify import PlanVerifier
from repro.errors import ExecutionError
from repro.sql.ast_nodes import ColumnRef
from repro.sql.canonicalize import parameterize_statement
from repro.sql.parser import parse
from repro.storage.exec_settings import ExecutionSettings
from repro.storage.executor import Executor
from repro.storage.operators import Filter, HashJoin, SeqScan, SubqueryScan
from repro.storage.planner import Planner
from repro.workloads.schemas import build_database


@pytest.fixture(scope="module")
def database():
    return build_database("limnology")


def plan_sql(database, sql):
    return Planner(database).plan_select(parse(sql))


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


class TestBrokenPlans:
    def test_valid_plan_is_clean(self, database):
        plan = plan_sql(database, "SELECT name FROM Lakes WHERE state = 'WA'")
        assert PlanVerifier().verify_select(plan) == []

    def test_unresolvable_filter_column(self, database):
        plan = plan_sql(database, "SELECT name FROM Lakes WHERE area_km2 > 100")
        filters = [op for op in _walk(plan.root) if isinstance(op, Filter)]
        assert filters, "fixture must plan a Filter"
        filters[0].predicates.append(ColumnRef(table=None, name="wetness"))
        assert "plan-column-resolution" in rules_of(PlanVerifier().verify_select(plan))

    def test_allow_outer_suppresses_unresolvable(self, database):
        plan = plan_sql(database, "SELECT name FROM Lakes WHERE area_km2 > 100")
        filters = [op for op in _walk(plan.root) if isinstance(op, Filter)]
        filters[0].predicates.append(ColumnRef(table="Outer", name="x"))
        assert PlanVerifier().verify_select(plan, allow_outer=True) == []

    def test_binding_shape_mismatch(self, database):
        plan = plan_sql(database, "SELECT name FROM Lakes")
        scan = next(op for op in _walk(plan.root) if isinstance(op, SeqScan))
        scan.bindings = [(scan.bindings[0][0], ["name", "bogus"])]
        assert "plan-binding-shape" in rules_of(PlanVerifier().verify_select(plan))

    def test_duplicate_binding_name(self, database):
        plan = plan_sql(database, "SELECT * FROM Lakes a, WaterTemp b")
        assert PlanVerifier().verify_select(plan) == []
        # A hand-built plan binding one name twice (the planner refuses to).
        for scan in (op for op in _walk(plan.root) if isinstance(op, SeqScan)):
            scan.binding = "A" if scan.binding == "b" else scan.binding
            scan.bindings = [(scan.binding, scan.bindings[0][1])]
        plan.root.bindings = plan.root.left.bindings + plan.root.right.bindings
        diagnostics = PlanVerifier().verify_select(plan)
        assert rules_of(diagnostics) == {"plan-binding-shape"}
        assert "specified more than once" in diagnostics[0].format()

    def test_aggregate_inside_root_breaks_batch_contract(self, database):
        plan = plan_sql(
            database, "SELECT state, COUNT(*) FROM Lakes GROUP BY state"
        )
        assert plan.aggregate is not None
        plan.root = plan.aggregate
        assert "plan-batch-contract" in rules_of(PlanVerifier().verify_select(plan))

    def test_unreachable_parameter(self, database):
        statement, parameters = parameterize_statement(
            parse("SELECT name FROM Lakes WHERE lake_id = 7")
        )
        assert parameters
        plan = Planner(database).plan_select(statement)
        assert PlanVerifier().verify_select(plan) == []
        # Swap the access path for a bare scan: the ParamLiteral the plan
        # cache would re-bind is no longer reachable from the operator tree.
        plan.root = SeqScan(database.table("Lakes"), "Lakes", estimate=1.0)
        diagnostics = PlanVerifier().verify_select(plan)
        assert "plan-param-binding" in rules_of(diagnostics)

    def test_parameter_in_a_where_subquery(self, database):
        sql = (
            "SELECT name FROM Lakes WHERE lake_id IN "
            "(SELECT lake_id FROM WaterTemp WHERE temp < 18)"
        )
        statement, parameters = parameterize_statement(parse(sql))
        assert [parameter.value for parameter in parameters] == [18]
        plan = Planner(database).plan_select(statement)
        assert PlanVerifier().verify_select(plan) == []
        # The filter evaluates a copy of the subquery: re-binding the cached
        # statement's 18 would no longer change what the plan compares with.
        detached, _ = parameterize_statement(parse(sql))
        filters = [op for op in _walk(plan.root) if isinstance(op, Filter)]
        filters[0].predicates[:] = [detached.where]
        assert "plan-param-binding" in rules_of(PlanVerifier().verify_select(plan))

    def test_parameter_under_a_subquery_scan(self, database):
        # HAVING is evaluated from the derived table's statement, not by an
        # operator, so only the statement walk can reach its constant.
        inner = "SELECT state, COUNT(*) AS n FROM Lakes GROUP BY state HAVING COUNT(*) > 1"
        statement, parameters = parameterize_statement(
            parse(f"SELECT d.state FROM ({inner}) d WHERE d.n < 5")
        )
        assert sorted(parameter.value for parameter in parameters) == [1, 5]
        plan = Planner(database).plan_select(statement)
        assert PlanVerifier().verify_select(plan) == []
        scan = next(op for op in _walk(plan.root) if isinstance(op, SubqueryScan))
        detached, _ = parameterize_statement(parse(inner))
        scan.plan = Planner(database).plan_select(detached)
        diagnostics = PlanVerifier().verify_select(plan)
        assert "plan-param-binding" in rules_of(diagnostics)
        assert "value 1" in " ".join(d.message for d in diagnostics)

    def test_unresolvable_join_residual_column(self, database):
        plan = plan_sql(
            database,
            "SELECT L.name FROM Lakes L LEFT JOIN WaterTemp T "
            "ON L.lake_id = T.lake_id AND T.temp > L.max_depth_m",
        )
        join = next(op for op in _walk(plan.root) if isinstance(op, HashJoin))
        assert join.join_type == "LEFT" and join.pairs and join.residual
        assert PlanVerifier().verify_select(plan) == []
        join.residual.append(ColumnRef(table="Sensors", name="lake_id"))
        assert "plan-column-resolution" in rules_of(PlanVerifier().verify_select(plan))

    def test_parameter_in_a_join_residual(self, database):
        sql = (
            "SELECT L.name FROM Lakes L FULL JOIN WaterTemp T "
            "ON L.lake_id = T.lake_id AND T.temp < 18"
        )
        statement, parameters = parameterize_statement(parse(sql))
        assert [parameter.value for parameter in parameters] == [18]
        plan = Planner(database).plan_select(statement)
        assert PlanVerifier().verify_select(plan) == []
        join = next(op for op in _walk(plan.root) if isinstance(op, HashJoin))
        detached = Planner(database).plan_select(parameterize_statement(parse(sql))[0])
        join.residual[:] = next(
            op for op in _walk(detached.root) if isinstance(op, HashJoin)
        ).residual
        assert "plan-param-binding" in rules_of(PlanVerifier().verify_select(plan))

    def test_valid_dml_plan_is_clean(self, database):
        plan = Planner(database).plan_update(
            parse("UPDATE Lakes SET state = 'WA' WHERE lake_id = 3")
        )
        assert PlanVerifier().verify_dml(plan) == []


class TestExecutorHook:
    def test_broken_plan_refused_at_execution(self):
        database = build_database(
            "limnology", exec_settings=ExecutionSettings(verify_plans=True)
        )
        plan = plan_sql(database, "SELECT name FROM Lakes WHERE area_km2 > 100")
        filters = [op for op in _walk(plan.root) if isinstance(op, Filter)]
        filters[0].predicates.append(ColumnRef(table=None, name="wetness"))
        with pytest.raises(ExecutionError, match="plan failed verification"):
            Executor(database).execute_plan(plan)

    def test_real_queries_execute_with_verification_on(self):
        database = build_database(
            "limnology", exec_settings=ExecutionSettings(verify_plans=True)
        )
        for sql in (
            "SELECT name FROM Lakes ORDER BY name",
            "SELECT state, COUNT(*) FROM Lakes GROUP BY state",
            "SELECT L.name, S.sensor_id FROM Lakes L, Sensors S "
            "WHERE L.lake_id = S.lake_id",
            "SELECT name FROM Lakes WHERE lake_id IN "
            "(SELECT lake_id FROM Sensors)",
        ):
            result = database.execute(sql)
            assert result.columns


class TestGeneratedCorpus:
    def test_small_corpus_verifies_clean(self):
        result = verify_corpus(domains=("limnology",), sessions=12, seed=3)
        assert result.plans_verified > 0
        assert list(result.report) == []

    def test_every_conjunct_has_its_kernel(self, database):
        """Filters and join residuals run one kernel per conjunct: none is
        dropped or evaluated another way."""
        counted = 0
        for sql in domain_statements("limnology", sessions=12, seed=3):
            statement = parse(sql)
            for variant in (statement, parameterize_statement(statement)[0]):
                plan = Planner(database).plan_select(variant)
                for operator in _walk(plan.root):
                    if isinstance(operator, Filter):
                        assert len(operator.kernels) == len(operator.predicates), sql
                        counted += 1
                    elif hasattr(operator, "residual_kernels"):
                        assert len(operator.residual_kernels) == len(operator.residual), sql
                        counted += 1
        assert counted > 0

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planner_output_always_verifies(self, database, seed):
        verifier = PlanVerifier()
        for sql in domain_statements("limnology", sessions=3, seed=seed):
            statement = parse(sql)
            for variant in (statement, parameterize_statement(statement)[0]):
                plan = Planner(database).plan_select(variant)
                diagnostics = verifier.verify_select(plan)
                assert diagnostics == [], f"{sql!r} -> {diagnostics}"


def _walk(operator):
    yield operator
    for child in getattr(operator, "children", ()) or ():
        yield from _walk(child)
