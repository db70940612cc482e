"""Shared fixtures.

Expensive fixtures (populated databases, replayed workloads) are
session-scoped; tests that mutate state build their own small instances.
"""

from __future__ import annotations

import pytest

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.storage import ExecutionSettings
from repro.workloads import QueryLogGenerator, WorkloadConfig

#: Every engine configuration the cross-path equivalence tests run: the
#: columnar path and the row-batch path at batch sizes that split the test
#: tables into many, few and one batch.
EXEC_VARIANTS = [
    pytest.param(
        ExecutionSettings(batch_size=batch_size, columnar_kernels=columnar),
        id=f"batch{batch_size}-{'columnar' if columnar else 'rows'}",
    )
    for batch_size in (1, 2, 256)
    for columnar in (True, False)
]


@pytest.fixture(params=EXEC_VARIANTS)
def exec_variant(request) -> ExecutionSettings:
    """One :class:`ExecutionSettings` per surviving execution path."""
    return request.param


@pytest.fixture(scope="session")
def limnology_db_readonly():
    """A populated limnology database shared by read-only tests."""
    return build_database("limnology", scale=1, seed=7)


@pytest.fixture()
def limnology_db():
    """A fresh populated limnology database for tests that mutate it."""
    return build_database("limnology", scale=1, seed=7)


@pytest.fixture(scope="session")
def small_workload():
    """A small deterministic workload log (events sorted by timestamp)."""
    generator = QueryLogGenerator(WorkloadConfig(num_sessions=40, num_users=8, seed=5))
    return generator.generate()


@pytest.fixture(scope="session")
def replayed_cqms(small_workload):
    """A CQMS with the small workload replayed and mined (read-only use)."""
    clock = SimulatedClock()
    db = build_database("limnology", scale=1, seed=7, clock=clock)
    cqms = CQMS(db, clock=clock)
    cqms.register_user("root", group="ops", is_admin=True)
    cqms.replay_workload(small_workload)
    cqms.run_miner()
    return cqms


@pytest.fixture()
def fresh_cqms():
    """An empty CQMS over a populated limnology database (mutable per test)."""
    clock = SimulatedClock()
    db = build_database("limnology", scale=1, seed=7, clock=clock)
    cqms = CQMS(db, clock=clock)
    cqms.register_user("alice", group="lab1")
    cqms.register_user("bob", group="lab1")
    cqms.register_user("carol", group="lab2")
    cqms.register_user("root", group="ops", is_admin=True)
    return cqms
