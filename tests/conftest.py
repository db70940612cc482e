"""Shared fixtures.

Expensive fixtures (populated databases, replayed workloads) are
session-scoped; tests that mutate state build their own small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.storage import ExecutionSettings
from repro.workloads import QueryLogGenerator, WorkloadConfig

#: Every engine configuration the cross-path equivalence tests run: batch
#: sizes that split the test tables into many, few and one batch.
EXEC_VARIANTS = [
    pytest.param(ExecutionSettings(batch_size=batch_size), id=f"batch{batch_size}")
    for batch_size in (1, 2, 256)
]


@pytest.fixture(params=EXEC_VARIANTS)
def exec_variant(request) -> ExecutionSettings:
    """One :class:`ExecutionSettings` per batch size under test."""
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


@dataclass
class ReplayedLog:
    """A CQMS with a generated limnology workload replayed into it."""

    cqms: CQMS
    workload: list

    @property
    def store(self):
        return self.cqms.store


def _replay_log(
    num_sessions: int = 120, seed: int = 42, mine: bool = True, config: CQMSConfig | None = None
) -> ReplayedLog:
    clock = SimulatedClock()
    db = build_database("limnology", scale=1, seed=7, clock=clock)
    cqms = CQMS(db, config=config, clock=clock)
    cqms.register_user("admin", group="ops", is_admin=True)
    workload = QueryLogGenerator(
        WorkloadConfig(num_users=12, num_sessions=num_sessions, seed=seed)
    ).generate()
    cqms.replay_workload(workload)
    if mine:
        cqms.run_miner()
    return ReplayedLog(cqms, workload)


@pytest.fixture(scope="session")
def replay_log():
    """Builds a :class:`ReplayedLog` that differs from :func:`paper_env` in log
    size, seed or configuration, or that the test is going to mutate."""
    return _replay_log


@pytest.fixture(scope="session")
def paper_env() -> ReplayedLog:
    """The log the paper-claim tests share: 120 sessions of 12 users, seed 42,
    replayed and mined (550 queries).  Read-only: a test that submits, repairs
    or reconfigures builds its own through :func:`replay_log`."""
    return _replay_log()


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
