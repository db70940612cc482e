"""Shared infrastructure for the benchmark harness.

Every benchmark module regenerates one experiment from DESIGN.md's
per-experiment index (F1–F4, C1–C8, A1–A2).  The helpers here build replayed
CQMS instances (cached per parameter set so a pytest session reuses them),
format the result tables that each experiment prints, and implement the
recommendation-quality metrics (hit-rate@k, MRR) used by C5/A2.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.workloads import QueryLogGenerator, WorkloadConfig

#: Where machine-readable benchmark results land (committed alongside the
#: benchmarks; CI uploads them as artifacts too).
RESULTS_DIR = Path(__file__).resolve().parent


def write_bench_json(name: str, payload: dict) -> Path:
    """Write one benchmark's machine-readable results to ``BENCH_<name>.json``.

    The payload is annotated with the interpreter version (numbers move
    between CPython releases).
    """
    payload = dict(payload)
    payload.setdefault("python", platform.python_version())
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


#: Cache of prepared experiment environments, keyed by their parameters.
_ENV_CACHE: dict[tuple, "ExperimentEnv"] = {}


@dataclass
class ExperimentEnv:
    """A prepared environment: database, CQMS, and the workload it replayed."""

    cqms: CQMS
    clock: SimulatedClock
    workload: list
    domain: str

    @property
    def store(self):
        return self.cqms.store

    @property
    def database(self):
        return self.cqms.database


def build_env(
    domain: str = "limnology",
    num_sessions: int = 120,
    num_users: int = 12,
    scale: int = 1,
    seed: int = 42,
    mine: bool = True,
    config: CQMSConfig | None = None,
    annotation_probability: float = 0.3,
) -> ExperimentEnv:
    """Build (or fetch from cache) a CQMS with a replayed synthetic workload."""
    key = (domain, num_sessions, num_users, scale, seed, mine,
           annotation_probability, config is None)
    if config is None and key in _ENV_CACHE:
        return _ENV_CACHE[key]
    clock = SimulatedClock()
    db = build_database(domain, scale=scale, seed=7, clock=clock)
    cqms = CQMS(db, config=config, clock=clock)
    cqms.register_user("admin", group="ops", is_admin=True)
    workload = QueryLogGenerator(
        WorkloadConfig(
            domain=domain,
            num_users=num_users,
            num_sessions=num_sessions,
            seed=seed,
            annotation_probability=annotation_probability,
        )
    ).generate()
    cqms.replay_workload(workload)
    if mine:
        cqms.run_miner()
    env = ExperimentEnv(cqms=cqms, clock=clock, workload=workload, domain=domain)
    if config is None:
        _ENV_CACHE[key] = env
    return env


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print one experiment's result table in a uniform format."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(headers[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(headers))
    ]
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(header_line)
    print("-" * len(header_line))
    for row in rows:
        print(" | ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


# ---------------------------------------------------------------------------
# Recommendation-quality metrics (used by C5 and A2)
# ---------------------------------------------------------------------------


def hit_rate_at_k(hits: list[int | None], k: int) -> float:
    """Fraction of evaluation cases whose relevant item appeared in the top k."""
    if not hits:
        return 0.0
    return sum(1 for rank in hits if rank is not None and rank < k) / len(hits)


def mean_reciprocal_rank(hits: list[int | None]) -> float:
    """Mean reciprocal rank (0 when the relevant item never appears)."""
    if not hits:
        return 0.0
    return sum(1.0 / (rank + 1) for rank in hits if rank is not None) / len(hits)


def rank_of_match(candidates: list[str], target_template: str) -> int | None:
    """Position of the first candidate matching the target template, or None."""
    for position, candidate in enumerate(candidates):
        if candidate == target_template:
            return position
    return None
