"""Benchmark trajectory: merge per-experiment results, gate regressions.

The perf history used to be scattered across the ``BENCH_*.json`` files with
no gate: a PR could halve a speedup and CI would stay green.  This tool
fixes both:

* ``python benchmarks/trajectory.py merge`` — collect every numeric scalar
  metric from every ``BENCH_*.json`` / ``BENCH_*.smoke.json`` (sorted, so
  the merge is deterministic) and record them in ``BENCH_trajectory.json``
  keyed by the current commit ("unknown" when git metadata is unavailable,
  e.g. a tarball checkout).  Re-running on the same commit updates that
  entry in place, so the committed file holds one row per PR.
* ``python benchmarks/trajectory.py check`` — compare the smoke-run *ratio*
  metrics (``*speedup*`` / ``*_vs_*`` keys: dimensionless and
  machine-comparable, unlike the raw latencies that are recorded as history
  only) currently on disk against the newest committed trajectory entry
  that carries each metric, and exit 1 if any regressed by more than 25%.
  Only smoke metrics are gated (they are what CI regenerates every run);
  full-run numbers are history, not a gate.  A ratio key some committed
  entry recorded but the current smoke run no longer produces is reported
  as ``retired`` (information only): a deleted gate leaves a trace in the
  CI log instead of vanishing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent
TRAJECTORY_PATH = RESULTS_DIR / "BENCH_trajectory.json"

#: A smoke ratio may drop to (1 - tolerance) × baseline before CI fails.
REGRESSION_TOLERANCE = 0.25


def _is_ratio_key(key: str) -> bool:
    return "speedup" in key or "_vs_" in key


def _payload_metrics(payload: dict) -> dict[str, float]:
    """Every numeric scalar metric of one payload (may be empty)."""
    return {
        key: float(value)
        for key, value in sorted(payload.items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def collect() -> dict[str, dict[str, float]]:
    """Metrics from every result file, keyed by experiment name.

    ``BENCH_columnar.smoke.json`` → ``columnar.smoke``.  Every result file
    with at least one numeric metric contributes an experiment, so the merge
    never records an empty trajectory while bench files exist on disk.
    """
    collected: dict[str, dict[str, float]] = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        if path.name == TRAJECTORY_PATH.name:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"trajectory: skipping unreadable {path.name}: {error}")
            continue
        if not isinstance(payload, dict):
            print(f"trajectory: skipping non-object payload {path.name}")
            continue
        metrics = _payload_metrics(payload)
        if metrics:
            name = path.name[len("BENCH_") : -len(".json")]
            collected[name] = metrics
    return collected


def _current_commit() -> str:
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=RESULTS_DIR,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return output or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _load_history() -> list[dict]:
    if not TRAJECTORY_PATH.exists():
        return []
    try:
        history = json.loads(TRAJECTORY_PATH.read_text()).get("history", [])
    except (OSError, json.JSONDecodeError, AttributeError):
        return []
    if not isinstance(history, list):
        return []
    # Tolerate hand-edited or pre-fix entries with missing metadata.
    return [entry for entry in history if isinstance(entry, dict)]


def merge() -> int:
    history = _load_history()
    commit = _current_commit()
    entry = {"commit": commit, "metrics": collect()}
    if not entry["metrics"]:
        print("trajectory: no ratio metrics found; nothing to merge")
        return 1
    for existing in history:
        if existing.get("commit") == commit:
            existing["metrics"] = entry["metrics"]
            break
    else:
        history.append(entry)
    TRAJECTORY_PATH.write_text(
        json.dumps({"history": history}, indent=2, sort_keys=True) + "\n"
    )
    experiments = ", ".join(sorted(entry["metrics"]))
    print(f"trajectory: recorded {commit} ({experiments})")
    return 0


def _baseline_for(history: list[dict], experiment: str) -> dict[str, float]:
    """The newest recorded metrics for one experiment (empty if never seen)."""
    for entry in reversed(history):
        metrics = entry.get("metrics", {}).get(experiment)
        if metrics:
            return metrics
    return {}


def _retired_ratio_keys(
    history: list[dict], current: dict[str, dict[str, float]]
) -> list[tuple[str, str, float]]:
    """Smoke ratio keys the history carries but ``current`` does not.

    ``(experiment, key, last recorded value)`` triples, sorted.
    """
    last: dict[tuple[str, str], float] = {}
    for entry in history:
        for experiment, metrics in entry.get("metrics", {}).items():
            if not experiment.endswith(".smoke"):
                continue
            for key, value in metrics.items():
                if _is_ratio_key(key):
                    last[(experiment, key)] = value
    return sorted(
        (experiment, key, value)
        for (experiment, key), value in last.items()
        if key not in current.get(experiment, {})
    )


def check() -> int:
    history = _load_history()
    if not history:
        print("trajectory: no committed baseline; run merge first")
        return 0
    current = collect()
    failures: list[str] = []
    compared = 0
    for experiment, metrics in sorted(current.items()):
        if not experiment.endswith(".smoke"):
            continue
        baseline = _baseline_for(history, experiment)
        for key, value in sorted(metrics.items()):
            if not _is_ratio_key(key):
                continue  # raw latencies/throughputs are history, not a gate
            base_value = baseline.get(key)
            if base_value is None or base_value <= 0:
                continue
            compared += 1
            floor = base_value * (1.0 - REGRESSION_TOLERANCE)
            status = "ok" if value >= floor else "REGRESSED"
            print(
                f"trajectory: {experiment}:{key} = {value:.3f} "
                f"(baseline {base_value:.3f}, floor {floor:.3f}) {status}"
            )
            if value < floor:
                failures.append(f"{experiment}:{key}")
    for experiment, key, value in _retired_ratio_keys(history, current):
        print(
            f"trajectory: {experiment}:{key} retired "
            f"(last recorded {value:.3f}, no longer produced)"
        )
    if failures:
        print(
            f"trajectory: {len(failures)} smoke metric(s) regressed >"
            f"{REGRESSION_TOLERANCE:.0%}: {', '.join(failures)}"
        )
        return 1
    print(f"trajectory: {compared} smoke ratio metric(s) within tolerance")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1] not in ("merge", "check"):
        print("usage: trajectory.py {merge|check}")
        return 2
    return merge() if argv[1] == "merge" else check()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
