#!/usr/bin/env python3
"""End-to-end CQMS benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of output is the result object
        (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer metrics)
    python3 benchmarks/e2e/run.py [--seed N] [--runs R] [--out FILE]
        every workload, both kinds of run, R times (seeds N, N+1, ...)
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --selfcheck

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import re
import shutil
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"{REPO / 'src' / 'repro'} not found: the benchmark runs the engine from source")
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import harness  # noqa: E402
import spans  # noqa: E402

_IMPORT_S = time.perf_counter() - _PROCESS_START


def run_workload(name: str, seed: int, seconds: float, trace: bool, factor: float = 1.0) -> dict:
    """One run.  Untraced: passes until ``seconds`` after the process started
    (at least three).  Traced: one untraced and one traced pass, whatever
    ``seconds`` says."""
    spec = harness.WORKLOADS[name]
    if factor != 1.0:
        spec = harness.scaled(spec, factor)
    work_dir = harness.WORK_DIR / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    inputs_start = time.perf_counter()
    inputs = harness.make_inputs(name, spec, seed)
    once_s = _IMPORT_S + time.perf_counter() - inputs_start
    try:
        if trace:
            results = [harness.run_pass(name, spec, inputs, mines=spec.mines, work_dir=work_dir)]
            traced = harness.run_pass(
                name, spec, inputs, traced=True, mines=spec.mines, work_dir=work_dir
            )
            metrics = harness.pass_per_layer(spec, results[0], traced)
            if name == "explore_small":
                metrics.update(harness.toggled_metrics(name, spec, inputs, results[0]))
            _check_trace(traced.recorder, errors)
            traced.recorder.dump(harness.WORK_DIR / f"trace_{name}.json")
            results.append(traced)
        else:
            # A pass is started only if one of the usual length would still
            # end in time, so a slow host gets fewer passes, not a longer run.
            results, took = [], []
            deadline = _PROCESS_START + seconds
            while (len(results) < harness.MIN_PASSES
                   or time.perf_counter() + statistics.median(took) < deadline):
                pass_start = time.perf_counter()
                results.append(harness.run_pass(name, spec, inputs, work_dir=work_dir))
                took.append(time.perf_counter() - pass_start)
            metrics = harness.pass_end_to_end(spec, harness.merge_passes(results))
            metrics["setup_s"] += once_s
            metrics["peak_rss_mb"] = harness.peak_rss_mb()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    errors += [error for r in results for error in r.errors]
    return {
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(results),
        "input_digest": results[0].digest[:16],
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "errors": errors[:5],
        "metrics": metrics,
    }


def _check_trace(recorder: spans.SpanRecorder, errors: list[str]) -> None:
    errors.extend(recorder.problems()[:3])
    errors.extend(f"wrapper left installed: {name}" for name in spans.leftover_wrappers())


def _units(trace: bool) -> dict[str, str]:
    return harness.PER_LAYER if trace else harness.END_TO_END


def result_line(run: dict) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    units = _units(bool(run["trace"]))
    return json.dumps({
        "correct": run["failed"] == 0 and not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {key: {"value": run["metrics"][key], "unit": units[key]} for key in units},
    })


def print_run(run: dict) -> None:
    units = _units(bool(run["trace"]))
    print(f"# {run['workload']} seed={run['seed']} trace={run['trace']} passes={run['passes']} "
          f"input_digest={run['input_digest']} attempted={run['attempted']} failed={run['failed']} "
          f"failed_fraction={run['failed'] / max(1, run['attempted']):.6f}")
    for error in run["errors"]:
        print(f"#   error: {error}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{key:48s} {run['metrics'][key]:14.6g} {unit}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _side(runs: list[dict], key: str) -> tuple[float, float]:
    """(median, spread as a share of the median) of one metric over a side's
    runs: the distance between the quartiles from four runs on, the range
    below that, 0 for a single run (which cannot show a spread)."""
    values = [run["metrics"][key] for run in runs]
    middle = float(statistics.median(values))
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return middle, (width / middle if middle else 0.0)


def compare(path_a: str, path_b: str) -> int:
    """One row per workload × end-to-end metric; exit status 1 on any ``worse``."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    spec = {m["name"]: m for m in _benchmark_json()["end_to_end"]}
    worse = 0
    print(f"{'workload':14s} {'metric':12s} {'A median':>12s} {'B median':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'spreadA':>8s} {'spreadB':>8s}  verdict")
    for name in harness.WORKLOADS:
        runs_a = [r for r in a["runs"] if r["workload"] == name and not r["trace"]]
        runs_b = [r for r in b["runs"] if r["workload"] == name and not r["trace"]]
        if not runs_a or not runs_b:
            continue
        for key, metric in spec.items():
            (mid_a, spread_a), (mid_b, spread_b) = _side(runs_a, key), _side(runs_b, key)
            change = mid_b / mid_a - 1.0
            loss = change if metric["better"] == "lower" else -change
            if loss > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif max(spread_a, spread_b) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:14s} {key:12s} {mid_a:12.5g} {mid_b:12.5g} {mid_b / mid_a:7.3f} "
                  f"{metric['bound']:6.2f} {spread_a:8.3f} {spread_b:8.3f}  {verdict}")
        digests_a = {r["seed"]: (r["input_digest"], r["attempted"] // r["passes"]) for r in runs_a}
        for run in runs_b:
            if run["seed"] in digests_a and digests_a[run["seed"]] != (
                run["input_digest"], run["attempted"] // run["passes"]
            ):
                print(f"{name:14s} seed {run['seed']}: input_digest or op count differs  worse")
                worse += 1
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def selfcheck() -> int:
    """Tiny sizes, < 30 s: the output schema against BENCHMARK.json, and one
    run of each kind per workload (a traced run checks its own span
    arithmetic and that every wrapper is gone: see ``_check_trace``)."""
    problems: list[str] = []
    names = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    declared = _benchmark_json()
    for section, units in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != units:
            problems.append(f"BENCHMARK.json {section} differs from the harness: "
                            f"{sorted(set(listed) ^ set(units))}")
        problems.extend(f"bad metric name {n!r}" for n in units if not names.match(n))
    if [w["name"] for w in declared["workloads"]] != list(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    if not (len(harness.WORKLOADS) <= 8 and len(harness.END_TO_END) <= 16
            and len(harness.PER_LAYER) <= 128):
        problems.append("too many workloads or metrics")
    for name in harness.WORKLOADS:
        for trace in (False, True):
            run = run_workload(name, seed=42, seconds=0.0, trace=trace, factor=0.05)
            parsed = json.loads(result_line(run))
            if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(parsed)}")
            if set(parsed["metrics"]) != set(_units(trace)):
                problems.append(f"{name}: metric set differs from the declared one")
            if not parsed["correct"]:
                problems.append(f"{name} trace={int(trace)}: {run['failed']} failed; {run['errors']}")
    shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    for problem in problems:
        print("selfcheck:", problem)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="full mode: runs per workload")
    parser.add_argument("--out", help="write the runs to this JSON file (input of compare)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_run(run)
        if args.out:
            Path(args.out).write_text(json.dumps({"runs": [run]}, indent=1))
        print(result_line(run))
        return 0
    # Every run in a process of its own, as the driver does it: set-up time
    # and peak memory mean something only in a fresh process.
    runs = []
    harness.WORK_DIR.mkdir(exist_ok=True)
    handoff = harness.WORK_DIR / f"run-{os.getpid()}.json"
    for name in harness.WORKLOADS:
        for offset in range(args.runs):
            for trace in (0, 1) if args.trace is None else (args.trace,):
                subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed + offset),
                     "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(handoff)],
                    check=True,
                )
                runs += json.loads(handoff.read_text())["runs"]
                handoff.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    return 1 if any(run["failed"] or run["errors"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
