"""GC share: how much of each workload's timed operations the cyclic GC takes.

    python benchmarks/gc_share.py                           # all four workloads
    python benchmarks/gc_share.py --workload explore_scan --passes 3

Runs untraced passes of the end-to-end benchmark's workloads (the harness
beside ``run.py`` is imported as it is, never edited) at seed 42 and watches
the collections that happen while a timed operation runs, through
``gc.callbacks``.  Set-up, warm-up and the ``mine``/``recover`` operations
after the loop are not watched.  One line per pass:

* ``gc_share`` — collection pauses over the wall time of the timed operations,
* ``gen0``/``gen1``/``gen2`` — collections of each generation,
* ``promoted`` — objects a collection moved into the oldest generation.

Counting promotions lists the young generations when a gen-1 or gen-2
collection starts and the oldest one when it stops; that bookkeeping is left
out of both the pauses and the operations' wall time.

Not a CI step: run it by hand after a change to what the engine allocates,
and quote its before and after.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import harness  # noqa: E402


class GcWatch:
    """Collection counts and pauses, recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.ops = 0
        self.op_s = self.pause_s = self.bookkeeping_s = 0.0
        self.collections = [0, 0, 0]
        self.promoted = 0
        self._young: set[int] | None = None
        self._started = 0.0

    def callback(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        entered = time.perf_counter()
        generation = info["generation"]
        if phase == "start":
            if generation >= 1:
                self._young = {id(o) for g in (0, 1) for o in gc.get_objects(g)}
            self._started = time.perf_counter()
            self.bookkeeping_s += self._started - entered
            return
        self.pause_s += entered - self._started
        self.collections[generation] += 1
        if self._young is not None:
            young, self._young = self._young, None
            self.promoted += sum(id(o) in young for o in gc.get_objects(2))
        self.bookkeeping_s += time.perf_counter() - entered

    def timing(self, op):
        """Wrap ``harness._Runner.op``: watch the loop's operations only."""
        watch = self

        def run(runner, kind, call, check=None):
            if kind in harness.AFTER_LOOP:
                return op(runner, kind, call, check)
            watch.active = True
            started = time.perf_counter()
            try:
                return op(runner, kind, call, check)
            finally:
                watch.op_s += time.perf_counter() - started
                watch.ops += 1
                watch.active = False

        return run


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--passes", type=int, default=2)
    args = parser.parse_args(argv)
    watch = GcWatch()
    harness._Runner.op = watch.timing(harness._Runner.op)
    gc.callbacks.append(watch.callback)
    print(f"{'workload':14s} pass {'ops':>5s} {'op_s':>7s} {'gc_share':>8s} "
          f"{'gen0':>5s} {'gen1':>4s} {'gen2':>4s} {'promoted':>8s}")
    failed = 0
    with tempfile.TemporaryDirectory() as work_dir:
        for name in [args.workload] if args.workload else list(harness.WORKLOADS):
            spec = harness.WORKLOADS[name]
            inputs = harness.make_inputs(name, spec, args.seed)
            for number in range(1, args.passes + 1):
                watch.reset()
                result = harness.run_pass(name, spec, inputs, work_dir=Path(work_dir))
                failed += result.failed
                op_s = watch.op_s - watch.bookkeeping_s
                gen0, gen1, gen2 = watch.collections
                print(f"{name:14s} {number:4d} {watch.ops:5d} {op_s:7.3f} "
                      f"{watch.pause_s / op_s:8.3f} {gen0:5d} {gen1:4d} {gen2:4d} "
                      f"{watch.promoted:8d}", flush=True)
    gc.callbacks.remove(watch.callback)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
