"""Reach: which ``src/repro`` functions no non-test entry point ever enters.

    python benchmarks/reach.py    # run every entry point, print the list

Each entry point below runs as its own process with a temporary
``sitecustomize`` first on ``PYTHONPATH``.  That module installs a
``sys.setprofile`` (and ``threading.setprofile``) hook recording every code
object of ``src/repro`` a call enters, appending each new one to a per-process
file the moment it is first seen — so subprocesses are covered too, even one
that is SIGKILLed.  The report lists every function or method defined in
``src/repro`` (``def`` statements; lambdas and comprehensions are not
counted) that no process entered, then the total.

Not a CI step: it re-runs the CI commands under a profile hook, which would
more than double their time.  Run it by hand before deleting a lane, and
quote its before and after.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_SITECUSTOMIZE = '''
import os, sys, threading

_out = os.environ.get("REACH_OUT")
_src = os.environ.get("REACH_SRC")
if _out and _src:
    _seen = set()
    _file = open(os.path.join(_out, f"{os.getpid()}.txt"), "a")

    def _hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if key in _seen:
            return
        _seen.add(key)
        if code.co_filename.startswith(_src):
            _file.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
            _file.flush()

    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


def entry_points() -> list[list[str]]:
    """The non-test entry points: examples, analysis commands, the crash
    smoke test, the benchmark's selfcheck and a traced run per workload (one
    untraced and one traced pass, whatever ``--seconds`` says)."""
    python = sys.executable
    commands = [[python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    for command in ("lint src/repro", "verify-plans", "lint-metrics"):
        commands.append([python, "-m", "repro.analysis", *command.split()])
    commands.append([python, str(ROOT / "benchmarks" / "recovery_smoke.py")])
    run = str(ROOT / "benchmarks" / "e2e" / "run.py")
    commands.append([python, run, "--selfcheck"])
    for workload in ("explore_small", "explore_scan", "search_assist", "durable_mixed"):
        commands.append(
            [python, run, "--workload", workload, "--seed", "42",
             "--seconds", "1", "--trace", "1"]
        )
    return commands


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line of its code object) -> dotted name`` of every
    ``def`` in ``src/repro``.  A decorated function's code object starts at
    its first decorator."""
    functions: dict[tuple[str, int], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC.parent)).removesuffix(".py").replace(os.sep, ".")

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(str(path), first)] = f"{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), f"{module}:")
    return functions


def main() -> int:
    entered: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        Path(site, "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = dict(os.environ, REACH_OUT=out, REACH_SRC=str(SRC))
        env["PYTHONPATH"] = os.pathsep.join(
            [site, str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        for command in entry_points():
            shown = " ".join(
                os.path.relpath(part, ROOT) if os.path.isabs(part) else part
                for part in command[1:]
            )
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"{status:>7}  {shown}", file=sys.stderr)
            if done.returncode:
                print(done.stderr, file=sys.stderr)
        for record in Path(out).glob("*.txt"):
            for line in record.read_text().splitlines():
                filename, first = line.rsplit("\t", 1)
                entered.add((filename, int(first)))
    functions = defined_functions()
    missed = sorted(
        (name, f"{Path(path).relative_to(ROOT)}:{first}")
        for (path, first), name in functions.items()
        if (path, first) not in entered
    )
    for name, where in missed:
        print(f"{name}  ({where})")
    print(f"{len(missed)} of {len(functions)} src/repro functions entered by no entry point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
