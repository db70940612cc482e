"""Size trajectory: how much code and how many options the repo carries.

    python benchmarks/size.py           # measure the tree, write BENCH_size.json
    python benchmarks/size.py --check   # exit 1 if the committed file is stale

Design weight gets a committed number per PR the way speed does (ROADMAP aim
2).  Everything is read from source text — line counts as ``wc -l`` prints
them, dataclass fields and parameters through ``ast`` — so the script needs
neither ``PYTHONPATH`` nor an importable engine.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
RESULT = ROOT / "benchmarks" / "BENCH_size.json"
ENGINE_FILES = ("operators.py", "executor.py", "planner.py")


def lines(paths) -> int:
    return sum(path.read_bytes().count(b"\n") for path in paths)


def class_node(path: Path, name: str) -> ast.ClassDef:
    tree = ast.parse(path.read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name)


def field_count(path: Path, name: str) -> int:
    """Annotated class-level assignments: the fields of a dataclass."""
    return sum(isinstance(node, ast.AnnAssign) for node in class_node(path, name).body)


def parameter_count(path: Path, class_name: str, method: str) -> int:
    """Parameters of a method, not counting ``self`` / ``cls``."""
    function = next(
        node
        for node in class_node(path, class_name).body
        if isinstance(node, ast.FunctionDef) and node.name == method
    )
    arguments = function.args
    return len(arguments.posonlyargs) + len(arguments.args) + len(arguments.kwonlyargs) - 1


def measure() -> dict[str, int]:
    storage = SRC / "storage"
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return {
        "src_repro_lines": lines(SRC.rglob("*.py")),
        "engine_files_lines": lines(storage / name for name in ENGINE_FILES),
        "benchmarks_outside_e2e_lines": lines((ROOT / "benchmarks").glob("*.py")),
        "execution_settings_fields": field_count(
            storage / "exec_settings.py", "ExecutionSettings"
        ),
        "cqms_config_fields": field_count(SRC / "core" / "config.py", "CQMSConfig"),
        "database_open_parameters": parameter_count(storage / "database.py", "Database", "open"),
        "ci_steps": sum(line.lstrip().startswith("- name:") for line in ci.splitlines()),
    }


def main(argv: list[str]) -> int:
    rendered = json.dumps(measure(), indent=2) + "\n"
    if "--check" not in argv:
        RESULT.write_text(rendered)
        print(rendered, end="")
        return 0
    committed = RESULT.read_text() if RESULT.exists() else ""
    if committed == rendered:
        return 0
    print(f"{RESULT.relative_to(ROOT)} is stale; the tree measures:\n{rendered}", end="")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
