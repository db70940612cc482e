"""Engine hazard lint: ``ast``-walking rules over the engine's own source.

The engine maintains several invariants that no type checker sees and that
the ROADMAP's next items (MVCC, replication) would turn from latent bugs
into data corruption.  This pass walks :mod:`ast` trees of ``src/repro``
and enforces them:

* ``wal-pairing`` — in any class that owns a ``wal_emit`` hook (the
  ``Table`` heap), a method that writes a heap row (calls ``_store_slot``,
  ``_store_slots`` or ``_discard_slot``, the slotted-page primitives) must
  reference ``self.wal_emit`` inside a ``try`` whose ``except BaseException``
  handler rolls back and re-raises; otherwise live state can diverge from
  what recovery replays.  Recovery-path methods (``restore_*``) replay the
  log itself and are exempt by convention; a primitive written over another
  primitive is plumbing, and its callers are the ones checked.
* ``lock-across-yield`` — a ``with <lock>:`` block whose body yields
  suspends the generator while the lock is held; the consumer decides when
  (and whether) it is released.
* ``broad-except`` — ``except Exception``/bare ``except`` in ``storage/``
  masks the concrete error taxonomy (:class:`~repro.errors.StorageError`
  and friends) the callers dispatch on: ERROR there, WARNING elsewhere when
  the handler swallows (no ``raise`` in its body).  ``except BaseException``
  is only legitimate as the rollback idiom — body must re-raise.
* ``wall-clock`` — calls to ``time.time``/``time.monotonic`` or
  ``datetime`` *now* variants outside the sanctioned time-source modules
  (``clock.py``, which owns the injectable
  :class:`~repro.clock.SimulatedClock`, and ``obs/metrics.py``, which owns
  the :data:`~repro.obs.metrics.engine_timer` duration helper every
  instrumented site shares) make replays nondeterministic.
  ``time.perf_counter`` (duration instrumentation) is allowed, as is
  *referencing* ``time.monotonic`` uncalled (passing it as a clock).
* ``page-pin-protocol`` — pages obtained from a buffer pool
  (:class:`~repro.storage.buffer_pool.PageStore`) must follow the pin
  protocol: a page from ``fetch()`` may be mutated but the function must
  call ``mark_dirty`` (or the write is lost on eviction) and ``unpin``
  (or the page is pinned forever and the pool can no longer evict); a page
  from the pinless ``read()`` path must never be mutated at all.
* ``gc-tuning`` — calls to ``gc.disable``, ``gc.freeze`` or
  ``gc.set_threshold`` change when the cyclic collector runs for the whole
  process: the engine's collection time must fall because it allocates
  fewer containers, not because the collector is switched off or deferred.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.analysis.framework import Diagnostic, DiagnosticReport, Rule, Severity

WAL_PAIRING = Rule(
    "wal-pairing", Severity.ERROR, "heap mutation without a paired wal_emit/rollback"
)
LOCK_ACROSS_YIELD = Rule(
    "lock-across-yield", Severity.ERROR, "lock held across a generator yield"
)
BROAD_EXCEPT = Rule(
    "broad-except", Severity.ERROR, "broad exception handler masks concrete errors"
)
WALL_CLOCK = Rule(
    "wall-clock", Severity.ERROR, "wall-clock call outside clock.py"
)
PAGE_PIN_PROTOCOL = Rule(
    "page-pin-protocol",
    Severity.ERROR,
    "page mutation bypassing the buffer pool's pin/dirty protocol",
)

GC_TUNING = Rule(
    "gc-tuning", Severity.ERROR, "garbage-collector tuning in engine source"
)

RULES: tuple[Rule, ...] = (
    WAL_PAIRING,
    LOCK_ACROSS_YIELD,
    BROAD_EXCEPT,
    WALL_CLOCK,
    PAGE_PIN_PROTOCOL,
    GC_TUNING,
)

#: Wall-clock callables that bypass the injectable clock entirely.
_FORBIDDEN_CLOCK_CALLS = {"time", "localtime", "gmtime", "now", "utcnow", "today"}
#: Tolerated with a warning: monotonic durations are deterministic enough for
#: fallbacks, but SimulatedClock injection is still the expected path.
_WARNED_CLOCK_CALLS = {"monotonic"}


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file under analysis."""

    path: Path
    rel: str  # repo-relative posix path used in diagnostics
    tree: ast.Module

    @property
    def in_storage(self) -> bool:
        return "storage" in Path(self.rel).parts

    @property
    def is_clock_module(self) -> bool:
        """True for the sanctioned time-source modules the rule exempts:
        ``clock.py`` (the injectable SimulatedClock) and ``obs/metrics.py``
        (the ``engine_timer`` duration helper)."""
        path = Path(self.rel)
        if path.name == "clock.py":
            return True
        return path.name == "metrics.py" and "obs" in path.parts

    def where(self, node: ast.AST) -> str:
        return f"{self.rel}:{getattr(node, 'lineno', 0)}"


def iter_source_files(paths: list[str | Path]) -> Iterator[SourceFile]:
    """Yield parsed python files under ``paths`` (files or directories)."""
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
            base = root.parent
        else:
            files = [root]
            base = root.parent
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError):
                continue  # unreadable or non-parseable: not this pass's problem
            try:
                rel = path.relative_to(base).as_posix()
            except ValueError:
                rel = path.as_posix()
            yield SourceFile(path=path, rel=rel, tree=tree)


def lint_paths(paths: list[str | Path]) -> DiagnosticReport:
    """Run every hazard rule over the python files under ``paths``."""
    report = DiagnosticReport()
    for source in iter_source_files(paths):
        report.extend(lint_source(source))
    return report


def lint_source(source: SourceFile) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    _check_wal_pairing(source, diagnostics)
    _check_lock_across_yield(source, diagnostics)
    _check_broad_except(source, diagnostics)
    _check_wall_clock(source, diagnostics)
    _check_page_pin_protocol(source, diagnostics)
    _check_gc_tuning(source, diagnostics)
    return diagnostics


# -- wal-pairing ----------------------------------------------------------------


def _attribute_chain(node: ast.AST) -> str:
    """Dotted name of an attribute/name chain ("self._lock.acquire"), "" otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


#: The slotted-page primitives every heap row write goes through (one row,
#: a run of rows page by page, one removal).
_HEAP_PRIMITIVES = ("self._store_slot", "self._store_slots", "self._discard_slot")


def _mutates_heap(func: ast.FunctionDef) -> ast.AST | None:
    """First call of a slotted-page primitive (a heap row write), or None."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _attribute_chain(node.func) in _HEAP_PRIMITIVES:
            return node
    return None


def _has_guarded_wal_emit(func: ast.FunctionDef) -> bool:
    """True when ``self.wal_emit`` is called inside a try whose
    ``except BaseException`` handler re-raises (the rollback idiom)."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Try):
            continue
        calls_wal = any(
            isinstance(inner, ast.Call)
            and _attribute_chain(inner.func) == "self.wal_emit"
            for body_stmt in node.body
            for inner in ast.walk(body_stmt)
        )
        if not calls_wal:
            continue
        for handler in node.handlers:
            if (
                isinstance(handler.type, ast.Name)
                and handler.type.id == "BaseException"
                and any(isinstance(s, ast.Raise) for s in ast.walk(ast.Module(body=handler.body, type_ignores=[])))
            ):
                return True
    return False


def _check_wal_pairing(source: SourceFile, diagnostics: list[Diagnostic]) -> None:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        owns_wal = any(
            isinstance(inner, ast.Attribute)
            and inner.attr == "wal_emit"
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
            for inner in ast.walk(node)
        )
        if not owns_wal:
            continue
        for func in node.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name.startswith("restore"):
                continue  # recovery path: replays the log, never re-logs
            if f"self.{func.name}" in _HEAP_PRIMITIVES:
                continue  # a primitive built on another: its callers are checked
            mutation = _mutates_heap(func)
            if mutation is None:
                continue
            refs_wal = any(
                isinstance(inner, ast.Attribute)
                and inner.attr == "wal_emit"
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
                for inner in ast.walk(func)
            )
            if not refs_wal:
                diagnostics.append(
                    WAL_PAIRING.at(
                        source.where(mutation),
                        f"{node.name}.{func.name} mutates the heap without "
                        f"emitting a WAL record",
                    )
                )
            elif not _has_guarded_wal_emit(func):
                diagnostics.append(
                    WAL_PAIRING.at(
                        source.where(mutation),
                        f"{node.name}.{func.name} calls wal_emit without the "
                        f"rollback idiom (try / except BaseException: undo; raise)",
                    )
                )


# -- lock-across-yield ----------------------------------------------------------


def _looks_like_lock(expr: ast.AST) -> bool:
    chain = _attribute_chain(expr)
    leaf = chain.rsplit(".", 1)[-1] if chain else ""
    return "lock" in leaf.lower() or "mutex" in leaf.lower()


def _yields_directly(nodes: list[ast.stmt]) -> ast.AST | None:
    """First yield in ``nodes`` that is not inside a nested function/lambda."""

    class Finder(ast.NodeVisitor):
        found: ast.AST | None = None

        def visit_FunctionDef(self, node):  # do not descend
            pass

        visit_AsyncFunctionDef = visit_FunctionDef
        visit_Lambda = visit_FunctionDef

        def visit_Yield(self, node):
            if self.found is None:
                self.found = node

        visit_YieldFrom = visit_Yield

    finder = Finder()
    for stmt in nodes:
        finder.visit(stmt)
    return finder.found


def _check_lock_across_yield(source: SourceFile, diagnostics: list[Diagnostic]) -> None:
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if not any(_looks_like_lock(item.context_expr) for item in node.items):
            continue
        yielding = _yields_directly(node.body)
        if yielding is not None:
            diagnostics.append(
                LOCK_ACROSS_YIELD.at(
                    source.where(yielding),
                    "generator yields while holding a lock: the consumer "
                    "controls when (or whether) it is released",
                )
            )


# -- broad-except ----------------------------------------------------------------


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        for stmt in handler.body
        for node in ast.walk(stmt)
    )


def _check_broad_except(source: SourceFile, diagnostics: list[Diagnostic]) -> None:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        name = node.type.id if isinstance(node.type, ast.Name) else None
        if node.type is not None and name not in ("Exception", "BaseException"):
            continue
        if name == "BaseException":
            if not _handler_reraises(node):
                diagnostics.append(
                    BROAD_EXCEPT.at(
                        source.where(node),
                        "except BaseException that does not re-raise: only the "
                        "rollback idiom may catch it",
                    )
                )
            continue
        caught = "bare except" if node.type is None else "except Exception"
        if source.in_storage:
            diagnostics.append(
                BROAD_EXCEPT.at(
                    source.where(node),
                    f"{caught} in storage/: catch the concrete StorageError "
                    f"subtypes (plus the specific stdlib errors) instead",
                )
            )
        elif not _handler_reraises(node):
            diagnostics.append(
                BROAD_EXCEPT.at(
                    source.where(node),
                    f"{caught} swallows errors silently",
                    severity=Severity.WARNING,
                )
            )


# -- wall-clock ------------------------------------------------------------------


def _clock_call_name(call: ast.Call, imported: dict[str, str]) -> str | None:
    """The forbidden clock function a call invokes, or None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        base = _attribute_chain(func.value)
        if base in ("time", "datetime", "datetime.datetime", "date", "datetime.date"):
            return func.attr
        return None
    if isinstance(func, ast.Name):
        return imported.get(func.id)
    return None


def _check_wall_clock(source: SourceFile, diagnostics: list[Diagnostic]) -> None:
    if source.is_clock_module:
        return
    imported: dict[str, str] = {}  # local name -> original function name
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("time", "datetime"):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _clock_call_name(node, imported)
        if name is None:
            continue
        if name in _FORBIDDEN_CLOCK_CALLS:
            diagnostics.append(
                WALL_CLOCK.at(
                    source.where(node),
                    f"wall-clock call {name}() outside the sanctioned time "
                    f"modules (clock.py, obs/metrics.py): inject the engine "
                    f"clock (SimulatedClock in tests) or use engine_timer",
                )
            )
        elif name in _WARNED_CLOCK_CALLS:
            diagnostics.append(
                WALL_CLOCK.at(
                    source.where(node),
                    f"{name}() bypasses the injectable clock; acceptable only "
                    f"as a fallback",
                    severity=Severity.WARNING,
                )
            )


# -- page-pin-protocol ------------------------------------------------------------

#: Mutating dict/list methods; calling one on a tracked page object counts as
#: an in-place page mutation (the same set the heap code uses).
_PAGE_MUTATORS = {
    "pop",
    "clear",
    "update",
    "setdefault",
    "insert",
    "append",
    "extend",
    "remove",
    "popitem",
}


def _is_page_store_call(node: ast.AST, method: str) -> bool:
    """True for ``<receiver>.<method>(...)`` where the receiver looks like a
    buffer pool ("store" or "pool" in its dotted name)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != method:
        return False
    receiver = _attribute_chain(node.func.value).lower()
    return "store" in receiver or "pool" in receiver


def _page_mutation_name(node: ast.AST) -> str | None:
    """The plain variable name an in-place mutation targets, or None.

    Catches ``page[k] = v`` / ``del page[k]`` / ``page.pop(...)``-style
    mutator calls.  Deliberately shallow — mutations through sub-objects
    (``page["keys"].insert``) escape the heuristic, like the wal-pairing
    rule's, but every protocol violation starts somewhere visible.
    """
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                return target.value.id
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                return target.value.id
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _PAGE_MUTATORS and isinstance(node.func.value, ast.Name):
            return node.func.value.id
    return None


def _check_page_pin_protocol(source: SourceFile, diagnostics: list[Diagnostic]) -> None:
    for func in ast.walk(source.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pinned: set[str] = set()
        readonly: set[str] = set()
        fetches: list[ast.AST] = []
        has_unpin = False
        has_mark_dirty = False
        for node in ast.walk(func):
            if _is_page_store_call(node, "unpin"):
                has_unpin = True
            elif _is_page_store_call(node, "mark_dirty"):
                has_mark_dirty = True
            elif _is_page_store_call(node, "fetch"):
                fetches.append(node)
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                if _is_page_store_call(node.value, "fetch"):
                    pinned.add(node.targets[0].id)
                elif _is_page_store_call(node.value, "read"):
                    readonly.add(node.targets[0].id)
        if not (pinned or readonly or fetches):
            continue
        pinned_mutations: list[ast.AST] = []
        for node in ast.walk(func):
            name = _page_mutation_name(node)
            if name is None:
                continue
            if name in readonly:
                diagnostics.append(
                    PAGE_PIN_PROTOCOL.at(
                        source.where(node),
                        f"{func.name} mutates page {name!r} obtained via the "
                        f"pinless read() path: mutate only pages pinned with "
                        f"fetch()",
                    )
                )
            elif name in pinned:
                pinned_mutations.append(node)
        if fetches and not has_unpin:
            diagnostics.append(
                PAGE_PIN_PROTOCOL.at(
                    source.where(fetches[0]),
                    f"{func.name} pins a page with fetch() but never calls "
                    f"unpin(): the buffer pool can no longer evict it",
                )
            )
        if pinned_mutations and not has_mark_dirty:
            diagnostics.append(
                PAGE_PIN_PROTOCOL.at(
                    source.where(pinned_mutations[0]),
                    f"{func.name} mutates a pinned page without mark_dirty(): "
                    f"the write is silently lost when the page is evicted",
                )
            )


# -- gc-tuning ---------------------------------------------------------------------

#: ``gc`` functions that switch the cyclic collector off or defer it.
_GC_TUNING_CALLS = {"disable", "freeze", "set_threshold"}


def _check_gc_tuning(source: SourceFile, diagnostics: list[Diagnostic]) -> None:
    modules = {"gc"}  # names bound to the gc module
    imported: dict[str, str] = {}  # local name -> gc function name
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and _attribute_chain(func.value) in modules:
            name = func.attr
        elif isinstance(func, ast.Name):
            name = imported.get(func.id)
        else:
            continue
        if name in _GC_TUNING_CALLS:
            diagnostics.append(
                GC_TUNING.at(
                    source.where(node),
                    f"gc.{name}() tunes the process-wide collector; cut what the "
                    f"code allocates instead",
                )
            )
