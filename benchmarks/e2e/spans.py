"""Span recording from outside the engine.

The benchmark measures layers without touching ``src/``: for the traced pass
it replaces each public callable listed in :func:`_targets` with a timing
wrapper, patching the name *where it is looked up* (a function imported with
``from x import f`` is patched in every ``repro`` module that holds it; a
method is patched on its class), and puts every original back afterwards.

A span is ``(name, start, end, parent, op)``; spans of one benchmark
operation share its ``op`` number and hang under that operation's
``bench.op`` root, which the harness opens around the call it times.  A
span's self time is its duration minus the durations of its direct children,
so the self times of all spans of an operation add up to the root's duration
exactly.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

ROOT = "bench.op"

_now = time.perf_counter_ns


class SpanRecorder:
    """In-memory span store (one per traced pass), columnar for cheap appends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.current = -1          # index of the open span, -1 outside any op
        self.op = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.ops.append(self.op)
        self.ends.append(0)
        self.current = index
        self.starts.append(_now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _now()
        self.current = self.parents[index]

    def begin_op(self) -> int:
        """Open the root span of the next benchmark operation."""
        self.op += 1
        return self.open(ROOT)

    # -- analysis ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``ns`` and ``self_ns``."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0}
        )
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            entry = out[name]
            entry["calls"] += 1
            entry["ns"] += duration
            entry["self_ns"] += duration - child_ns[index]
        return dict(out)

    def durations_ms(self, name: str) -> list[float]:
        return [
            (self.ends[i] - self.starts[i]) / 1e6
            for i, span_name in enumerate(self.names)
            if span_name == name
        ]

    def problems(self) -> list[str]:
        """Span-sanity violations: unclosed spans, children outside parents,
        self times that do not add up to the roots within 1%."""
        found = []
        totals = self.totals()
        root_ns = totals.get(ROOT, {"ns": 0})["ns"]
        self_ns = sum(entry["self_ns"] for entry in totals.values())
        if abs(self_ns - root_ns) > 0.01 * root_ns:
            found.append(f"self times ({self_ns} ns) do not add up to the roots ({root_ns} ns)")
        for index, parent in enumerate(self.parents):
            if self.ends[index] < self.starts[index]:
                found.append(f"span {index} ({self.names[index]}) never closed")
            elif parent >= 0 and not (
                self.starts[parent] <= self.starts[index]
                and self.ends[index] <= self.ends[parent]
            ):
                found.append(f"span {index} ({self.names[index]}) escapes its parent")
        return found

    def dump(self, path) -> None:
        """Write the spans as columns; times are ns since the first span."""
        base = self.starts[0] if self.starts else 0
        table = sorted(set(self.names))
        code = {name: number for number, name in enumerate(table)}
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": table,
                    "name": [code[name] for name in self.names],
                    "start_ns": [value - base for value in self.starts],
                    "end_ns": [value - base for value in self.ends],
                    "parent": self.parents,
                    "op": self.ops,
                },
                handle,
                separators=(",", ":"),
            )


def _wrap(recorder: SpanRecorder, name, fn):
    """``fn`` timed as a span; ``name`` may be a callable of the first argument."""
    fixed = name if isinstance(name, str) else None

    def traced(*args, **kwargs):
        if recorder.current < 0:        # outside a benchmark op: set-up, checks
            return fn(*args, **kwargs)
        index = recorder.open(fixed or name(args[0]))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    traced.bench_original = fn
    return traced


_EXECUTE_SPANS = ("storage.execute.user", "storage.execute.meta")


def _execute_span(database) -> str:
    return _EXECUTE_SPANS[database.name == "query_storage"]


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _targets():
    """(span name, owner, attribute) for every wrapped public callable.

    ``owner`` is a class (method patched on the class) or a module (function
    patched in every loaded ``repro`` module that refers to it).
    """
    def module(name: str):
        # By full name: ``from repro.sql import canonicalize`` would fetch the
        # function the package re-exports, not the module.
        return importlib.import_module(f"repro.{name}")

    completion, correction, cqms = module("core.completion"), module("core.correction"), module("core.cqms")
    meta_query, profiler = module("core.meta_query"), module("core.profiler")
    query_store, ranking = module("core.query_store"), module("core.ranking")
    recommender, admission = module("core.recommender"), module("obs.admission")
    knn, similarity = module("mining.knn"), module("mining.similarity")
    canonicalize, features = module("sql.canonicalize"), module("sql.features")
    parser, tokenizer = module("sql.parser"), module("sql.tokenizer")
    database, executor = module("storage.database"), module("storage.executor")
    plan_cache, planner = module("storage.plan_cache"), module("storage.planner")
    statistics, wal = module("storage.statistics"), module("storage.wal")
    meta = meta_query.MetaQueryExecutor
    return [
        ("sql.tokenize", tokenizer, "tokenize"),
        ("sql.parse", parser, "parse"),
        ("sql.canonical_text", canonicalize, "canonical_text"),
        ("sql.extract_features", features, "extract_features"),
        (_execute_span, database.Database, "execute"),
        *(
            ("storage.plan_cache", plan_cache.PlanCache, method)
            for method in ("lookup_statement", "store_statement", "prepare", "lookup", "store")
        ),
        *(
            ("storage.plan", planner.Planner, method)
            for method in ("plan_select", "plan_update", "plan_delete")
        ),
        ("storage.run_plan", executor.Executor, "execute_plan"),
        ("storage.summarize_output", statistics, "summarize_output"),
        ("storage.insert_rows", database.Database, "insert_rows"),
        ("storage.wal_append", wal.WalWriter, "append"),
        ("storage.wal_flush", wal.WalWriter, "flush"),
        ("storage.checkpoint", database.Database, "checkpoint"),
        ("storage.recover", database.Database, "open"),
        ("core.submit", cqms.CQMS, "submit"),
        ("core.profile", profiler.QueryProfiler, "profile"),
        ("core.store_add", query_store.QueryStore, "add"),
        ("core.search.keyword", meta, "keyword_search"),
        ("core.search.substring", meta, "substring_search"),
        ("core.search.features", meta, "by_feature"),
        ("core.search.like_partial", meta, "find_queries_like_partial"),
        ("core.search.by_data", meta, "by_data"),
        ("core.search.parse_tree", meta, "by_parse_tree"),
        ("core.search.knn", meta, "knn"),
        ("core.recommend", recommender.QueryRecommender, "recommend"),
        ("core.assist", cqms.CQMS, "assist"),
        ("core.complete", completion.CompletionEngine, "suggest"),
        ("core.correct", correction.CorrectionEngine, "correct_names"),
        ("core.rank", ranking.RankingFunction, "rank"),
        ("core.mine", cqms.CQMS, "run_miner"),
        ("mining.knn_nearest", knn.KNNIndex, "nearest"),
        ("mining.similarity", similarity, "weighted_feature_similarity"),
        ("obs.admit", admission.AdmissionController, "admit"),
    ]


def _span_names() -> list[str]:
    names: list[str] = []
    for name, _, _ in _targets():
        for span in (name,) if isinstance(name, str) else _EXECUTE_SPANS:
            if span not in names:
                names.append(span)
    return names


#: Span names the traced pass can produce, in report order.
SPAN_NAMES = _span_names()


class Patches:
    """Installs the timing wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self._recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _repro_modules()
        for name, owner, attribute in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    wrapper = classmethod(_wrap(self._recorder, name, original.__func__))
                else:
                    wrapper = _wrap(self._recorder, name, original)
                self._set(owner, attribute, original, wrapper)
                continue
            function = getattr(owner, attribute)
            wrapper = _wrap(self._recorder, name, function)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is function:
                        self._set(module, key, function, wrapper)

    def _set(self, owner, attribute, original, wrapper) -> None:
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def leftover_wrappers() -> list[str]:
    """Names still bound to a timing wrapper (must be empty after a pass)."""
    left = []
    for _, owner, attribute in _targets():
        if isinstance(owner, type):
            value = owner.__dict__[attribute]
            value = getattr(value, "__func__", value)
            if hasattr(value, "bench_original"):
                left.append(f"{owner.__name__}.{attribute}")
            continue
        for module in _repro_modules():
            if hasattr(vars(module).get(attribute), "bench_original"):
                left.append(f"{module.__name__}.{attribute}")
    return left
