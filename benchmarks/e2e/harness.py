"""Workloads, passes, result checks and metrics of the end-to-end benchmark.

One client thread drives the engine in a closed loop.  A *pass* builds fresh
engine state, warms it up, then runs a fixed list of operations, timing and
checking each one.  A run makes its inputs once, repeats the pass on them
for as long as it is given, and keeps, operation by operation, the fastest of
the passes: the host only ever adds time, and what it adds moves from pass to
pass, while a stall the engine causes (a checkpoint, a plan-cache miss)
recurs at the same operation and stays.  Passes are short, so that a run
holds many of them and a busy spell of the host covers few.  See README.md
for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    CQMS,
    CQMSConfig,
    DataCondition,
    FeatureCondition,
    QueryLogGenerator,
    SimulatedClock,
    TreePattern,
    WorkloadConfig,
    build_database,
    to_parse_tree,
)
from repro.sql.parse_tree import match_pattern

import spans

WORK_DIR = Path(__file__).resolve().parent / ".work"

SEARCH_KINDS = ("keyword", "substring", "features", "like_partial", "by_data", "parse_tree", "knn")
ASSIST_KINDS = ("recommend", "assist")
AFTER_LOOP = ("mine", "recover")
MIN_PASSES = 3                # set-up time is the median of at least these


@dataclass(frozen=True)
class Spec:
    """Sizes and switches of one workload (README.md says why)."""

    sessions: int                 # generator sessions per pass (≈4.4 statements each)
    scale: int = 1                # user-database scale (1 → 778 rows, 30 → 19.5k)
    fresh_constants: bool = False # re-draw numeric constants so text does not repeat
    durable: bool = False         # Query Storage on disk: WAL, checkpoints, small pool
    meta_every: int = 0           # one read op after every n-th submit
    read_ops: int = 0             # search_assist: read ops in the measured loop
    loops: int = 1                # search_assist: measured loops over one store
    mines: int = 0                # run_miner() calls after the loop (traced run only)

    @property
    def reads_only(self) -> bool:
        return self.read_ops > 0


WORKLOADS: dict[str, Spec] = {
    "explore_small": Spec(sessions=160, fresh_constants=True),
    "explore_scan": Spec(sessions=50, scale=30, fresh_constants=True),
    "search_assist": Spec(sessions=160, read_ops=324, loops=3, mines=3),
    "durable_mixed": Spec(sessions=100, durable=True, meta_every=5),
}

#: Durable Query Storage settings of ``durable_mixed`` (the flush policy is
#: part of the workload: group commit, fsync per batch).
DURABLE_CONFIG = dict(wal_sync="batch", checkpoint_interval=4000, buffer_pool_pages=64)


def scaled(spec: Spec, factor: float) -> Spec:
    """``spec`` with its op counts multiplied by ``factor`` (selfcheck sizes)."""
    return dataclasses.replace(
        spec,
        sessions=max(8, round(spec.sessions * factor)),
        read_ops=max(len(SEARCH_KINDS + ASSIST_KINDS), round(spec.read_ops * factor))
        if spec.read_ops else 0,
        mines=min(spec.mines, 1) if factor < 1 else spec.mines,
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?<=[<>=] )\d+(?:\.\d+)?\b")


def fresh_constants(sql: str, rng: random.Random) -> str:
    """Re-draw every numeric comparison constant within ±20%, keeping its type."""

    def redraw(match: re.Match) -> str:
        text = match.group()
        factor = rng.uniform(0.8, 1.2)
        if "." in text:
            return f"{float(text) * factor:.3f}"
        return str(max(1, round(int(text) * factor)))

    return _NUMBER.sub(redraw, sql)


@dataclass
class Inputs:
    """Everything a pass feeds the engine, made from ``(workload, seed)``."""

    events: list                  # WorkloadQuery events to submit
    warmup: list                  # throw-away events for the warm-up slice
    users: dict[str, str]         # user -> group
    rng_state: tuple              # every pass continues from here into probe choice
    sql_bytes: int
    digest: "hashlib._Hash"       # of the events; a pass adds its probes to a copy


#: Seed of the generated session pool.  Like ``build_database(seed=7)`` it is
#: part of the workload's definition, not of a run: see :func:`generate_log`.
POOL_SEED = 7


def generate_log(sessions: int, rng: random.Random) -> list:
    """A generated query log: the same sessions for every seed, in seeded order.

    The stock generator lets the goal mix drift with its seed (a quarter of
    its sessions repeat an earlier goal) and draws the order of the edits
    inside each session, while a three-way join costs 30× a single-table
    draft; two generator seeds are two different workloads, ±10% apart in
    throughput at these sizes.  So the sessions are fixed: an oversized pool is
    generated from :data:`POOL_SEED` and the first ``sessions / goals``
    sessions of every goal are kept.  The run's seed decides the order in
    which users work through them (sessions are laid end to end on one
    timeline, in shuffled order, with the generator's idle gaps between
    them), and, in :func:`make_inputs`, the constants.
    """
    pool = QueryLogGenerator(WorkloadConfig(num_sessions=sessions * 4, seed=POOL_SEED)).generate()
    by_goal: dict[str, dict[tuple, list]] = defaultdict(dict)
    for event in pool:
        by_goal[event.goal].setdefault((event.user, event.session_ordinal), []).append(event)
    quota = max(1, sessions // len(by_goal))
    kept = [session for found in by_goal.values() for session in list(found.values())[:quota]]
    rng.shuffle(kept)
    log, clock = [], 0.0
    for session in kept:
        clock += rng.uniform(1800.0, 14400.0)
        shift = clock - session[0].timestamp
        log.extend(dataclasses.replace(event, timestamp=event.timestamp + shift) for event in session)
        clock = log[-1].timestamp
    return log


def make_inputs(name: str, spec: Spec, seed: int) -> Inputs:
    rng = random.Random(f"{name}:{seed}")
    log = generate_log(spec.sessions, rng)

    def redrawn(events: list) -> list:
        if not spec.fresh_constants:
            return events
        return [dataclasses.replace(e, sql=fresh_constants(e.sql, rng)) for e in events]

    events = redrawn(log)
    # The warm-up slice is every tenth statement (a first tenth is as light
    # or as heavy as the sessions the seed happens to put first, and set-up
    # time with it); on the fresh-constants workloads its text is its own.
    warmup = redrawn(log[::10])
    digest = hashlib.sha256()
    for event in events:
        digest.update(f"{event.user}|{event.timestamp!r}|{event.sql}\n".encode())
    return Inputs(
        events=events,
        warmup=warmup,
        users={event.user: event.group for event in log},
        rng_state=rng.getstate(),
        sql_bytes=sum(len(event.sql.encode()) for event in events),
        digest=digest,
    )


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def fastest(loops: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    """Identical loops as one: per operation, the fastest of them."""
    return {
        kind: [min(column) for column in zip(*(loop[kind] for loop in loops), strict=True)]
        for kind in loops[0]
    }


@dataclass
class PassResult:
    setup_s: float = 0.0
    latencies: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    store_bytes: int = 0
    sql_bytes: int = 0
    logged: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    recorder: spans.SpanRecorder | None = None

    def primary(self, spec: Spec) -> list[float]:
        if spec.reads_only:
            return self.pooled(SEARCH_KINDS + ASSIST_KINDS)
        return self.latencies["submit"]

    def pooled(self, kinds) -> list[float]:
        return [value for kind in kinds for value in self.latencies.get(kind, ())]

    def loop_seconds(self) -> float:
        """Wall time of the measured loop's calls (``mine``/``recover`` follow it)."""
        return sum(sum(v) for kind, v in self.latencies.items() if kind not in AFTER_LOOP)

    def loop_ops(self) -> int:
        return sum(len(v) for kind, v in self.latencies.items() if kind not in AFTER_LOOP)


class _Runner:
    """Times, checks and counts operations; a failed one never aborts the pass."""

    def __init__(self, result: PassResult, recorder: spans.SpanRecorder | None):
        self.result = result
        self.recorder = recorder

    def op(self, kind: str, call, check=None):
        result, recorder = self.result, self.recorder
        outcome, ok = None, True
        root = recorder.begin_op() if recorder is not None else -1
        start = time.perf_counter()
        try:
            outcome = call()
        except Exception:  # noqa: BLE001 — the op boundary: count it and go on
            ok = False
            self._note(kind, traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.close(root)
        result.latencies[kind].append(elapsed)
        result.attempted += 1
        if ok and check is not None and not check(outcome):
            ok = False
            self._note(kind, "result check failed")
        result.failed += not ok
        return outcome

    def _note(self, kind: str, message: str) -> None:
        if len(self.result.errors) < 5:
            self.result.errors.append(f"[{kind}] {message}")


_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
_turn = 0


def next_cpu() -> None:
    """Move this process to the next of its CPUs, in turn.

    On a shared host one virtual CPU can be slower than the other for minutes
    (a neighbour is busy on the same physical core), and a process left alone
    stays where it was started.  Every measured loop runs on the next CPU, so
    that an operation's fastest time is not the slow CPU's.
    """
    global _turn
    if len(_CPUS) > 1:
        try:
            os.sched_setaffinity(0, {_CPUS[_turn % len(_CPUS)]})
        except OSError:                 # not allowed here: stay where we are
            _CPUS.clear()
        _turn += 1


def _new_cqms(database, users: dict[str, str], **config) -> CQMS:
    cqms = CQMS(database, config=CQMSConfig(**config), clock=SimulatedClock())
    for user, group in users.items():
        cqms.register_user(user, group)
    return cqms


def _submit(runner: _Runner | None, cqms: CQMS, event):
    """Replay one generated event the way ``CQMS.replay_workload`` does."""
    if event.timestamp > cqms.clock.now:
        cqms.clock.set(event.timestamp)
    if runner is None:                      # warm-up / log pre-population
        execution = cqms.submit(event.user, event.sql, timestamp=event.timestamp)
    else:
        grown = len(cqms.store) + (cqms.config.profiling_mode != "off")
        execution = runner.op(
            "submit",
            lambda: cqms.submit(event.user, event.sql, timestamp=event.timestamp),
            lambda done: done.succeeded and len(cqms.store) == grown,
        )
    if event.annotation and execution is not None and execution.record is not None:
        cqms.annotate(event.user, execution.record.qid, event.annotation)
    return execution


def _visible(cqms: CQMS, user: str, records, limit: int) -> bool:
    records = list(records)
    return len(records) <= limit and all(
        cqms.access_control.can_see(user, record) for record in records
    )


def _from_clause(sql: str) -> str:
    tail = sql.split(" FROM ", 1)[1]
    return re.split(r" WHERE | GROUP BY | ORDER BY ", tail)[0]


def _read_op(cqms: CQMS, kind: str, user: str, sql: str, data_values, rng):
    """(call, check, descriptor) of one read-only op on probe ``sql``."""
    from_clause = _from_clause(sql)
    tables = [part.split()[0] for part in from_clause.split(", ")]
    lowered = [table.lower() for table in tables]
    if kind == "keyword":
        words = [tables[0]] + re.findall(r"\.(\w+) [<>=]", sql)[:1]
        return (
            lambda: cqms.search_keyword(user, words),
            lambda hits: all(
                all(w.lower() in (h.text + " " + " ".join(h.annotations)).lower() for w in words)
                for h in hits
            ),
            words,
        )
    if kind == "substring":
        return (
            lambda: cqms.search_substring(user, from_clause),
            lambda hits: all(from_clause.lower() in h.text.lower() for h in hits),
            from_clause,
        )
    if kind == "features":
        condition = FeatureCondition(tables_all=tables, statement_kind="select")
        return (
            lambda: cqms.search_features(user, condition),
            lambda hits: all(condition.matches(h) for h in hits),
            tables,
        )
    if kind == "like_partial":
        return (
            lambda: cqms.search_like_partial(user, sql),
            lambda hits: all(set(lowered) <= h.features.table_set() for h in hits),
            sql,
        )
    if kind == "by_data":
        value = rng.choice(data_values)
        condition = DataCondition(include_values=[value])
        return (
            lambda: cqms.search_by_data(user, condition),
            lambda hits: all(h.output.contains_value(value) for h in hits),
            repr(value),
        )
    if kind == "parse_tree":
        pattern = TreePattern(
            label="select",
            children=tuple(TreePattern(label="table", value=table) for table in lowered),
        )
        return (
            lambda: cqms.search_parse_tree(user, pattern),
            lambda hits: all(match_pattern(to_parse_tree(h.text), pattern) for h in hits[:3]),
            lowered,
        )
    if kind == "knn":
        return (
            lambda: cqms.similar_queries(user, sql, k=10),
            lambda hits: _visible(cqms, user, hits, 10),
            sql,
        )
    if kind == "recommend":
        return (
            lambda: cqms.recommend(user, sql, k=5),
            lambda recs: _visible(cqms, user, (r.record for r in recs), 5),
            sql,
        )
    partial = sql.split(" WHERE ")[0] + " WHERE" if " WHERE " in sql else sql
    return (
        lambda: cqms.assist(user, partial, k=3),
        lambda panel: _visible(cqms, user, (r.record for r in panel.similar_queries), 3),
        partial,
    )


def _engine_counters(cqms: CQMS) -> dict[str, float]:
    """The engine's own public counters, flattened (exact with one client)."""
    caches = cqms.plan_cache_stats()
    user, meta = caches["database"], caches["query_storage"]
    wal = cqms.store.wal_stats()
    pool = cqms.store.buffer_stats()
    return {
        "user.hits": user.hits, "user.misses": user.misses,
        "user.stmt_hits": user.statement_hits, "user.stmt_misses": user.statement_misses,
        "meta.hits": meta.hits, "meta.misses": meta.misses,
        "meta.rows": cqms.store.meta_database.total_rows(),
        "wal.records": wal.records if wal else 0,
        "wal.bytes": wal.bytes_written if wal else 0,
        "wal.syncs": wal.syncs if wal else 0,
        "wal.flushes": wal.flushes if wal else 0,
        "wal.checkpoints": wal.checkpoints if wal else 0,
        "pool.hits": pool.hits, "pool.misses": pool.misses,
        "pool.evictions": pool.evictions, "pool.writebacks": pool.writebacks,
    }


def _tree_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def run_pass(
    name: str,
    spec: Spec,
    inputs: Inputs,
    traced: bool = False,
    mines: int = 0,
    work_dir: Path = WORK_DIR,
    **config,
) -> PassResult:
    """Set up fresh state, warm up, run and check the measured loop.

    The read-only workload runs the loop ``spec.loops`` times over the store
    it has built (one traced loop when ``traced``) and keeps the fastest time
    of each operation.  ``config`` overrides ``CQMSConfig`` fields (the two
    toggled passes use it).
    """
    gc.collect()
    next_cpu()
    setup_start = time.perf_counter()
    rng = random.Random()
    rng.setstate(inputs.rng_state)
    digest = inputs.digest.copy()
    result = PassResult(sql_bytes=inputs.sql_bytes)
    data_dir = work_dir / name
    if spec.durable:
        shutil.rmtree(data_dir, ignore_errors=True)
        config = {**DURABLE_CONFIG, **config}
    # A user DBMS of the pass's own: its statement cache must not know the
    # texts from the pass before.
    database = build_database("limnology", scale=spec.scale, seed=7, clock=SimulatedClock())

    def new_cqms(tag: str) -> CQMS:
        if spec.durable:
            return _new_cqms(database, inputs.users, data_dir=str(data_dir / tag), **config)
        return _new_cqms(database, inputs.users, **config)

    # Warm-up on a throw-away Query Storage; the user DBMS (its plan cache
    # included) is the long-lived one and stays.
    warm = new_cqms("warm")
    for event in inputs.warmup:
        _submit(None, warm, event)
    cqms = new_cqms("store")
    users = sorted(inputs.users)
    read_ops = []
    if spec.reads_only:
        for event in inputs.events:            # pre-populate the log, then mine once
            _submit(None, cqms, event)
        cqms.run_miner()
        data_values = sorted(
            {
                cell
                for record in cqms.store.all_queries()
                if record.output is not None
                for row in record.output.rows[:2]
                for cell in row
                if isinstance(cell, str)
            }
        ) or ["no such value"]
        kinds = SEARCH_KINDS + ASSIST_KINDS
        # Every kind meets the goals and the users in equal shares (a probe's
        # cost follows its goal, a search's the size of its user's group);
        # the seed picks the statement within the goal and the users' order.
        by_goal: dict[str, list] = defaultdict(list)
        for event in inputs.events:
            by_goal[event.goal].append(event)
        goals = sorted(by_goal)
        rng.shuffle(users)
        for number in range(spec.read_ops):
            turn, position = divmod(number, len(kinds))
            kind = kinds[position]
            sql = fresh_constants(rng.choice(by_goal[goals[turn % len(goals)]]).sql, rng)
            user = users[turn % len(users)]
            call, check, descriptor = _read_op(cqms, kind, user, sql, data_values, rng)
            read_ops.append((kind, call, check))
            digest.update(f"{kind}|{user}|{descriptor}\n".encode())
        # The store is long-lived and only read, so the loop is run once
        # unmeasured: every measured loop meets the same, filled caches.
        for _, call, _ in read_ops:
            call()
    elif spec.meta_every:
        for event in inputs.warmup[:: spec.meta_every]:
            for kind in ("like_partial", "recommend"):
                _read_op(warm, kind, event.user, event.sql, None, rng)[0]()
    warm.close()
    result.digest = digest.hexdigest()

    recorder = spans.SpanRecorder() if traced else None
    runner = _Runner(result, recorder)
    patches = spans.Patches(recorder) if traced else None
    before = _engine_counters(cqms)
    rows_scanned = rows_returned = 0
    acknowledged: list[tuple[int, str]] = []
    gc.collect()                               # the loop starts without set-up garbage
    result.setup_s = time.perf_counter() - setup_start
    if patches is not None:
        patches.install()
    try:
        if spec.reads_only:
            loops = []
            for _ in range(1 if traced else spec.loops):
                result.latencies = defaultdict(list)
                next_cpu()
                for kind, call, check in read_ops:
                    runner.op(kind, call, check)
                loops.append(result.latencies)
                gc.collect()
            result.latencies = defaultdict(list, fastest(loops))
            for _ in range(mines):
                runner.op("mine", cqms.run_miner)
        else:
            for number, event in enumerate(inputs.events, start=1):
                execution = _submit(runner, cqms, event)
                if execution is not None and execution.record is not None:
                    acknowledged.append((execution.record.qid, execution.record.text))
                    if execution.result is not None:
                        rows_scanned += execution.result.stats.rows_scanned
                        rows_returned += execution.result.stats.result_cardinality
                if spec.meta_every and number % spec.meta_every == 0:
                    kind = ("like_partial", "recommend")[(number // spec.meta_every) % 2]
                    call, check, _ = _read_op(cqms, kind, event.user, event.sql, None, rng)
                    runner.op(kind, call, check)
        after = _engine_counters(cqms)
        result.logged = len(cqms.store)
        cqms.close()
        if spec.durable:
            result.store_bytes = _tree_bytes(data_dir / "store")
            reopened = runner.op("recover", lambda: new_cqms("store"), lambda c: len(c.store) >= 0)
            _verify_recovery(result, reopened, acknowledged)
    finally:
        if patches is not None:
            patches.remove()
        shutil.rmtree(data_dir, ignore_errors=True)
    result.counters = {key: after[key] - before[key] for key in after}
    result.counters["user.rows_scanned"] = rows_scanned
    result.counters["user.rows_returned"] = rows_returned
    result.recorder = recorder
    return result


def _verify_recovery(result: PassResult, reopened, acknowledged) -> None:
    """Every acknowledged qid is back, with identical text (count + digest)."""
    if reopened is None:                   # the reopen itself failed and was counted
        return
    result.attempted += 1
    try:
        want = hashlib.sha256("\n".join(f"{q}|{t}" for q, t in acknowledged).encode())
        have = hashlib.sha256(
            "\n".join(f"{r.qid}|{r.text}" for r in reopened.store.all_queries()).encode()
        )
        if len(reopened.store) != len(acknowledged) or want.digest() != have.digest():
            result.failed += 1
            result.errors.append(
                f"[recovery] {len(reopened.store)} of {len(acknowledged)} queries, or text differs"
            )
    finally:
        reopened.close()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def merge_passes(results: list[PassResult]) -> PassResult:
    """Identical passes as one: per operation, the fastest of them."""
    merged = PassResult(
        setup_s=statistics.median(r.setup_s for r in results),
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
        errors=[error for r in results for error in r.errors],
        digest=results[0].digest,
    )
    merged.latencies.update(fastest([r.latencies for r in results]))
    return merged


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def pass_end_to_end(spec: Spec, result: PassResult) -> dict[str, float]:
    primary = result.primary(spec)
    return {
        "setup_s": result.setup_s,
        "ops_per_s": ratio(result.loop_ops(), result.loop_seconds()),
        "op_p50_ms": percentile(primary, 50) * 1e3,
        "op_p95_ms": percentile(primary, 95) * 1e3,
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in spans.SPAN_NAMES:
        units[f"{span}.calls_per_op"] = "count"
        units[f"{span}.self_ms_per_op"] = "ms"
    units.update({
        "trace.unattributed_fraction": "ratio",
        "trace.overhead_x": "ratio",
        "storage.plan_cache.hit_ratio.user": "ratio",
        "storage.plan_cache.hit_ratio.meta": "ratio",
        "storage.plan_cache.stmt_hit_ratio.user": "ratio",
        "storage.rows_scanned_per_row_returned.user": "ratio",
        "core.store.rows_per_query": "count",
        "storage.wal.records_per_query": "count",
        "storage.wal.bytes_per_query_byte": "ratio",
        "storage.wal.syncs_per_query": "count",
        "storage.wal.avg_batch_records": "count",
        "storage.buffer_pool.hit_ratio": "ratio",
        "storage.buffer_pool.misses_per_query": "count",
        "storage.buffer_pool.evictions_per_query": "count",
        "storage.buffer_pool.writebacks_per_query": "count",
        "storage.checkpoint.count": "count",
        "storage.checkpoint.total_s": "s",
        "storage.checkpoint.max_ms": "ms",
    })
    for kind in SEARCH_KINDS:
        units[f"core.search.{kind}.p50_ms"] = "ms"
    units.update({
        "core.recommend.p50_ms": "ms",
        "core.assist.p50_ms": "ms",
        "core.profiler.overhead_ms": "ms",
        "obs.telemetry.cost_x": "ratio",
        # What a user of one workload sees beyond the common end-to-end set.
        "search_p50_ms": "ms",
        "search_p95_ms": "ms",
        "assist_p50_ms": "ms",
        "assist_p95_ms": "ms",
        "mine_s": "s",
        "recovery_s": "s",
        "store_bytes_per_query_byte": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def pass_per_layer(spec: Spec, untraced: PassResult, traced: PassResult) -> dict[str, float]:
    """Per-layer metrics of one (untraced, traced) pair of passes on equal inputs."""
    recorder = traced.recorder
    totals = recorder.totals()
    ops = max(1, len(traced.primary(spec)))
    out = dict.fromkeys(PER_LAYER, 0.0)
    for span in spans.SPAN_NAMES:
        entry = totals.get(span)
        if entry:
            out[f"{span}.calls_per_op"] = entry["calls"] / ops
            out[f"{span}.self_ms_per_op"] = entry["self_ns"] / 1e6 / ops
    root = totals[spans.ROOT]
    out["trace.unattributed_fraction"] = ratio(root["self_ns"], root["ns"])
    out["trace.overhead_x"] = ratio(traced.loop_seconds(), untraced.loop_seconds())

    c = traced.counters
    queries = max(1, traced.logged) if not spec.reads_only else 0
    out["storage.plan_cache.hit_ratio.user"] = ratio(c["user.hits"], c["user.hits"] + c["user.misses"])
    out["storage.plan_cache.hit_ratio.meta"] = ratio(c["meta.hits"], c["meta.hits"] + c["meta.misses"])
    out["storage.plan_cache.stmt_hit_ratio.user"] = ratio(
        c["user.stmt_hits"], c["user.stmt_hits"] + c["user.stmt_misses"]
    )
    out["storage.rows_scanned_per_row_returned.user"] = ratio(
        c["user.rows_scanned"], c["user.rows_returned"]
    )
    out["core.store.rows_per_query"] = ratio(c["meta.rows"], queries)
    out["storage.wal.records_per_query"] = ratio(c["wal.records"], queries)
    out["storage.wal.bytes_per_query_byte"] = ratio(c["wal.bytes"], traced.sql_bytes)
    out["storage.wal.syncs_per_query"] = ratio(c["wal.syncs"], queries)
    out["storage.wal.avg_batch_records"] = ratio(c["wal.records"], c["wal.flushes"])
    out["storage.buffer_pool.hit_ratio"] = ratio(c["pool.hits"], c["pool.hits"] + c["pool.misses"])
    for counter in ("misses", "evictions", "writebacks"):
        out[f"storage.buffer_pool.{counter}_per_query"] = ratio(c[f"pool.{counter}"], queries)
    checkpoints = recorder.durations_ms("storage.checkpoint")
    out["storage.checkpoint.count"] = float(c["wal.checkpoints"])
    out["storage.checkpoint.total_s"] = sum(checkpoints) / 1e3
    out["storage.checkpoint.max_ms"] = max(checkpoints, default=0.0)

    for kind in SEARCH_KINDS:
        out[f"core.search.{kind}.p50_ms"] = percentile(untraced.latencies.get(kind, []), 50) * 1e3
    out["core.recommend.p50_ms"] = percentile(untraced.latencies.get("recommend", []), 50) * 1e3
    out["core.assist.p50_ms"] = percentile(untraced.latencies.get("assist", []), 50) * 1e3
    search, assist = untraced.pooled(SEARCH_KINDS), untraced.pooled(ASSIST_KINDS)
    out["search_p50_ms"] = percentile(search, 50) * 1e3
    out["search_p95_ms"] = percentile(search, 95) * 1e3
    out["assist_p50_ms"] = percentile(assist, 50) * 1e3
    out["assist_p95_ms"] = percentile(assist, 95) * 1e3
    out["mine_s"] = percentile(untraced.latencies.get("mine", []), 50)
    out["recovery_s"] = percentile(untraced.latencies.get("recover", []), 50)
    out["store_bytes_per_query_byte"] = ratio(untraced.store_bytes, untraced.sql_bytes)
    return out


def toggled_metrics(name: str, spec: Spec, inputs: Inputs, baseline: PassResult) -> dict[str, float]:
    """Profiler and telemetry cost, from two extra passes with one config field flipped."""
    def mean_ms(result: PassResult) -> float:
        return ratio(result.loop_seconds(), result.loop_ops()) * 1e3

    profiler_off = run_pass(name, spec, inputs, profiling_mode="off")
    telemetry_off = run_pass(name, spec, inputs, telemetry_enabled=False)
    return {
        "core.profiler.overhead_ms": mean_ms(baseline) - mean_ms(profiler_off),
        "obs.telemetry.cost_x": ratio(baseline.loop_seconds(), telemetry_off.loop_seconds()),
    }
