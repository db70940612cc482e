"""Execution-engine settings: batch sizing, columnar, and diagnostic knobs.

The batched execution model (see :mod:`repro.storage.operators`) moves rows
through the operator tree in lists of ``batch_size`` binding dicts instead of
one row per ``next()`` call.  These knobs live in their own frozen dataclass
so that

* a :class:`~repro.storage.database.Database` can be tuned per instance
  (the CQMS meta-database and the user DBMS need not agree),
* the planner can read them when costing a scan without importing the
  CQMS-level :class:`~repro.core.config.CQMSConfig` (which sits above the
  storage layer and maps its ``exec_*`` fields onto this class).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.buffer_pool import DEFAULT_BUFFER_POOL_PAGES

#: Rows per batch moved through the operator tree per ``next()`` call.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class ExecutionSettings:
    """Tunable parameters of the batched execution engine.

    ``columnar_kernels=False`` disables the columnar batch representation
    and its kernels (:mod:`repro.storage.colbatch`,
    :mod:`repro.storage.kernels`), keeping scans/filters/aggregation on the
    row-batch path — bit-for-bit today's engine, and the baseline
    ``bench_columnar.py`` measures against.  The columnar path also
    requires ``compile_expressions`` (kernels are compiled predicates).

    ``compile_expressions=False`` disables the compiled predicate/projection
    fast paths, forcing per-row Scope/evaluate dispatch — a diagnostic switch
    (like the planner's ``use_indexes=False``) that lets benchmarks quantify
    the batch engine against the historical row-at-a-time evaluation model.

    ``vectorized_aggregation=False`` keeps grouped queries on the executor's
    historical materialize-then-rewalk aggregation instead of planning a
    ``HashAggregate``/``SortedGroupAggregate`` stage — the baseline the
    aggregation benchmarks measure speedups against.

    ``verify_plans=True`` runs the plan-invariant verifier
    (:mod:`repro.analysis.plan_verify`) over every plan before the executor
    streams it, raising :class:`~repro.errors.ExecutionError` on any
    ERROR-severity finding — a debugging/CI guardrail, off by default.

    ``buffer_pool_pages`` caps how many pages (heap pages + B+ tree nodes)
    a durable database keeps resident; the least recently used spill to the
    page file.  In-memory databases ignore it — with no pager there is
    nowhere to evict to.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    columnar_kernels: bool = True
    compile_expressions: bool = True
    vectorized_aggregation: bool = True
    verify_plans: bool = False
    buffer_pool_pages: int = DEFAULT_BUFFER_POOL_PAGES

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.buffer_pool_pages < 8:
            raise ValueError("buffer_pool_pages must be at least 8")


#: Shared default instance (settings are immutable, so sharing is safe).
DEFAULT_SETTINGS = ExecutionSettings()
