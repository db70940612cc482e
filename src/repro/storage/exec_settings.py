"""Execution-engine settings: batch sizing, plan verification and the
buffer-pool size.

The batched execution model (see :mod:`repro.storage.operators`) moves rows
through the operator tree in lists of ``batch_size`` row tuples instead of
one row per ``next()`` call.  These knobs live in their own frozen dataclass
so that

* a :class:`~repro.storage.database.Database` can be tuned per instance
  (the CQMS meta-database and the user DBMS need not agree),
* the storage layer never imports the CQMS-level
  :class:`~repro.core.config.CQMSConfig` (which sits above it and passes
  only its ``buffer_pool_pages`` down, for the Query Storage).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.buffer_pool import DEFAULT_BUFFER_POOL_PAGES

#: Rows per batch moved through the operator tree per ``next()`` call.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class ExecutionSettings:
    """Tunable parameters of the batched execution engine.

    No option picks an execution path: every plan streams row batches, and
    which conjuncts run as typed kernels rather than through the evaluator
    is decided by their shape.

    ``verify_plans=True`` runs the plan-invariant verifier
    (:mod:`repro.analysis.plan_verify`) over every plan before the executor
    streams it, raising :class:`~repro.errors.ExecutionError` on any
    ERROR-severity finding — a debugging/CI guardrail, off by default.

    ``buffer_pool_pages`` caps how many heap pages a durable database keeps
    resident; the least recently used spill to the page file.  In-memory databases ignore it — with no pager there is
    nowhere to evict to.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    verify_plans: bool = False
    buffer_pool_pages: int = DEFAULT_BUFFER_POOL_PAGES

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.buffer_pool_pages < 8:
            raise ValueError("buffer_pool_pages must be at least 8")


#: Shared default instance (settings are immutable, so sharing is safe).
DEFAULT_SETTINGS = ExecutionSettings()
