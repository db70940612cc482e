"""In-memory relational storage engine.

This package is the "standard DBMS" of the paper's Figure 4: the CQMS server
sits on top of it, forwards users' SQL to it, and also uses it to store the
Query Storage feature relations.  It provides:

* :mod:`repro.storage.types` — SQL value types and coercion,
* :mod:`repro.storage.schema` — column and table schemas,
* :mod:`repro.storage.catalog` — the system catalog with a schema-change log,
* :mod:`repro.storage.table` — heap tables with secondary indexes,
* :mod:`repro.storage.expression` — the expression compiler,
* :mod:`repro.storage.statistics` — histograms, samples, selectivity estimates,
* :mod:`repro.storage.planner` — the cost-based SELECT planner (access paths,
  join ordering, EXPLAIN),
* :mod:`repro.storage.plan_cache` — the template plan cache with
  version/drift invalidation,
* :mod:`repro.storage.exec_settings` — batch-size / buffer-pool knobs,
* :mod:`repro.storage.operators` — batched Volcano-style physical operators
  (typed predicate kernels, hash group aggregation),
* :mod:`repro.storage.aggregates` — incremental aggregate accumulators
  (update/finish) behind the vectorized aggregation stage,
* :mod:`repro.storage.executor` — the SQL executor (projection, aggregation,
  ordering over the streamed operator pipeline),
* :mod:`repro.storage.wal` — the append-only checksummed write-ahead log,
* :mod:`repro.storage.snapshot` — atomic-rename checkpoint snapshots,
* :mod:`repro.storage.recovery` — crash recovery (snapshot + WAL-tail replay),
* :mod:`repro.storage.database` — the user-facing :class:`Database` facade.
"""

from repro.storage.types import DataType
from repro.storage.exec_settings import ExecutionSettings
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.catalog import Catalog, SchemaChange
from repro.storage.table import Table
from repro.storage.database import Database, QueryResult, ExecutionStats
from repro.storage.plan_cache import PlanCache, PlanCacheStats
from repro.storage.planner import PlanExplanation, Planner, SelectPlan
from repro.storage.recovery import RecoveryReport
from repro.storage.statistics import Histogram, TableStatistics
from repro.storage.wal import WalStats, WalWriter

__all__ = [
    "DataType",
    "ExecutionSettings",
    "ColumnSchema",
    "TableSchema",
    "Catalog",
    "SchemaChange",
    "Table",
    "Database",
    "QueryResult",
    "ExecutionStats",
    "PlanCache",
    "PlanCacheStats",
    "PlanExplanation",
    "Planner",
    "SelectPlan",
    "Histogram",
    "TableStatistics",
    "RecoveryReport",
    "WalStats",
    "WalWriter",
]
