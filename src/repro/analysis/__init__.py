"""Static-analysis subsystem: the engine's standing correctness gate.

Three cooperating passes share one :class:`Diagnostic`/:class:`Rule`/
:class:`Severity` framework (:mod:`repro.analysis.framework`):

* :mod:`repro.analysis.sql_lint` — schema-aware semantic linting of SQL
  statements (what ``QueryStore.lint_log`` runs over the whole query log);
* :mod:`repro.analysis.plan_verify` — structural invariants over every
  physical plan the planner emits (wired into the executor behind
  ``ExecutionSettings.verify_plans``; exercised corpus-wide in CI by
  :mod:`repro.analysis.corpus`);
* :mod:`repro.analysis.hazard_lint` — ``ast``-walking rules over
  ``src/repro`` itself (WAL pairing, locks across yields, broad excepts,
  wall-clock calls, page pins).

``python -m repro.analysis`` is the CLI (``lint`` / ``verify-plans`` /
``lint-sql``); see :mod:`repro.analysis.__main__`.
"""

from repro.analysis.framework import Diagnostic, DiagnosticReport, Rule, Severity

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Rule",
    "Severity",
]
