"""Admission control: per-principal token buckets and statement budgets.

The paper's premise is many users sharing one system; a single misbehaving
tenant must shed load at the door rather than collapse everyone's latency.
Two cooperating guardrails:

* :class:`TokenBucket` — classic leaky-bucket rate limiting.  Refill is
  computed lazily from the injected clock at acquisition time, so a
  :class:`~repro.clock.SimulatedClock` drives fully deterministic tests.
* :class:`StatementBudget` — the per-statement timeout the executor
  enforces cooperatively at batch boundaries (see
  ``ExecutionContext.tick`` in :mod:`repro.storage.operators`).

:class:`AdmissionController` merges the per-principal
:class:`QueryLimits` stored in ``AccessControl`` with the config-wide
defaults, raises the typed :class:`~repro.errors.RateLimitedError` on a
dry bucket, and counts every verdict in the metrics registry when there is
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import RateLimitedError
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class QueryLimits:
    """Per-principal admission limits (None = inherit the config default)."""

    rate_limit_qps: float | None = None
    rate_limit_burst: float | None = None
    statement_timeout_seconds: float | None = None

    def merged_over(self, defaults: "QueryLimits") -> "QueryLimits":
        """This principal's limits with config defaults filling the gaps."""
        return QueryLimits(
            rate_limit_qps=(
                self.rate_limit_qps
                if self.rate_limit_qps is not None
                else defaults.rate_limit_qps
            ),
            rate_limit_burst=(
                self.rate_limit_burst
                if self.rate_limit_burst is not None
                else defaults.rate_limit_burst
            ),
            statement_timeout_seconds=(
                self.statement_timeout_seconds
                if self.statement_timeout_seconds is not None
                else defaults.statement_timeout_seconds
            ),
        )


@dataclass(frozen=True)
class StatementBudget:
    """What an admitted statement may spend (attached by the controller)."""

    timeout_seconds: float | None = None


class TokenBucket:
    """A refilling token bucket over an injectable clock.

    ``rate`` tokens arrive per clock second up to ``burst`` capacity; the
    bucket starts full so a fresh principal gets its burst immediately.
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_refilled_at")

    def __init__(self, rate: float, burst: float, clock: Callable[[], float]):
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        if burst < 1:
            raise ValueError("token bucket burst must be at least 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = float(clock())

    def _refill(self) -> None:
        now = float(self._clock())
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens


class AdmissionController:
    """Admit-or-reject gate in front of statement submission.

    One bucket per rate-limited principal, created lazily with that
    principal's effective (merged) limits.  Principals with no effective
    rate limit pass through without a bucket; every statement still gets a
    :class:`StatementBudget` carrying the effective timeout.  The verdict
    never depends on ``registry``: without one (telemetry off) it is simply
    not counted.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None,
        clock: Callable[[], float],
        defaults: QueryLimits | None = None,
    ):
        self.registry = registry
        self._clock = clock
        self.defaults = defaults or QueryLimits()
        self._buckets: dict[str, TokenBucket] = {}

    def _bucket_for(self, principal: str, limits: QueryLimits) -> TokenBucket | None:
        qps = limits.rate_limit_qps
        if qps is None:
            return None
        bucket = self._buckets.get(principal)
        if bucket is None or bucket.rate != qps:
            burst = limits.rate_limit_burst
            if burst is None:
                burst = max(qps, 1.0)
            bucket = TokenBucket(rate=qps, burst=burst, clock=self._clock)
            self._buckets[principal] = bucket
        return bucket

    def admit(
        self, principal: str, limits: QueryLimits | None = None
    ) -> StatementBudget:
        """Admit one statement for ``principal`` or raise ``RateLimitedError``.

        The rejection is typed and *pre-execution*: nothing was parsed, run,
        or logged, so a shedding client can back off and retry untouched.
        """
        effective = (limits or QueryLimits()).merged_over(self.defaults)
        bucket = self._bucket_for(principal, effective)
        if bucket is not None and not bucket.try_acquire():
            self._count(
                "queries_rejected",
                "statements rejected at admission by the rate limiter",
                principal,
            )
            raise RateLimitedError(
                f"principal {principal!r} exceeded its rate limit "
                f"({bucket.rate:g} qps, burst {bucket.burst:g}); retry later"
            )
        self._count(
            "queries_admitted", "statements admitted past the rate limiter", principal
        )
        return StatementBudget(timeout_seconds=effective.statement_timeout_seconds)

    def _count(self, name: str, help_text: str, principal: str) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text, principal=principal).inc()
