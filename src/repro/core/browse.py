"""Search & Browse interaction support (paper Section 2.2).

The browser presents the query log "in a comprehensible, summarized format":
query sessions instead of individual queries, with edges describing how each
query differs from the previous one (Figure 2), plus ranked log listings.
Rendering to text/ASCII lives in :mod:`repro.client.render`; this module
produces the data structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.access_control import AccessControl, Principal
from repro.core.query_store import QueryStore
from repro.core.ranking import RankingContext, RankingFunction
from repro.core.records import LoggedQuery
from repro.core.sessions import QuerySession


@dataclass
class SessionSummary:
    """A browsable summary of one query session (the Figure 2 content)."""

    session_id: int
    user: str
    start_time: float
    end_time: float
    num_queries: int
    final_query: str
    steps: list[str] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end_time - self.start_time)


class QueryBrowser:
    """Read-only views over the query log, subject to access control."""

    def __init__(
        self,
        store: QueryStore,
        access_control: AccessControl,
        ranking: RankingFunction | None = None,
        clock=None,
    ):
        self._store = store
        self._access = access_control
        self._ranking = ranking or RankingFunction()
        self._clock = clock if clock is not None else (lambda: 0.0)

    # -- raw log ------------------------------------------------------------------

    def my_queries(self, principal: Principal | str, limit: int | None = None) -> list[LoggedQuery]:
        """The principal's own log, most recent first."""
        principal_obj = self._principal(principal)
        records = [
            record
            for record in self._store.all_queries()
            if record.user == principal_obj.name
        ]
        records.sort(key=lambda record: -record.timestamp)
        return records[:limit] if limit is not None else records

    def visible_queries(
        self, principal: Principal | str, limit: int | None = None
    ) -> list[LoggedQuery]:
        """Every query the principal may see, most recent first."""
        records = sorted(
            self._access.visible_log(principal, self._store),
            key=lambda record: -record.timestamp,
        )
        return records[:limit] if limit is not None else records

    def ranked_log(
        self, principal: Principal | str, limit: int = 20
    ) -> list[LoggedQuery]:
        """Visible queries ranked by the composite ranking (no similarity term)."""
        records = [
            record
            for record in self._access.visible_log(principal, self._store)
            if record.is_select
        ]
        context = RankingContext.from_store(self._store, now=float(self._clock()))
        ranked = self._ranking.rank([(record, 0.0) for record in records], context, limit=limit)
        return [item.record for item in ranked]

    # -- sessions -------------------------------------------------------------------

    def sessions_of(
        self, principal: Principal | str, sessions: list[QuerySession], user: str | None = None
    ) -> list[QuerySession]:
        """Sessions visible to the principal (optionally of a specific user).

        A session is visible when *all* of its queries are visible — sessions
        mix consecutive thoughts of one analyst and should not leak partially.
        """
        visible_qids = self._access.visible_qids(principal, self._store)
        visible = []
        for session in sessions:
            if user is not None and session.user != user:
                continue
            logged = [qid for qid in session.qids if qid in self._store]
            if logged and all(qid in visible_qids for qid in logged):
                visible.append(session)
        return visible

    def summarize_session(self, session: QuerySession) -> SessionSummary:
        """Build the browsable summary of one session."""
        records = [self._store.get(qid) for qid in session.qids if qid in self._store]
        final_query = records[-1].describe(max_length=120) if records else ""
        steps: list[str] = []
        if records:
            steps.append(f"start: {records[0].describe(max_length=80)}")
        for edge in session.edges:
            steps.append(f"{edge.edge_type}: {edge.diff_summary}")
        annotations: list[str] = []
        for record in records:
            annotations.extend(record.annotations)
        return SessionSummary(
            session_id=session.session_id,
            user=session.user,
            start_time=session.start_time,
            end_time=session.end_time,
            num_queries=len(session.qids),
            final_query=final_query,
            steps=steps,
            annotations=annotations,
        )

    # -- helpers ---------------------------------------------------------------------

    def _principal(self, principal: Principal | str) -> Principal:
        if isinstance(principal, Principal):
            return principal
        return self._access.principal(principal)
