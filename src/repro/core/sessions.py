"""Query-session identification and the session graph (Figure 2).

A query session is "a series of (often similar) queries with the same
information goal in mind" (Section 2.2).  The detector segments each user's
query stream into sessions using two signals:

* a *temporal* signal — an idle gap longer than ``gap_seconds`` (15 minutes)
  always closes the session, and
* a *similarity* signal — inside the time window, a query that shares nothing
  with the running session (no common tables) starts a new session, which
  matches how analysts switch goals without pausing.

Each session carries an edge list in the Figure 2 style: consecutive queries
are connected by an edge labelled with their diff summary (``+1 table``,
``~1 const``, ...).  Edge types follow the paper's Section 4.1 taxonomy:
*temporal*, *modification*, and *investigation* relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import LoggedQuery
from repro.mining.similarity import jaccard_similarity
from repro.sql.diff import diff_queries


@dataclass(frozen=True)
class SessionEdge:
    """An edge between two consecutive queries of a session."""

    from_qid: int
    to_qid: int
    edge_type: str          # "modification" | "investigation" | "temporal"
    diff_summary: str
    diff_size: int


@dataclass
class QuerySession:
    """A detected query session."""

    session_id: int
    user: str
    qids: list[int] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float = 0.0
    edges: list[SessionEdge] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.qids)

    @property
    def duration(self) -> float:
        return max(0.0, self.end_time - self.start_time)

    @property
    def final_qid(self) -> int:
        """The last query of the session — its converged form."""
        return self.qids[-1]


class SessionDetector:
    """Segments per-user query streams into sessions and builds their graphs."""

    def __init__(
        self,
        gap_seconds: float = 900.0,
        min_similarity: float = 0.05,
    ):
        self._gap_seconds = gap_seconds
        self._min_similarity = min_similarity

    # -- detection -----------------------------------------------------------

    def detect(self, records: list[LoggedQuery]) -> list[QuerySession]:
        """Detect sessions over a list of logged queries (any user mix).

        Records are grouped per user, ordered by timestamp, and segmented.
        Session ids are assigned globally in chronological order of session
        start so they are stable and unique across users.
        """
        by_user: dict[str, list[LoggedQuery]] = {}
        for record in records:
            by_user.setdefault(record.user, []).append(record)
        raw_sessions: list[QuerySession] = []
        for user, user_records in by_user.items():
            ordered = sorted(user_records, key=lambda record: (record.timestamp, record.qid))
            raw_sessions.extend(self._detect_for_user(user, ordered))
        raw_sessions.sort(key=lambda session: (session.start_time, session.user))
        for index, session in enumerate(raw_sessions, start=1):
            session.session_id = index
        return raw_sessions

    def _detect_for_user(self, user: str, records: list[LoggedQuery]) -> list[QuerySession]:
        sessions: list[QuerySession] = []
        current: list[LoggedQuery] = []
        for record in records:
            if not current:
                current = [record]
                continue
            previous = current[-1]
            gap = record.timestamp - previous.timestamp
            if gap > self._gap_seconds or not self._related(previous, record):
                sessions.append(self._build_session(user, current))
                current = [record]
            else:
                current.append(record)
        if current:
            sessions.append(self._build_session(user, current))
        return sessions

    def _related(self, previous: LoggedQuery, record: LoggedQuery) -> bool:
        """Whether two temporally adjacent queries pursue the same goal."""
        if previous.features is None or record.features is None:
            return True
        similarity = jaccard_similarity(
            previous.features.table_set(), record.features.table_set()
        )
        return similarity >= self._min_similarity

    def _build_session(self, user: str, records: list[LoggedQuery]) -> QuerySession:
        session = QuerySession(
            session_id=0,
            user=user,
            qids=[record.qid for record in records],
            start_time=records[0].timestamp,
            end_time=records[-1].timestamp,
        )
        for previous, record in zip(records, records[1:]):
            session.edges.append(self._build_edge(previous, record))
        return session

    def _build_edge(self, previous: LoggedQuery, record: LoggedQuery) -> SessionEdge:
        if previous.features is not None and record.features is not None:
            diff = diff_queries(previous.features, record.features)
            summary = diff.summary()
            size = diff.distance()
            edge_type = self._classify_edge(diff)
        else:
            summary = "n/a"
            size = 0
            edge_type = "temporal"
        return SessionEdge(
            from_qid=previous.qid,
            to_qid=record.qid,
            edge_type=edge_type,
            diff_summary=summary,
            diff_size=size,
        )

    def _classify_edge(self, diff) -> str:
        """Map a diff onto the paper's relation taxonomy.

        Pure constant tweaks and predicate additions on the same tables are
        *investigation* edges (drilling into why tuples appear); structural
        changes (tables, joins, projections) are *modification* edges; an
        empty diff (re-execution) is a *temporal* edge.
        """
        if diff.is_empty:
            return "temporal"
        structural = (
            diff.count(kind="table")
            + diff.count(kind="join")
            + diff.count(kind="projection")
            + diff.count(kind="group_by")
            + diff.count(kind="aggregate")
        )
        if structural > 0:
            return "modification"
        return "investigation"


def sessions_as_ground_truth_pairs(sessions: list[QuerySession]) -> set[tuple[int, int]]:
    """All unordered qid pairs that share a session (used by evaluation)."""
    pairs: set[tuple[int, int]] = set()
    for session in sessions:
        for index, first in enumerate(session.qids):
            for second in session.qids[index + 1 :]:
                pairs.add((min(first, second), max(first, second)))
    return pairs


def pairwise_session_metrics(
    detected: list[QuerySession], truth_pairs: set[tuple[int, int]]
) -> dict[str, float]:
    """Pairwise precision/recall/F1 of detected sessions against ground truth."""
    detected_pairs = sessions_as_ground_truth_pairs(detected)
    if not detected_pairs and not truth_pairs:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    true_positives = len(detected_pairs & truth_pairs)
    precision = true_positives / len(detected_pairs) if detected_pairs else 0.0
    recall = true_positives / len(truth_pairs) if truth_pairs else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}
