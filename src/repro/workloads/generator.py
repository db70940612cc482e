"""Multi-user query-log generation with a session behaviour model.

The CQMS features the paper proposes are all defined over properties of real
exploratory query logs:

* queries arrive in *sessions* — bursts of similar queries pursuing one
  information goal, separated by long idle gaps (Figure 2),
* consecutive queries in a session differ by small edits — adding a relation,
  trying different constants, adding predicates (the exact edge labels of
  Figure 2),
* users in the same group share information goals, so the log contains many
  near-duplicate analyses (the premise of recommendation, Section 1),
* table co-occurrence is context dependent — the paper's own example: the most
  popular table overall is ``CityLocations``, but *given* ``WaterSalinity``
  the most popular companion is ``WaterTemp`` (Section 2.3),
* some queries carry user annotations (Section 2.1).

The :class:`QueryLogGenerator` produces a log with exactly these properties,
deterministically for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import WorkloadError


# ---------------------------------------------------------------------------
# Goal templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateSlot:
    """A predicate the analyst experiments with during a session.

    ``tried_values`` are attempted in order (the Figure 2 session tries
    ``temp < 22``, ``< 10`` and settles on ``< 18``); the last value is the
    one the final query keeps.
    """

    column: str                     # e.g. "T.temp"
    op: str                         # e.g. "<"
    tried_values: tuple[object, ...]


@dataclass(frozen=True)
class Goal:
    """An information goal: the full query a session converges to.

    ``tables`` is an ordered tuple of ``(table, alias)``; tables are added to
    the FROM clause in this order during the session.  ``join_conditions``
    list the equi-join predicates needed once both sides are present.
    ``projections`` are the columns of the final SELECT list.
    """

    name: str
    tables: tuple[tuple[str, str], ...]
    join_conditions: tuple[tuple[frozenset[str], str], ...] = ()
    projections: tuple[str, ...] = ()
    predicate_slots: tuple[PredicateSlot, ...] = ()
    extra_predicates: tuple[str, ...] = ()
    group_by: tuple[str, ...] = ()
    aggregate: str | None = None
    order_by: str | None = None
    annotation: str | None = None

    def final_sql(self) -> str:
        """The SQL of the fully developed goal query."""
        state = _SessionState.full(self)
        return state.render()


def _slot(column: str, op: str, *values) -> PredicateSlot:
    return PredicateSlot(column=column, op=op, tried_values=tuple(values))


#: Goal templates per workload domain.  The limnology goals follow the paper's
#: examples closely; sky-survey and web-analytics goals model typical
#: exploratory analyses in those domains.
GOAL_LIBRARY: dict[str, list[Goal]] = {
    "limnology": [
        Goal(
            name="salinity_temp_correlation",
            tables=(("WaterSalinity", "S"), ("WaterTemp", "T")),
            join_conditions=(
                (frozenset({"S", "T"}), "S.loc_x = T.loc_x"),
                (frozenset({"S", "T"}), "S.loc_y = T.loc_y"),
            ),
            projections=("S.salinity", "T.temp", "T.depth"),
            predicate_slots=(_slot("T.temp", "<", 22, 10, 18),),
            annotation="correlate water salinity with water temperature",
        ),
        Goal(
            name="seattle_lakes_panorama",
            tables=(("WaterSalinity", "S"), ("WaterTemp", "T"), ("CityLocations", "L")),
            join_conditions=(
                (frozenset({"S", "T"}), "S.loc_x = T.loc_x"),
                (frozenset({"S", "T"}), "S.loc_y = T.loc_y"),
                (frozenset({"T", "L"}), "L.loc_x = T.loc_x"),
            ),
            projections=("L.city", "T.temp", "S.salinity"),
            predicate_slots=(
                _slot("T.temp", "<", 22, 18),
                _slot("L.state", "=", "'WA'"),
            ),
            annotation="find temp and salinity of seattle lakes",
        ),
        Goal(
            name="city_population_ranking",
            tables=(("CityLocations", "C"),),
            projections=("C.city", "C.state", "C.population"),
            predicate_slots=(_slot("C.population", ">", 10000, 50000, 100000),),
            order_by="C.population DESC",
        ),
        Goal(
            name="cities_by_state",
            tables=(("CityLocations", "C"),),
            projections=("C.state", "C.city"),
            predicate_slots=(_slot("C.state", "=", "'MI'", "'WA'"),),
        ),
        Goal(
            name="warm_lakes",
            tables=(("Lakes", "K"), ("WaterTemp", "T")),
            join_conditions=((frozenset({"K", "T"}), "K.lake_id = T.lake_id"),),
            projections=("K.name", "T.temp"),
            predicate_slots=(_slot("T.temp", "<", 22, 20, 18),),
            annotation="which lakes stay cool in summer",
        ),
        Goal(
            name="lake_depth_survey",
            tables=(("Lakes", "K"),),
            projections=("K.name", "K.max_depth_m", "K.area_km2"),
            predicate_slots=(_slot("K.max_depth_m", ">", 50, 100),),
        ),
        Goal(
            name="monthly_temperature_profile",
            tables=(("WaterTemp", "T"),),
            projections=("T.month",),
            predicate_slots=(_slot("T.depth", "<", 20, 10),),
            group_by=("T.month",),
            aggregate="AVG(T.temp)",
            order_by="T.month",
            annotation="seasonal temperature profile",
        ),
        Goal(
            name="salinity_depth_profile",
            tables=(("WaterSalinity", "S"),),
            projections=("S.depth", "S.salinity"),
            predicate_slots=(_slot("S.salinity", ">", 0.1, 0.3),),
            order_by="S.depth",
        ),
        Goal(
            name="sensor_health_check",
            tables=(("Sensors", "N"), ("SensorReadings", "R")),
            join_conditions=((frozenset({"N", "R"}), "N.sensor_id = R.sensor_id"),),
            projections=("N.sensor_type",),
            predicate_slots=(_slot("N.installed_year", "<", 2005, 2002),),
            group_by=("N.sensor_type",),
            aggregate="COUNT(*)",
        ),
        Goal(
            name="city_nearest_water",
            tables=(("CityLocations", "C"), ("WaterTemp", "T")),
            join_conditions=((frozenset({"C", "T"}), "C.loc_x = T.loc_x"),),
            projections=("C.city", "T.temp"),
            predicate_slots=(_slot("C.population", ">", 100000, 200000),),
        ),
    ],
    "sky_survey": [
        Goal(
            name="bright_galaxies",
            tables=(("PhotoObj", "P"),),
            projections=("P.objid", "P.ra", "P.dec", "P.mag_r"),
            predicate_slots=(
                _slot("P.mag_r", "<", 20, 18, 17),
                _slot("P.obj_type", "=", "'GALAXY'"),
            ),
            order_by="P.mag_r",
        ),
        Goal(
            name="quasar_redshift_distribution",
            tables=(("PhotoObj", "P"), ("SpecObj", "S")),
            join_conditions=((frozenset({"P", "S"}), "P.objid = S.objid"),),
            projections=("S.redshift",),
            predicate_slots=(
                _slot("S.spec_class", "=", "'QSO'"),
                _slot("S.redshift", ">", 1.0, 2.0),
            ),
            group_by=("P.run_id",),
            aggregate="COUNT(*)",
            annotation="redshift distribution of quasars by run",
        ),
        Goal(
            name="close_pairs",
            tables=(("PhotoObj", "P"), ("Neighbors", "N")),
            join_conditions=((frozenset({"P", "N"}), "P.objid = N.objid"),),
            projections=("P.objid", "N.neighbor_objid", "N.distance_arcsec"),
            predicate_slots=(_slot("N.distance_arcsec", "<", 10, 5, 2),),
            annotation="close object pairs for lensing candidates",
        ),
        Goal(
            name="good_runs",
            tables=(("Runs", "R"),),
            projections=("R.run_id", "R.mjd", "R.field"),
            predicate_slots=(_slot("R.quality", "=", "'GOOD'"),),
        ),
        Goal(
            name="star_colors",
            tables=(("PhotoObj", "P"),),
            projections=("P.objid", "P.mag_g", "P.mag_r"),
            predicate_slots=(
                _slot("P.obj_type", "=", "'STAR'"),
                _slot("P.mag_g", "<", 22, 20),
            ),
        ),
    ],
    "web_analytics": [
        Goal(
            name="engagement_by_country",
            tables=(("PageViews", "V"), ("Users", "U")),
            join_conditions=((frozenset({"V", "U"}), "V.user_id = U.user_id"),),
            projections=("U.country",),
            predicate_slots=(_slot("V.duration_s", ">", 30, 60),),
            group_by=("U.country",),
            aggregate="COUNT(*)",
            annotation="page engagement by country",
        ),
        Goal(
            name="search_effectiveness",
            tables=(("Searches", "S"),),
            projections=("S.terms", "S.clicks"),
            predicate_slots=(_slot("S.clicks", ">", 0, 2),),
            order_by="S.clicks DESC",
        ),
        Goal(
            name="revenue_by_plan",
            tables=(("Orders", "O"), ("Users", "U")),
            join_conditions=((frozenset({"O", "U"}), "O.user_id = U.user_id"),),
            projections=("U.plan",),
            predicate_slots=(_slot("O.amount", ">", 10, 50, 100),),
            group_by=("U.plan",),
            aggregate="SUM(O.amount)",
        ),
        Goal(
            name="heavy_readers",
            tables=(("PageViews", "V"),),
            projections=("V.user_id",),
            predicate_slots=(_slot("V.url", "=", "'/docs'", "'/blog'"),),
            group_by=("V.user_id",),
            aggregate="COUNT(*)",
        ),
    ],
}


# ---------------------------------------------------------------------------
# Workload configuration and output records
# ---------------------------------------------------------------------------


@dataclass
class WorkloadConfig:
    """Parameters of a generated workload."""

    domain: str = "limnology"
    num_users: int = 12
    num_groups: int = 3
    num_sessions: int = 120
    seed: int = 42
    start_time: float = 0.0
    intra_session_gap: tuple[float, float] = (20.0, 120.0)
    inter_session_gap: tuple[float, float] = (1800.0, 14400.0)
    annotation_probability: float = 0.3
    repeat_popular_probability: float = 0.25
    typo_probability: float = 0.0

    def validate(self) -> None:
        if self.domain not in GOAL_LIBRARY:
            raise WorkloadError(
                f"unknown domain {self.domain!r}; choose from {sorted(GOAL_LIBRARY)}"
            )
        if self.num_users < 1 or self.num_sessions < 1:
            raise WorkloadError("num_users and num_sessions must be positive")
        if self.num_groups < 1 or self.num_groups > self.num_users:
            raise WorkloadError("num_groups must be between 1 and num_users")


@dataclass
class WorkloadQuery:
    """One logged query event produced by the generator."""

    user: str
    group: str
    timestamp: float
    sql: str
    goal: str
    session_ordinal: int
    step: int
    is_final: bool
    annotation: str | None = None


# ---------------------------------------------------------------------------
# Session state machine
# ---------------------------------------------------------------------------


@dataclass
class _SessionState:
    """The analyst's evolving draft of the goal query."""

    goal: Goal
    included_aliases: list[str]
    slot_positions: dict[int, int]          # slot index -> index into tried_values
    active_slots: list[int]
    explicit_projection: bool = False
    grouping: bool = False
    ordering: bool = False

    @classmethod
    def initial(cls, goal: Goal, rng: random.Random) -> "_SessionState":
        first_alias = goal.tables[0][1]
        active = [0] if goal.predicate_slots else []
        return cls(
            goal=goal,
            included_aliases=[first_alias],
            slot_positions={0: 0} if goal.predicate_slots else {},
            active_slots=active,
            explicit_projection=False,
            grouping=False,
            ordering=False,
        )

    @classmethod
    def full(cls, goal: Goal) -> "_SessionState":
        return cls(
            goal=goal,
            included_aliases=[alias for _, alias in goal.tables],
            slot_positions={
                index: len(slot.tried_values) - 1
                for index, slot in enumerate(goal.predicate_slots)
            },
            active_slots=list(range(len(goal.predicate_slots))),
            explicit_projection=bool(goal.projections),
            grouping=bool(goal.group_by),
            ordering=bool(goal.order_by),
        )

    # -- evolution steps ----------------------------------------------------

    def possible_steps(self) -> list[str]:
        steps: list[str] = []
        if len(self.included_aliases) < len(self.goal.tables):
            steps.append("add_table")
        for index in self.active_slots:
            slot = self.goal.predicate_slots[index]
            if self.slot_positions[index] < len(slot.tried_values) - 1:
                steps.append("tweak_constant")
                break
        if len(self.active_slots) < len(self.goal.predicate_slots):
            steps.append("add_predicate")
        if self.goal.projections and not self.explicit_projection:
            steps.append("refine_projection")
        if self.goal.group_by and not self.grouping:
            steps.append("add_grouping")
        if self.goal.order_by and not self.ordering:
            steps.append("add_ordering")
        return steps

    def apply(self, step: str, rng: random.Random) -> None:
        if step == "add_table":
            next_alias = self.goal.tables[len(self.included_aliases)][1]
            self.included_aliases.append(next_alias)
        elif step == "tweak_constant":
            candidates = [
                index
                for index in self.active_slots
                if self.slot_positions[index]
                < len(self.goal.predicate_slots[index].tried_values) - 1
            ]
            chosen = rng.choice(candidates)
            self.slot_positions[chosen] += 1
        elif step == "add_predicate":
            next_index = len(self.active_slots)
            self.active_slots.append(next_index)
            self.slot_positions[next_index] = 0
        elif step == "refine_projection":
            self.explicit_projection = True
        elif step == "add_grouping":
            self.grouping = True
            self.explicit_projection = True
        elif step == "add_ordering":
            self.ordering = True
        else:
            raise WorkloadError(f"unknown session step {step!r}")

    @property
    def is_complete(self) -> bool:
        return not self.possible_steps()

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        goal = self.goal
        included = set(self.included_aliases)
        from_parts = [
            f"{table} {alias}" for table, alias in goal.tables if alias in included
        ]
        predicates: list[str] = []
        for left_aliases, condition in goal.join_conditions:
            if left_aliases <= included:
                predicates.append(condition)
        for index in self.active_slots:
            slot = goal.predicate_slots[index]
            alias = slot.column.split(".")[0]
            if alias not in included:
                continue
            value = slot.tried_values[self.slot_positions[index]]
            predicates.append(f"{slot.column} {slot.op} {value}")
        for predicate in goal.extra_predicates:
            alias = predicate.split(".")[0]
            if alias in included:
                predicates.append(predicate)

        if self.grouping and goal.group_by:
            group_columns = [col for col in goal.group_by if col.split(".")[0] in included]
            select_parts = list(group_columns)
            if goal.aggregate:
                select_parts.append(goal.aggregate)
            select_clause = ", ".join(select_parts) if select_parts else "*"
        elif self.explicit_projection and goal.projections:
            visible = [col for col in goal.projections if col.split(".")[0] in included]
            select_clause = ", ".join(visible) if visible else "*"
        else:
            select_clause = "*"

        sql = f"SELECT {select_clause} FROM {', '.join(from_parts)}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        if self.grouping and goal.group_by:
            group_columns = [col for col in goal.group_by if col.split(".")[0] in included]
            if group_columns:
                sql += " GROUP BY " + ", ".join(group_columns)
        if self.ordering and goal.order_by:
            if goal.order_by.split(".")[0].split(" ")[0] in included or "." not in goal.order_by:
                sql += f" ORDER BY {goal.order_by}"
        return sql


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class QueryLogGenerator:
    """Generates a multi-user query log according to a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig | None = None, **overrides):
        if config is None:
            config = WorkloadConfig(**overrides)
        elif overrides:
            raise WorkloadError("pass either a WorkloadConfig or keyword overrides, not both")
        config.validate()
        self.config = config
        self._rng = random.Random(config.seed)

    # -- public API -----------------------------------------------------------

    def generate(self) -> list[WorkloadQuery]:
        """Produce the full log, ordered by timestamp."""
        config = self.config
        goals = GOAL_LIBRARY[config.domain]
        users = [f"user{index:02d}" for index in range(1, config.num_users + 1)]
        groups = {
            user: f"group{(index % config.num_groups) + 1}"
            for index, user in enumerate(users)
        }
        group_goals = self._assign_group_goals(goals, config.num_groups)

        # Each user has an independent timeline; sessions are interleaved by
        # sorting on timestamps at the end.
        user_time = {
            user: config.start_time + self._rng.uniform(0.0, 600.0) for user in users
        }
        session_counter = {user: 0 for user in users}
        log: list[WorkloadQuery] = []
        popular_finals: list[Goal] = []

        for _ in range(config.num_sessions):
            user = self._rng.choice(users)
            group = groups[user]
            goal_pool = group_goals[group]
            if popular_finals and self._rng.random() < config.repeat_popular_probability:
                goal = self._rng.choice(popular_finals)
            else:
                goal = self._weighted_choice(goal_pool)
            session_counter[user] += 1
            session_ordinal = session_counter[user]
            user_time[user] += self._rng.uniform(*config.inter_session_gap)
            events = self._generate_session(
                user=user,
                group=group,
                goal=goal,
                session_ordinal=session_ordinal,
                start_time=user_time[user],
            )
            if events:
                user_time[user] = events[-1].timestamp
            log.extend(events)
            popular_finals.append(goal)

        log.sort(key=lambda event: event.timestamp)
        return log

    def final_queries(self, log: list[WorkloadQuery]) -> list[WorkloadQuery]:
        """The final (fully developed) query of every session in the log."""
        return [event for event in log if event.is_final]

    # -- internals -------------------------------------------------------------

    def _assign_group_goals(
        self, goals: list[Goal], num_groups: int
    ) -> dict[str, list[tuple[Goal, float]]]:
        """Give each group a weighted preference over the goal library.

        Every group can reach every goal, but each group strongly prefers a
        distinct subset — that is what makes group-aware recommendation and
        session clustering meaningful.
        """
        assignments: dict[str, list[tuple[Goal, float]]] = {}
        for group_index in range(num_groups):
            weighted: list[tuple[Goal, float]] = []
            for goal_index, goal in enumerate(goals):
                preferred = goal_index % num_groups == group_index
                weight = 4.0 if preferred else 0.5
                weighted.append((goal, weight))
            assignments[f"group{group_index + 1}"] = weighted
        return assignments

    def _weighted_choice(self, weighted: list[tuple[Goal, float]]) -> Goal:
        total = sum(weight for _, weight in weighted)
        threshold = self._rng.uniform(0.0, total)
        cumulative = 0.0
        for goal, weight in weighted:
            cumulative += weight
            if threshold <= cumulative:
                return goal
        return weighted[-1][0]

    def _generate_session(
        self,
        user: str,
        group: str,
        goal: Goal,
        session_ordinal: int,
        start_time: float,
    ) -> list[WorkloadQuery]:
        config = self.config
        rng = self._rng
        state = _SessionState.initial(goal, rng)
        timestamp = start_time
        events: list[WorkloadQuery] = []
        step = 0
        max_steps = 12

        def emit(is_final: bool) -> None:
            nonlocal step
            annotation = None
            if is_final and goal.annotation and rng.random() < config.annotation_probability:
                annotation = goal.annotation
            events.append(
                WorkloadQuery(
                    user=user,
                    group=group,
                    timestamp=timestamp,
                    sql=state.render(),
                    goal=goal.name,
                    session_ordinal=session_ordinal,
                    step=step,
                    is_final=is_final,
                    annotation=annotation,
                )
            )
            step += 1

        emit(is_final=state.is_complete)
        while not state.is_complete and step < max_steps:
            possible = state.possible_steps()
            # Prefer structural steps early, constants in the middle.
            chosen = rng.choice(possible)
            state.apply(chosen, rng)
            timestamp += rng.uniform(*config.intra_session_gap)
            emit(is_final=state.is_complete)
        if events and not events[-1].is_final:
            # The step cap interrupted the session; its last query still counts
            # as the session's outcome for evaluation purposes.
            events[-1].is_final = True
        return events
