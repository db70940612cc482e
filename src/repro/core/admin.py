"""Administrative interaction (paper Section 2.4).

Two administrative roles exist:

* **User administration** — owners delete their queries, change their
  visibility, and grant/revoke access to specific colleagues.
* **System administration** — administrators tune CQMS parameters (ranking
  weights, feature weights, sample sizes), mark or delete obsolete queries,
  and trigger the background components (miner, maintenance) on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.access_control import AccessControl, Principal, Visibility
from repro.core.config import CQMSConfig
from repro.core.maintenance import MaintenanceReport, QueryMaintenance
from repro.core.miner import MiningReport, QueryMiner
from repro.core.query_store import QueryStore
from repro.errors import AccessControlError

#: The CQMSConfig fields the CQMS reads when a call needs them, so the next
#: call obeys a value set through :meth:`Administrator.set_parameter`.  Every
#: other scalar field is read once, when the CQMS is built.
RUNTIME_PARAMETERS = frozenset(
    {"knn_default_k", "output_sample_base_budget", "drop_invalid_after_flags"}
)
#: Structured fields with a setter of their own.
_DEDICATED_SETTERS = {"feature_weights": "set_feature_weight", "ranking": "set_ranking_weight"}


@dataclass
class StorageOverview:
    """A summary of the Query Storage state for the administrator dashboard."""

    num_queries: int = 0
    num_users: int = 0
    num_invalid: int = 0
    num_annotated: int = 0
    table_popularity: dict[str, int] = field(default_factory=dict)


class Administrator:
    """Administrative operations over the CQMS."""

    def __init__(
        self,
        store: QueryStore,
        access_control: AccessControl,
        config: CQMSConfig,
        miner: QueryMiner,
        maintenance: QueryMaintenance,
    ):
        self._store = store
        self._access = access_control
        self._config = config
        self._miner = miner
        self._maintenance = maintenance

    # -- user administration ------------------------------------------------------

    def delete_query(self, principal: Principal | str, qid: int) -> None:
        """Delete a query (owner or admin only)."""
        record = self._store.get(qid)
        self._access.require_owner_or_admin(principal, record)
        self._store.remove(qid)
        self._access.forget(qid)

    def set_visibility(self, principal: Principal | str, qid: int, visibility: str) -> None:
        """Change a query's visibility (owner or admin only)."""
        record = self._store.get(qid)
        self._access.require_owner_or_admin(principal, record)
        self._store.set_visibility(qid, Visibility.parse(visibility).value)

    def share_query(self, principal: Principal | str, qid: int, with_user: str) -> None:
        """Grant a specific user access to one query (owner or admin only)."""
        record = self._store.get(qid)
        self._access.require_owner_or_admin(principal, record)
        self._access.grant(qid, with_user)

    def unshare_query(self, principal: Principal | str, qid: int, with_user: str) -> None:
        record = self._store.get(qid)
        self._access.require_owner_or_admin(principal, record)
        self._access.revoke(qid, with_user)

    # -- system administration -------------------------------------------------------

    def _require_admin(self, principal: Principal | str) -> Principal:
        if isinstance(principal, str):
            principal = self._access.principal(principal)
        if not principal.is_admin:
            raise AccessControlError(f"{principal.name!r} is not an administrator")
        return principal

    def set_ranking_weight(self, principal: Principal | str, component: str, weight: float) -> None:
        """Adjust one component weight of the composite ranking function."""
        self._require_admin(principal)
        if not hasattr(self._config.ranking, component):
            raise ValueError(f"unknown ranking component {component!r}")
        if weight < 0:
            raise ValueError("ranking weights must be non-negative")
        setattr(self._config.ranking, component, float(weight))

    def set_feature_weight(self, principal: Principal | str, feature_class: str, weight: float) -> None:
        """Adjust (or zero out, i.e. exclude) a feature class in similarity."""
        self._require_admin(principal)
        if weight < 0:
            raise ValueError("feature weights must be non-negative")
        self._config.feature_weights[feature_class] = float(weight)

    def set_parameter(self, principal: Principal | str, name: str, value) -> None:
        """Set one of the :data:`RUNTIME_PARAMETERS` by name.

        Raises ``ValueError`` — leaving the configuration as it was — for any
        other name, a value of another type, or a value ``validate`` rejects.
        """
        self._require_admin(principal)
        if name in _DEDICATED_SETTERS:
            raise ValueError(f"{name!r} is set with {_DEDICATED_SETTERS[name]}()")
        if name not in RUNTIME_PARAMETERS:
            raise ValueError(
                f"{name!r} cannot be set at run time; settable: {sorted(RUNTIME_PARAMETERS)}"
            )
        current = getattr(self._config, name)
        if isinstance(value, bool) or not isinstance(value, type(current)):
            raise ValueError(f"{name!r} takes a {type(current).__name__}, not {value!r}")
        replace(self._config, **{name: value}).validate()
        setattr(self._config, name, value)

    def run_miner(self, principal: Principal | str) -> MiningReport:
        """Run a mining pass immediately (instead of waiting for the period)."""
        self._require_admin(principal)
        return self._miner.run()

    def run_maintenance(self, principal: Principal | str) -> MaintenanceReport:
        """Run a schema-validity maintenance pass immediately."""
        self._require_admin(principal)
        return self._maintenance.check_schema_validity()

    def purge_invalid(self, principal: Principal | str) -> MaintenanceReport:
        """Drop queries that repeatedly failed validity checks."""
        self._require_admin(principal)
        return self._maintenance.drop_obsolete()

    def mark_obsolete(self, principal: Principal | str, qid: int, reason: str = "obsolete") -> None:
        """Manually flag a query as obsolete."""
        self._require_admin(principal)
        self._store.mark_invalid(qid, reason=reason)

    # -- dashboard --------------------------------------------------------------------

    def overview(self, principal: Principal | str) -> StorageOverview:
        """A summary of the Query Storage (admin only)."""
        self._require_admin(principal)
        records = self._store.all_queries()
        return StorageOverview(
            num_queries=len(records),
            num_users=len({record.user for record in records}),
            num_invalid=sum(1 for record in records if record.flagged_invalid),
            num_annotated=sum(1 for record in records if record.annotations),
            table_popularity=self._store.table_popularity(),
        )
