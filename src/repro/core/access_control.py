"""Users, groups, and query visibility rules.

The paper requires that "clear access control rules must be set to restrict
knowledge transfer to only group members collaborating with each other"
(Section 1) and lists per-query sharing rules among the User Administrative
Interaction features (Section 2.4).
"""

from __future__ import annotations

import enum
from collections.abc import Set
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.records import LoggedQuery
from repro.errors import AccessControlError
from repro.obs.admission import QueryLimits

if TYPE_CHECKING:
    from repro.core.query_store import QueryStore


class Visibility(enum.Enum):
    """Who may see a logged query besides its author."""

    PRIVATE = "private"
    GROUP = "group"
    PUBLIC = "public"

    @classmethod
    def parse(cls, value: "Visibility | str") -> "Visibility":
        if isinstance(value, Visibility):
            return value
        try:
            return _VISIBILITIES[value.lower()]
        except KeyError:
            raise AccessControlError(f"unknown visibility {value!r}") from None


#: Every visibility by its value: a dict probe, where ``Visibility(value)``
#: goes through the enum machinery on each of the per-record checks.
_VISIBILITIES = {member.value: member for member in Visibility}


@dataclass(frozen=True)
class Principal:
    """An authenticated CQMS user."""

    name: str
    group: str
    is_admin: bool = False


@dataclass
class AccessControl:
    """Registry of principals plus the visibility check used everywhere.

    The CQMS components never return another user's query to a principal
    unless :meth:`can_see` allows it; administrators can see everything (they
    need to, for maintenance).  :meth:`can_see` is the one definition of
    visibility; :meth:`visible_qids` answers it for a whole store at once from
    the postings the store keeps on write.
    """

    default_visibility: Visibility = Visibility.GROUP
    _principals: dict[str, Principal] = field(default_factory=dict)
    _grants: dict[int, set[str]] = field(default_factory=dict)
    #: The inverse of ``_grants``: user -> the qids granted to them.
    _granted: dict[str, set[int]] = field(default_factory=dict)
    _limits: dict[str, QueryLimits] = field(default_factory=dict)
    #: Counts the changes to who may see what: bumped by :meth:`register`,
    #: :meth:`grant`, :meth:`revoke` and :meth:`forget`.
    generation: int = field(default=0, init=False)
    # The visible log per principal, valid for one (store, store generation,
    # access generation); see :meth:`visible_log`.
    _visible_tag: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _visible_logs: dict[Principal, tuple[LoggedQuery, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- principals -------------------------------------------------------------

    def register(self, name: str, group: str, is_admin: bool = False) -> Principal:
        """Register (or re-register) a principal."""
        principal = Principal(name=name, group=group, is_admin=is_admin)
        self._principals[name] = principal
        self.generation += 1
        return principal

    def principal(self, name: str) -> Principal:
        try:
            return self._principals[name]
        except KeyError:
            raise AccessControlError(f"unknown principal {name!r}") from None

    def has_principal(self, name: str) -> bool:
        return name in self._principals

    def principals(self) -> list[Principal]:
        return sorted(self._principals.values(), key=lambda principal: principal.name)

    # -- per-principal resource limits ----------------------------------------------

    def set_limits(self, name: str, limits: QueryLimits | None) -> None:
        """Attach admission-control limits to a principal (None clears them).

        Limits compose with the config-wide defaults through
        :meth:`~repro.obs.admission.QueryLimits.merged_over`: unset fields
        inherit, set fields override per principal.
        """
        self.principal(name)  # raises for unknown principals
        if limits is None:
            self._limits.pop(name, None)
        else:
            self._limits[name] = limits

    def limits_for(self, name: str) -> QueryLimits | None:
        """The per-principal limits override, or None when unconfigured."""
        return self._limits.get(name)

    # -- per-query grants -----------------------------------------------------------

    def grant(self, qid: int, user: str) -> None:
        """Explicitly grant ``user`` access to query ``qid`` (beyond visibility)."""
        self._grants.setdefault(qid, set()).add(user)
        self._granted.setdefault(user, set()).add(qid)
        self.generation += 1

    def revoke(self, qid: int, user: str) -> None:
        self._grants.get(qid, set()).discard(user)
        self._granted.get(user, set()).discard(qid)
        self.generation += 1

    def forget(self, qid: int) -> None:
        """Drop the grants of a removed query."""
        for user in self._grants.pop(qid, ()):
            self._granted[user].discard(qid)
        self.generation += 1

    def grants_for(self, qid: int) -> set[str]:
        return set(self._grants.get(qid, set()))

    # -- checks --------------------------------------------------------------------------

    def can_see(self, principal: Principal | str, record: LoggedQuery) -> bool:
        """Whether ``principal`` may see ``record`` under the visibility rules."""
        if isinstance(principal, str):
            principal = self.principal(principal)
        if principal.is_admin:
            return True
        if record.user == principal.name:
            return True
        if principal.name in self._grants.get(record.qid, ()):
            return True
        visibility = Visibility.parse(record.visibility)
        if visibility is Visibility.PUBLIC:
            return True
        if visibility is Visibility.GROUP:
            return record.group == principal.group
        return False

    def visible_qids(self, principal: Principal | str, store: QueryStore) -> Set[int]:
        """The qids of ``store`` the principal may see: what :meth:`can_see`
        allows, read off the store's visibility postings
        (:meth:`QueryStore.visibility_postings`) instead of tested per record.

        Every qid for an administrator; for anyone else the union of the
        qids they own, the public ones, the group-visible ones of their group
        and those granted to them.  A fresh set per call (the administrator's
        is a live view of the store), so read it before the next write.
        """
        if isinstance(principal, str):
            principal = self.principal(principal)
        if principal.is_admin:
            return store.qids()
        authored, public, group = store.visibility_postings(principal.name, principal.group)
        granted = [qid for qid in self._granted.get(principal.name, ()) if qid in store]
        return authored.union(public, group, granted)

    def visible_log(
        self, principal: Principal | str, store: QueryStore
    ) -> tuple[LoggedQuery, ...]:
        """Every query of ``store`` the principal may see, in qid order.

        Built from :meth:`visible_qids` once per principal and kept until the
        store's or this registry's ``generation`` moves, so a search does not
        re-sort the log per call.  One entry per principal that has searched;
        a tuple, because every caller gets the same object.
        """
        if isinstance(principal, str):
            principal = self.principal(principal)
        tag = (store, store.generation, self.generation)
        if tag != self._visible_tag:
            self._visible_logs.clear()
            self._visible_tag = tag
        records = self._visible_logs.get(principal)
        if records is None:
            records = self._visible_logs[principal] = tuple(
                map(store.get, sorted(self.visible_qids(principal, store)))
            )
        return records

    def require_owner_or_admin(self, principal: Principal | str, record: LoggedQuery) -> None:
        """Raise unless the principal owns the record or is an administrator."""
        if isinstance(principal, str):
            principal = self.principal(principal)
        if principal.is_admin or record.user == principal.name:
            return
        raise AccessControlError(
            f"{principal.name!r} may not administer query {record.qid} owned by {record.user!r}"
        )
