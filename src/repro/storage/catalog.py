"""The system catalog and its schema-change log.

The Query Maintenance component of the CQMS (paper Section 4.4) identifies
queries invalidated by schema evolution "by comparing the timestamp of a query
with that of the last schema modification on any input relation".  The catalog
therefore records every schema change as a :class:`SchemaChange` event with a
monotonically increasing version number and a logical timestamp.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import CatalogError
from repro.storage.schema import TableSchema


@dataclass(frozen=True)
class SchemaChange:
    """One schema-evolution event."""

    version: int
    timestamp: float
    kind: str  # create_table, drop_table, add_column, drop_column, rename_column, rename_table
    table: str
    detail: str = ""


@dataclass
class Catalog:
    """Holds every table schema plus the history of schema changes."""

    _schemas: dict[str, TableSchema] = field(default_factory=dict)
    _changes: list[SchemaChange] = field(default_factory=list)
    _version: int = 0
    #: ``schema_columns()`` of the current version; every change drops it.
    _columns: Mapping[str, frozenset[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- lookup -------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._schemas

    def schema(self, name: str) -> TableSchema:
        try:
            return self._schemas[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_names(self) -> list[str]:
        return [schema.name for schema in self._schemas.values()]

    def schema_columns(self) -> Mapping[str, frozenset[str]]:
        """Mapping of lower-cased table name to lower-cased column names.

        This is the structure the SQL feature extractor uses to resolve
        unqualified column references, and the one user schema the CQMS's
        Assisted mode and Query Maintenance read.  It is built once per
        catalog version and shared read-only: every caller at one version
        gets the same object, and a schema change makes the next call build
        a new one.
        """
        if self._columns is None:
            self._columns = MappingProxyType({
                name: frozenset(column.name.lower() for column in schema.columns)
                for name, schema in self._schemas.items()
            })
        return self._columns

    @property
    def version(self) -> int:
        return self._version

    def changes(self, since_version: int = 0) -> list[SchemaChange]:
        """Schema changes strictly after ``since_version``."""
        return [change for change in self._changes if change.version > since_version]

    def changes_for_table(self, table: str, since_version: int = 0) -> list[SchemaChange]:
        lowered = table.lower()
        return [
            change
            for change in self.changes(since_version)
            if change.table.lower() == lowered
        ]

    def last_change_timestamp(self, table: str) -> float | None:
        """Timestamp of the most recent schema change affecting ``table``."""
        changes = self.changes_for_table(table)
        if not changes:
            return None
        return changes[-1].timestamp

    # -- mutation -----------------------------------------------------------

    def register(self, schema: TableSchema, timestamp: float = 0.0) -> None:
        if self.has_table(schema.name):
            raise CatalogError(f"table {schema.name!r} already exists")
        self._schemas[schema.name.lower()] = schema
        self._record("create_table", schema.name, timestamp=timestamp)

    def unregister(self, name: str, timestamp: float = 0.0) -> None:
        if not self.has_table(name):
            raise CatalogError(f"unknown table {name!r}")
        del self._schemas[name.lower()]
        self._record("drop_table", name, timestamp=timestamp)

    def replace_schema(
        self, name: str, schema: TableSchema, kind: str, detail: str = "", timestamp: float = 0.0
    ) -> None:
        """Replace the schema of ``name`` (used for ALTER TABLE variants)."""
        if not self.has_table(name):
            raise CatalogError(f"unknown table {name!r}")
        del self._schemas[name.lower()]
        self._schemas[schema.name.lower()] = schema
        self._record(kind, schema.name, detail=detail, timestamp=timestamp)

    def restore(self, schemas: list[TableSchema], changes: list[dict], version: int) -> None:
        """Overwrite the catalog with snapshotted state (crash recovery).

        ``changes`` are the snapshot's JSON renderings of the schema-change
        history — the Query Maintenance component compares query timestamps
        against these, so they must survive restarts alongside the data.
        """
        self._schemas = {schema.name.lower(): schema for schema in schemas}
        self._changes = [
            SchemaChange(
                version=int(change["version"]),
                timestamp=float(change["timestamp"]),
                kind=change["kind"],
                table=change["table"],
                detail=change.get("detail", ""),
            )
            for change in changes
        ]
        self._version = version
        self._columns = None

    def _record(self, kind: str, table: str, detail: str = "", timestamp: float = 0.0) -> None:
        self._version += 1
        self._columns = None
        self._changes.append(
            SchemaChange(
                version=self._version,
                timestamp=timestamp,
                kind=kind,
                table=table,
                detail=detail,
            )
        )
