"""Column and table schemas."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter

from repro.errors import SchemaError
from repro.storage.types import STORED_TYPES, DataType, coerce_value, freeze_json


@dataclass(frozen=True)
class ColumnSchema:
    """Schema of one column."""

    name: str
    data_type: DataType
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False

    def coerce(self, value: object) -> object:
        """Coerce a value to this column's type, enforcing NOT NULL."""
        if value is None and (self.not_null or self.primary_key):
            raise SchemaError(f"column {self.name!r} is NOT NULL")
        return coerce_value(value, self.data_type, self.name)


@dataclass
class TableSchema:
    """Schema of one table: an ordered list of columns."""

    name: str
    columns: list[ColumnSchema] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The coercion plan, built once per schema (schemas are replaced, not
        # edited, on ALTER): where each column sits by lower-cased name, and
        # per column its spelling, stored Python type and coercer.
        self._positions: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if self._positions.setdefault(column.name.lower(), position) != position:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
        self._names = [column.name for column in self.columns]
        # (JSON and an unknown data type have no stored type: their values
        # always reach the coercer, which checks a JSON value and raises for
        # an unknown type; a nullable JSON column's coercer is freeze_json
        # itself, which passes NULL through)
        self._stored = [STORED_TYPES.get(column.data_type) for column in self.columns]
        self._coercers = [
            partial(freeze_json, column=column.name)
            if column.data_type is DataType.JSON and not (column.not_null or column.primary_key)
            else column.coerce
            for column in self.columns
        ]

    @property
    def column_names(self) -> list[str]:
        return list(self._names)

    @property
    def primary_key(self) -> ColumnSchema | None:
        for column in self.columns:
            if column.primary_key:
                return column
        return None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._positions

    def position(self, name: str) -> int:
        """Where column ``name`` (any case) sits in a stored row."""
        position = self._positions.get(name.lower())
        if position is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return position

    def column(self, name: str) -> ColumnSchema:
        return self.columns[self.position(name)]

    def as_dict(self, row: tuple) -> dict[str, object]:
        """A stored row keyed by column name, for the callers that need names."""
        return dict(zip(self._names, row))

    def coerce_row(self, row: dict[str, object]) -> tuple:
        """Return a full stored row (all columns, schema order), coerced.

        Unknown keys raise; missing columns become NULL (subject to NOT NULL).
        """
        return self.coerce_rows((row,))[0]

    def coerce_rows(self, rows) -> list[tuple]:
        """:meth:`coerce_row` over a batch of name-keyed dicts.

        Column names are resolved once per run of rows that share their keys
        (one resolution for a batch built by one comprehension); a row whose
        values already have exactly the stored types is taken as it is, and
        only the others pay a per-value coercion.  The first offending row
        raises; nothing is returned for the batch.
        """
        names, stored = self._names, self._stored
        coerced: list[tuple] = []
        keys = values_of = None
        for row in rows:
            if list(row) != keys:
                keys = list(row)
                # None: spelled and ordered like the schema, so the row's own
                # values are the schema-order values.
                values_of = None if keys == names else self._values_getter(row)
            values = tuple(row.values()) if values_of is None else values_of(row)
            coerced.append(values if list(map(type, values)) == stored else self._coerce(values))
        return coerced

    def coerce_values(self, rows) -> list[tuple]:
        """:meth:`coerce_rows` for rows given as value sequences in schema order."""
        stored = self._stored
        return [
            values
            if type(values) is tuple and list(map(type, values)) == stored
            else self._coerce(values)
            for values in rows
        ]

    def _coerce(self, values) -> tuple:
        """Schema-order ``values`` as a stored tuple, each value coerced to
        its column's type."""
        if len(values) != len(self._stored):
            raise SchemaError(
                f"table {self.name!r} has {len(self._stored)} columns, "
                f"a row has {len(values)} values"
            )
        return tuple([
            value if type(value) is kind else coerce(value)
            for value, kind, coerce in zip(values, self._stored, self._coercers)
        ])

    def _values_getter(self, row: dict[str, object]):
        """``row -> values in schema order`` for rows keyed like ``row``."""
        sources: list[str | None] = [None] * len(self.columns)
        for key in row:
            position = self._positions.get(key.lower())
            if position is None:
                raise SchemaError(f"table {self.name!r} has no column {key!r}")
            sources[position] = key
        if len(sources) > 1 and None not in sources:
            return itemgetter(*sources)
        return lambda row: tuple(None if key is None else row[key] for key in sources)

    def with_column_added(self, column: ColumnSchema) -> "TableSchema":
        if self.has_column(column.name):
            raise SchemaError(f"table {self.name!r} already has column {column.name!r}")
        return TableSchema(name=self.name, columns=self.columns + [column])

    def with_column_dropped(self, name: str) -> "TableSchema":
        if not self.has_column(name):
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        remaining = [column for column in self.columns if column.name.lower() != name.lower()]
        if not remaining:
            raise SchemaError(f"cannot drop the last column of table {self.name!r}")
        return TableSchema(name=self.name, columns=remaining)

    def with_column_renamed(self, old: str, new: str) -> "TableSchema":
        if not self.has_column(old):
            raise SchemaError(f"table {self.name!r} has no column {old!r}")
        if self.has_column(new):
            raise SchemaError(f"table {self.name!r} already has column {new!r}")
        columns = [
            replace(column, name=new) if column.name.lower() == old.lower() else column
            for column in self.columns
        ]
        return TableSchema(name=self.name, columns=columns)

    def renamed(self, new_name: str) -> "TableSchema":
        return TableSchema(name=new_name, columns=list(self.columns))
