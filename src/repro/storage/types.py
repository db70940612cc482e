"""SQL value types and coercion rules for the storage engine."""

from __future__ import annotations

import enum
import json

from repro.errors import SchemaError


class DataType(enum.Enum):
    """The storage engine's column types."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    #: A JSON value held as its Python structure (see :func:`freeze_json`).
    #: Internal to the engine's own relations: no SQL type name maps to it.
    JSON = "JSON"

    @classmethod
    def from_sql(cls, type_name: str) -> "DataType":
        """Map a SQL type name (from CREATE TABLE) to a :class:`DataType`."""
        normalized = type_name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "FLOAT": cls.FLOAT,
            "REAL": cls.FLOAT,
            "DOUBLE": cls.FLOAT,
            "DECIMAL": cls.FLOAT,
            "NUMERIC": cls.FLOAT,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
        }
        if normalized not in aliases:
            raise SchemaError(f"unsupported SQL type: {type_name!r}")
        return aliases[normalized]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)


#: The Python type a stored value of each column type has.  A value whose
#: type *is* this one (``bool`` is not ``int`` here) is already in stored
#: form, which is how bulk coercion passes it through without a call.  A
#: ``JSON`` value has no one such type: it always reaches :func:`freeze_json`,
#: which checks what it holds.
STORED_TYPES: dict[DataType, type] = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
}

#: The Python types of a JSON scalar (``None`` is JSON ``null``).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _cannot_coerce(value: object, data_type: DataType, column: str) -> SchemaError:
    label = f" for column {column!r}" if column else ""
    return SchemaError(f"cannot coerce {value!r} to {data_type.value}{label}")


def freeze_json(value: object, column: str = "") -> object:
    """``value`` as a stored ``JSON`` value: a str, int, float, bool or
    ``None``, or a tuple of such values (a JSON array), so it is immutable and
    hashable.  A tuple that hashes is taken as it is, not copied or walked.
    A list — an array decoded from a WAL frame or a heap page — is frozen to
    a tuple, and so is every list or tuple in it.  Either way a scalar leaf is
    the caller's (the WAL and page codecs refuse one JSON cannot hold); a
    dict or set anywhere in the value, or a value of another type, raises
    :class:`~repro.errors.SchemaError`.
    """
    kind = type(value)
    if kind in _JSON_SCALARS:
        return value
    if kind is tuple or kind is list:
        if kind is tuple and _hashes(value):  # then it holds no list, dict or set
            return value
        try:
            return _tuples(value)
        except TypeError:
            pass
    raise _cannot_coerce(value, DataType.JSON, column)


def _hashes(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


#: The Python types of a JSON array: a tuple as stored, a list as decoded.
_ARRAYS = frozenset({list, tuple})


def _tuples(items) -> tuple:
    """``items`` as a tuple, each array in it a tuple too, at every depth;
    hashing the result, it raises ``TypeError`` for a dict or set in it.  An
    array of scalars, or an array of such arrays (a sample's rows), is frozen
    and checked by C-level calls alone; only a deeper array is walked item by
    item."""
    if items and type(items[0]) in _ARRAYS and _ARRAYS.issuperset(map(type, items)):
        frozen = tuple(map(tuple, items))
    else:
        frozen = tuple(items)
    if _hashes(frozen):  # no list, dict or set left in it
        return frozen
    frozen = tuple([_tuples(item) if type(item) in _ARRAYS else item for item in items])
    hash(frozen)
    return frozen


def as_text(value: object) -> str:
    """A non-NULL value as SQL text (``LIKE``, ``||``, ``CAST … AS TEXT``):
    a ``JSON`` array as its JSON text, spelled as the ``OutputSamples``
    projection spells a sample, and any other value as ``str`` does."""
    return json.dumps(value, ensure_ascii=False) if type(value) is tuple else str(value)


def coerce_value(value: object, data_type: DataType, column: str = "") -> object:
    """Coerce ``value`` to the Python representation of ``data_type``.

    ``None`` (SQL NULL) passes through unchanged.  Raises
    :class:`~repro.errors.SchemaError` when the value cannot be represented.
    """
    if value is None:
        return None
    if data_type is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise _cannot_coerce(value, data_type, column) from exc
    elif data_type is DataType.FLOAT:
        if isinstance(value, (bool, int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError as exc:
                raise _cannot_coerce(value, data_type, column) from exc
    elif data_type is DataType.TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return str(value)
    elif data_type is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
    elif data_type is DataType.JSON:
        return freeze_json(value, column)
    else:
        raise SchemaError(f"unknown data type {data_type!r}")
    raise _cannot_coerce(value, data_type, column)


def infer_type(value: object) -> DataType:
    """Infer the :class:`DataType` of a Python value (used by CREATE-from-rows)."""
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    return DataType.TEXT


def compare_values(left: object, right: object) -> int | None:
    """Three-way comparison honouring SQL NULL semantics.

    Returns ``None`` when either side is NULL (the comparison is *unknown*),
    otherwise -1, 0, or 1.  Mixed numeric comparisons are allowed; comparing a
    number with text falls back to string comparison of their repr, which is
    deterministic and sufficient for an analytical workload simulator.
    """
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        left_key, right_key = bool(left), bool(right)
    elif isinstance(left, (int, float)) and isinstance(right, (int, float)):
        left_key, right_key = left, right
    elif isinstance(left, str) and isinstance(right, str):
        left_key, right_key = left, right
    else:
        left_key, right_key = str(left), str(right)
    if left_key < right_key:
        return -1
    if left_key > right_key:
        return 1
    return 0


def sort_key(value: object):
    """A total-order sort key that places NULLs first and mixes types safely:
    NULL, then numbers by value (``bool`` as 0/1; integers compare exactly,
    also past 2**53), then anything else by its text."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))
