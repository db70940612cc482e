"""Columnar batches: typed per-column buffers over slotted heap rows.

A :class:`ColumnBatch` is the columnar counterpart of the engine's
``RowBatch`` (a list of flat tuples): one span of heap rows held as a list of
the *stored* row dicts plus lazily extracted per-column buffers —
``array('q')`` / ``array('d')`` for INT/FLOAT columns (with a parallel
validity bitmap when the column contains NULLs) and plain Python lists for
everything else.  No row tuple is built on the columnar path; at the boundary
where a row consumer (join, sort, projection) takes over, the operator builds
them from :meth:`ColumnBatch.selected_rows` — the survivors only.

Filtering never copies a batch.  A kernel (see
:mod:`repro.storage.kernels`) returns a *selection vector* — the surviving
row positions — and :meth:`ColumnBatch.narrowed` wraps it in a new batch
that shares the row list and the extracted-column cache with its parent.
That sharing is what the ``columnar-mutation`` hazard-lint rule protects:
a kernel must never mutate a batch it did not allocate, because sibling
selections alias the same buffers.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import is_not

from repro.storage.types import DataType

#: ``Column.kind`` codes: typed int/float buffers, or a plain object list.
KIND_INT = "q"
KIND_FLOAT = "d"
KIND_OBJECT = "o"

_TYPED_KINDS = {DataType.INTEGER: KIND_INT, DataType.FLOAT: KIND_FLOAT}


class Column:
    """One extracted column: a typed buffer (or object list) plus validity.

    * ``kind`` — :data:`KIND_INT` / :data:`KIND_FLOAT` (``data`` is an
      ``array`` of that typecode) or :data:`KIND_OBJECT` (``data`` is a
      plain list holding the stored values, Nones included).
    * ``validity`` — for typed kinds only: a ``bytearray`` with 1 at the
      positions holding real values and 0 at NULLs (NULL slots hold 0 in
      ``data``), or None when the column has no NULLs at all — the common
      case, which lets kernels skip the validity test entirely.
    """

    __slots__ = ("kind", "dtype", "data", "validity", "_values")

    def __init__(self, kind, dtype, data, validity=None, values=None):
        self.kind = kind
        self.dtype = dtype
        self.data = data
        self.validity = validity
        self._values = data if kind == KIND_OBJECT else values

    def __len__(self) -> int:
        return len(self.data)

    def values(self) -> list:
        """The column as a plain Python list (None at NULL positions).

        Memoized; for a dense typed column this is one C-speed
        ``array.tolist()`` call, which is what makes the aggregate path and
        the fallback comparison loops cheap.
        """
        if self._values is None:
            if self.validity is None:
                self._values = self.data.tolist()
            else:
                self._values = [
                    value if ok else None
                    for value, ok in zip(self.data.tolist(), self.validity)
                ]
        return self._values


def _extract(rows: list[dict], key: str, dtype: DataType) -> Column:
    """Build one :class:`Column` from the batch's stored row dicts.

    INT/FLOAT columns land in typed arrays; anything the typecode cannot
    hold (a NULL-only overflow: Python ints beyond 64 bits) falls back to
    the object representation rather than failing — the kernels treat the
    two identically through :meth:`Column.values`.
    """
    raw = [row[key] for row in rows]
    code = _TYPED_KINDS.get(dtype)
    if code is None:
        return Column(KIND_OBJECT, dtype, raw)
    try:
        if None in raw:
            data = array(code, [0 if value is None else value for value in raw])
            # bool subclasses int, so mapping C-level ``is not None`` straight
            # into the bytearray skips a per-element Python genexpr.
            validity = bytearray(map(is_not, raw, repeat(None)))
            return Column(code, dtype, data, validity, values=raw)
        return Column(code, dtype, array(code, raw))
    except (OverflowError, TypeError, ValueError):
        return Column(KIND_OBJECT, dtype, raw)


class ColumnBatch:
    """One batch of heap rows in columnar form.

    ``rows`` are the *stored* row dicts straight off the slotted pages
    (never copied, never mutated); ``selection`` is either None (every row
    is live) or a list of live positions into ``rows`` in ascending order.
    Columns are extracted lazily on first access and cached in a dict that
    :meth:`narrowed` shares across selections of the same span, so a filter
    chain extracts each referenced column exactly once per batch.
    """

    __slots__ = ("binding", "schema", "rows", "selection", "_columns")

    def __init__(self, binding, schema, rows, selection=None, columns=None):
        self.binding = binding
        self.schema = schema
        self.rows = rows
        self.selection = selection
        self._columns = {} if columns is None else columns

    def __len__(self) -> int:
        if self.selection is None:
            return len(self.rows)
        return len(self.selection)

    def column(self, key: str) -> Column:
        """The extracted column for row-dict key ``key`` (full span, not
        selection-filtered — kernels index it through the selection)."""
        column = self._columns.get(key)
        if column is None:
            dtype = self.schema.column(key).data_type
            column = _extract(self.rows, key, dtype)
            self._columns[key] = column
        return column

    def narrowed(self, selection: list[int]) -> "ColumnBatch":
        """A new batch over the same rows restricted to ``selection``.

        Shares the row list and the column cache — this is the only legal
        way for a filter kernel to produce output (see the
        ``columnar-mutation`` lint rule)."""
        return ColumnBatch(
            self.binding, self.schema, self.rows, selection, self._columns
        )

    def selected_rows(self) -> list[dict]:
        """The live stored row dicts, in row order."""
        if self.selection is None:
            return self.rows
        rows = self.rows
        return [rows[index] for index in self.selection]
