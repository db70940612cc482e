"""Columnar batches: per-column value lists sliced from row tuples.

A :class:`ColumnBatch` is the columnar counterpart of the engine's
``RowBatch`` (a list of flat tuples): one span of rows — a heap scan's
*stored* tuples, or any operator's row batch — plus lazily extracted
columns.  A :class:`Column` is one plain list of a column's values (None at
NULL positions), taken by position from the rows, and the column's dtype:
the declared type when a heap scan built the batch, None for an untyped
view over another operator's rows (the kernels then compare through
:func:`~repro.storage.types.compare_values`).  No row is built on the
columnar path; where a row consumer (join, sort, projection) takes over,
the operator hands on :meth:`ColumnBatch.selected_rows` — the survivors
only.

Filtering never copies a batch.  A kernel (see
:mod:`repro.storage.kernels`) returns a *selection vector* — the surviving
row positions — and :meth:`ColumnBatch.narrowed` wraps it in a new batch
that shares the row list and the extracted-column cache with its parent.
That sharing is what the ``columnar-mutation`` hazard-lint rule protects:
a kernel must never mutate a batch it did not allocate, because sibling
selections alias the same buffers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from repro.storage.types import DataType


class Column(NamedTuple):
    """One extracted column: its values in row order and its declared type
    (None in an untyped view)."""

    values: list
    dtype: DataType | None


class ColumnBatch:
    """One batch of rows in columnar form.

    ``rows`` are the row tuples as their producer yielded them (never
    copied, never mutated); ``dtypes`` holds one declared type — or None —
    per row position; ``selection`` is either None (every row is live) or a
    list of live positions into ``rows`` in ascending order.
    Columns are extracted lazily on first access and cached in a dict that
    :meth:`narrowed` shares across selections of the same span, so a filter
    chain extracts each referenced column exactly once per batch.
    """

    __slots__ = ("rows", "dtypes", "selection", "_columns")

    def __init__(self, rows, dtypes, selection=None, columns=None):
        self.rows = rows
        self.dtypes = dtypes
        self.selection = selection
        self._columns = {} if columns is None else columns

    def __len__(self) -> int:
        if self.selection is None:
            return len(self.rows)
        return len(self.selection)

    def column(self, position: int) -> Column:
        """The column at row position ``position`` (full span, not
        selection-filtered — kernels index it through the selection)."""
        column = self._columns.get(position)
        if column is None:
            column = self._columns[position] = Column(
                list(map(itemgetter(position), self.rows)), self.dtypes[position]
            )
        return column

    def narrowed(self, selection: list[int]) -> "ColumnBatch":
        """A new batch over the same rows restricted to ``selection``.

        Shares the row list and the column cache — this is the only legal
        way for a filter kernel to produce output (see the
        ``columnar-mutation`` lint rule)."""
        return ColumnBatch(self.rows, self.dtypes, selection, self._columns)

    def selected_rows(self) -> list[tuple]:
        """The live rows, in row order."""
        if self.selection is None:
            return self.rows
        rows = self.rows
        return [rows[index] for index in self.selection]
