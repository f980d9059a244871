"""Packed record logs: read-only sequences rendered from typed columns.

A run that keeps one record object per ticket or per round pays a few
hundred bytes each for the object, its ``__dict__`` and its boxed
fields.  The logs built on these helpers keep every field in an
``array`` column instead (4 or 8 bytes a number) and build the record only
when it is read.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence

import numpy as np


class RowView(Sequence):
    """A read-only sequence whose rows are rendered on access.

    Subclasses define ``__len__`` and ``_row(i)``.  A view compares equal to
    a list, or to another view, holding the same rows in the same order.
    """

    __hash__ = None  # type: ignore[assignment]

    def _row(self, i: int):
        raise NotImplementedError

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(n))]
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row index {index} out of range for {n} rows")
        return self._row(i)

    def __iter__(self):
        return (self._row(i) for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (RowView, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class ColumnView(RowView):
    """A read-only view of one ``array`` column: row ``i`` is ``values[i]``."""

    def __init__(self, values: array):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def _row(self, i: int):
        return self._values[i]


class RaggedColumn:
    """Variable-length int rows: one flat column plus int64 row ends.

    ``typecode`` is the flat column's ``array`` type (int64 by default).
    """

    __slots__ = ("values", "ends")

    def __init__(self, typecode: str = "q"):
        self.values = array(typecode)
        #: ``ends[i]`` is where row ``i`` stops in :attr:`values`.
        self.ends = array("q")

    def append(self, items) -> None:
        self.values.extend(items)
        self.ends.append(len(self.values))

    def row(self, i: int) -> list[int]:
        return self.values[self.ends[i - 1] if i else 0 : self.ends[i]].tolist()

    def take(self, keep: np.ndarray) -> "RaggedColumn":
        """A new column holding the rows where the bool mask ``keep`` is true."""
        lengths = np.diff(column(self.ends), prepend=0)
        out = RaggedColumn(self.values.typecode)
        out.values = take(self.values, np.repeat(keep, lengths))
        out.ends = array("q", np.cumsum(lengths[keep]).tobytes())
        return out


def column(values: array) -> np.ndarray:
    """A numpy view of an ``array`` column, for one expression only.

    The ``array`` cannot grow while a view of it is alive, so never keep
    the view: use it and drop it.
    """
    return np.frombuffer(values, dtype=values.typecode)


def take(values: array, keep: np.ndarray) -> array:
    """A new ``array`` of the same type holding ``values[keep]``."""
    return array(values.typecode, column(values)[keep].tobytes())


def merged_sorted(columns) -> array:
    """One float64 ``array`` holding every value of ``columns``, ascending."""
    out = array("d")
    for c in columns:
        out.extend(c)
    column(out).sort()
    return out
