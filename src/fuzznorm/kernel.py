"""Integer-indexed operator tables for the exhaustive loops.

The cubic checks evaluate the same operator at the same grid pairs over
and over, and every evaluation costs several ``Fraction`` constructions
and comparisons. A ``Kernel`` evaluates a binary operator once per pair
of a finite point tuple and stores each result as a value id:

- grid point ``i`` has id ``i``; any other value gets the next free id
  the first time it appears, so two ids are equal exactly when their
  values are, and ``vals[id]`` gives the original value back for
  witnesses;
- ``rank[id]`` orders the values compiled into the table, so order
  checks compare ints;
- values the operator reaches off the grid (the outer call in
  associativity) get their row or column filled lazily, keyed by id.

Only exact values (``Fraction`` or ``int``) get ids. A float would make
id equality stricter than the tolerance comparisons of the reference
path, so compilation returns ``None`` when a point or a compiled value
is a float, and callers run the tolerance path unchanged. A float met
later, in a lazily filled row, raises ``NotCompilable`` for the caller
to do the same. Kernel state lives in the object a caller creates; there
is no module-level cache.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence


_EXACT = (Fraction, int)


class NotCompilable(Exception):
    """A value has no exact id; the caller must use the reference path."""


class Interner:
    """Dense int ids for exact values, in order of first appearance."""

    def __init__(self, values: Sequence = ()):
        self.vals = []
        self.ids = {}
        for v in values:
            self.intern(v)

    def intern(self, v) -> int:
        if not isinstance(v, _EXACT):
            raise NotCompilable(f"{v!r} is not an exact rational")
        fresh = len(self.vals)
        i = self.ids.setdefault(v, fresh)
        if i == fresh:
            self.vals.append(v)
        return i


def order_ranks(values: Sequence) -> list:
    """The position of each value among the sorted distinct values, so
    equal values share a rank and ``<`` on ranks is ``<`` on values."""
    if not all(isinstance(v, _EXACT) for v in values):
        raise NotCompilable("inexact value")
    where = {v: r for r, v in enumerate(sorted(set(values)))}
    return [where[v] for v in values]


class Kernel(Interner):
    """A binary operator tabulated over a tuple of distinct points.

    ``table[i][j]`` is the id of ``fn(points[i], points[j])``; ``row(a)``
    and ``col(b)`` extend it to an off-grid first or second argument.
    """

    def __init__(self, fn: Callable, points: Sequence):
        super().__init__(points)
        if len(self.vals) != len(points):
            raise NotCompilable("repeated point")
        self.fn = fn
        self.points = tuple(points)
        self.table = [[self.intern(fn(x, y)) for y in points] for x in points]
        self.rank = order_ranks(self.vals)
        self._rows = {}
        self._cols = {}

    def row(self, a: int) -> list:
        """Ids of fn(vals[a], p) for every point p."""
        if a < len(self.points):
            return self.table[a]
        row = self._rows.get(a)
        if row is None:
            x = self.vals[a]
            row = self._rows[a] = [self.intern(self.fn(x, p)) for p in self.points]
        return row

    def col(self, b: int) -> list:
        """Ids of fn(p, vals[b]) for every point p."""
        col = self._cols.get(b)
        if col is None:
            if b < len(self.points):
                col = [row[b] for row in self.table]
            else:
                y = self.vals[b]
                col = [self.intern(self.fn(p, y)) for p in self.points]
            self._cols[b] = col
        return col


def compile_operator(fn: Callable, points: Sequence) -> Optional[Kernel]:
    """The operator's value-id table over ``points``, or None when a
    point or a value is not exact."""
    try:
        return Kernel(fn, points)
    except NotCompilable:
        return None


class DegreeTable(Interner):
    """Degree ids of a ternary map over a carrier.

    ``table[i][j][k]`` is the id of the degree at carrier indices
    (i, j, k) and ``pos[i]`` the order rank of carrier point i.
    """

    def __init__(self, degrees, carrier: Sequence):
        super().__init__()
        self.pos = order_ranks(carrier)
        self.table = [[[self.intern(degrees[(x, y, z)]) for z in carrier]
                       for y in carrier] for x in carrier]


def compile_degrees(degrees, carrier: Sequence) -> Optional[DegreeTable]:
    """Degree ids of the mapping ``degrees`` keyed by carrier triples,
    or None when a carrier point or a degree is not exact."""
    try:
        return DegreeTable(degrees, carrier)
    except NotCompilable:
        return None
