"""Integer-indexed operator tables and degree orders for the exhaustive loops.

The cubic checks evaluate the same operator at the same grid pairs over
and over, and every evaluation costs several ``Fraction`` constructions
and comparisons. A ``Kernel`` evaluates a binary operator once per pair
of a finite point tuple and stores each result as a value id:

- grid point ``i`` has id ``i``; any other value gets the next free id
  the first time it appears, so two ids are equal exactly when their
  values are, and ``vals[id]`` gives the original value back for
  witnesses;
- values the operator reaches off the grid (the outer call in
  associativity) get their row or column filled lazily, keyed by id.

A ``Kernel`` is also a finite order on its ids: ``op`` is the operator
on ids, ``leq`` and ``lt`` compare the values of two ids (memoised), and
``same`` is id equality, so the axiom cores in ``fuzznorm.checker`` run
on it as they run on the unit interval and on a finite lattice.

A ``DegreeOrder`` compiles the degree order of a vague operator the same
way: carrier points and degrees share one id space, the conjunction is a
table on ids filled as the loops reach new pairs, and the vague value
cores in ``fuzznorm.vague`` run on it as they run on the unit interval.
Either order's report goes back to values through ``values_of``, and
``on_ids`` runs a check on an order with that translation.

An ``AlphabetOrder`` compiles the alphabet of a sweep of membership
tables the same way, with functions on degrees lifted to ids; the
closure loop of ``fuzznorm.subsets`` runs on it over a ``Kernel``
carrier, and ``witness_values`` turns its witnesses back into values.

Only exact values (``Fraction`` or ``int``) get ids, and an id keeps the
type it was first seen with, so ``vals[id]`` prints as the value it
stands for. A float would make id equality stricter than the tolerance
comparisons of the reference path, so compilation returns ``None`` when
a point or a compiled value is a float (or an int where an equal
``Fraction`` already has the id), and callers run the tolerance path
unchanged. Such a value met later, in a lazily filled row or pair,
raises ``NotCompilable`` for the caller to do the same. Kernel state
lives in the object a caller creates; there is no module-level cache.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .reports import PropertyReport, Witness
from .scalars import ONE, ZERO, format_scalar


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
        elif type(self.vals[i]) is not type(v):  # 0 and Fraction(0) print apart
            raise NotCompilable(f"{v!r} and {self.vals[i]!r} differ in type")
        return i


class Kernel(Interner):
    """A binary operator tabulated over a tuple of distinct points, and
    the order of the values it reaches.

    ``table[i][j]`` is the id of ``fn(points[i], points[j])``; ``row(a)``
    and ``col(b)`` extend it to an off-grid first or second argument, and
    ``op`` reads whichever of the three holds a pair. ``leq``, ``lt`` and
    ``same`` make it a degree order on ids, as ``DegreeOrder`` is.
    """

    def __init__(self, fn: Callable, points: Sequence):
        super().__init__(points)
        if len(self.vals) != len(points):
            raise NotCompilable("repeated point")
        self.fn = fn
        self.points = tuple(points)
        self.n = len(self.points)
        self.table = [[self.intern(fn(x, y)) for y in points] for x in points]
        # no product left the points: each would have taken a new id
        self.closed = len(self.vals) == self.n
        self._rows = {}
        self._cols = {}
        self.leq = _memoised(operator.le, self.vals, bool)
        self.lt = _memoised(operator.lt, self.vals, bool)
        self.same = operator.eq

    def op(self, a: int, b: int) -> int:
        """The id of fn(vals[a], vals[b]), where a or b is a point."""
        n = self.n
        if b >= n:
            return self.col(b)[a]
        return self.table[a][b] if a < n else self.row(a)[b]

    def row(self, a: int) -> list:
        """Ids of fn(vals[a], p) for every point p, filled on first use."""
        row = self._rows.get(a)
        if row is None:
            x = self.vals[a]
            row = self._rows[a] = [self.intern(self.fn(x, p)) for p in self.points]
        return row

    def col(self, b: int) -> list:
        """Ids of fn(p, vals[b]) for every point p, filled on first use."""
        col = self._cols.get(b)
        if col is None:
            y = self.vals[b]
            col = self._cols[b] = [self.intern(self.fn(p, y)) for p in self.points]
        return col


def compile_operator(fn: Callable, points: Sequence) -> Optional[Kernel]:
    """The operator's value-id table over ``points``, or None when a
    point or a value is not exact."""
    try:
        return Kernel(fn, points)
    except NotCompilable:
        return None


class DegreeOrder(Interner):
    """A vague operator's degrees as a finite order on ids.

    Carrier points and degrees share one id space: carrier point ``i``
    has id ``i`` (``points`` is ``range(len(carrier))``), and a degree
    gets the next free id the first time it appears, also one the
    conjunction only reaches inside a loop. ``deg`` is the degree map
    keyed by carrier-id triples; ``t`` and ``eq`` are the conjunction and
    the equality on ids, memoised per pair. ``bottom``, ``top``, ``leq``,
    ``lt`` and ``same`` are the members every degree order has, so the
    value cores run on it unchanged: ``leq`` and ``lt`` compare values
    (memoised), ``same`` is id equality.
    """

    def __init__(self, degrees, carrier: Sequence, tnorm: Callable, eq: Callable):
        super().__init__(carrier)
        if len(self.vals) != len(carrier):
            raise NotCompilable("repeated point")
        self.points = range(len(carrier))
        self.deg = {(i, j, k): self.intern(degrees[(x, y, z)])
                    for i, x in enumerate(carrier) for j, y in enumerate(carrier)
                    for k, z in enumerate(carrier)}
        self.bottom = self.intern(ZERO)
        self.top = self.intern(ONE)
        vals, intern = self.vals, self.intern
        self.t = _memoised(tnorm, vals, intern)
        self.eq = _memoised(eq, vals, intern)
        self.leq = _memoised(operator.le, vals, bool)
        self.lt = _memoised(operator.lt, vals, bool)
        self.same = operator.eq


def _memoised(fn: Callable, vals: list, result: Callable) -> Callable:
    """fn on the values of ids, computed once per tuple of ids."""
    memo = {}

    def at(*ids):
        r = memo.get(ids)
        if r is None:
            r = memo[ids] = result(fn(*[vals[i] for i in ids]))
        return r
    return at


class AlphabetOrder(Interner):
    """The degrees of the membership tables over one alphabet, on ids.

    ``letters[k]`` is the id of ``alphabet[k]`` (a letter listed twice
    has one id); any other degree gets the next free id when a lifted
    function first returns it. ``lifted(fn)`` is ``fn`` on the values of
    ids with its degree interned, ``lifted(fn, bool)`` a test on them,
    each made once per function and memoised per tuple of ids; ``meet``
    is min lifted.
    """

    def __init__(self, alphabet: Sequence):
        super().__init__()
        self.letters = [self.intern(a) for a in alphabet]
        self._lifted = {}
        self.meet = self.lifted(min)

    def lifted(self, fn: Callable, result: Optional[Callable] = None) -> Callable:
        key = (id(fn), result)  # the memo holds fn, so its id stays its own
        at = self._lifted.get(key)
        if at is None:
            at = self._lifted[key] = _memoised(fn, self.vals,
                                               result or self.intern)
        return at


def compile_alphabet(alphabet: Sequence) -> Optional[AlphabetOrder]:
    """The alphabet's order on ids, or None when a letter is not exact."""
    try:
        return AlphabetOrder(alphabet)
    except NotCompilable:
        return None


def compile_degrees(degrees, carrier: Sequence, tnorm: Callable,
                    eq: Callable) -> Optional[DegreeOrder]:
    """The degree order of the mapping ``degrees`` keyed by carrier
    triples, with conjunction ``tnorm`` and equality ``eq``, or None when
    a carrier point or a degree is not exact."""
    try:
        return DegreeOrder(degrees, carrier, tnorm, eq)
    except NotCompilable:
        return None


def on_ids(order, run: Callable, fallback: Callable) -> PropertyReport:
    """``run(order)`` with its ids turned back into values, or
    ``fallback()`` when there is no compiled order or the run meets a
    value without an exact id."""
    if order is not None:
        try:
            return values_of(run(order), order.vals)
        except NotCompilable:  # a float the loops reached
            pass
    return fallback()


def values_of(rep: PropertyReport, vals: list) -> PropertyReport:
    """The ids in ``rep``'s witnesses and in its ``identity`` and
    ``absorber`` details replaced by their values; a witness named by a
    string, like ``("no-identity-element",)``, stays."""
    witness_values(rep.witnesses, vals, vals)
    for key in ("identity", "absorber"):
        if rep.details.get(key) is not None:
            rep.details[key] = format_scalar(vals[int(rep.details[key])])
    for child in rep.children:
        values_of(child, vals)
    return rep


def witness_values(witnesses: list, points: Sequence, vals: list) -> list:
    """``witnesses`` with their input ids replaced by ``points`` and their
    value ids by ``vals``, in place (one copy of a long list); a witness
    named by a string stays."""
    for i, w in enumerate(witnesses):
        if not isinstance(w.inputs[0], str):
            witnesses[i] = Witness(tuple([points[x] for x in w.inputs]),
                                   tuple([vals[x] for x in w.values]))
    return witnesses
