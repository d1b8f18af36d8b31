"""Exact values as integer ids, for the exhaustive loops.

The loops that check the paper's propositions evaluate the same
functions at the same values over and over, and every evaluation costs
several ``Fraction`` constructions and comparisons. An ``IdOrder`` gives
each exact value a dense int id in order of first appearance, so two ids
are equal exactly when their values are, and ``vals[id]`` gives the
value back for witnesses. ``lifted(fn)`` is a function on values lifted
to ids, evaluated once per tuple of ids; every function on ids here is
one. An ``IdOrder`` is a finite order on its ids: ``leq``, ``lt`` and
``meet`` are the value order lifted and ids are equal when their values
are, so the value cores of ``fuzznorm.checker``, ``fuzznorm.vague`` and
``fuzznorm.subsets`` run on it as they run on the unit interval and on a
finite lattice. Three compilations build one:

- ``Kernel``: a binary operator over a tuple of distinct points with its
  point pairs tabulated and any other pair (the outer call in
  associativity) lifted;
- ``compile_degrees``: the degrees of a vague operator, carrier points
  and degrees in one id space;
- ``compile_alphabet``: the alphabet of a sweep of membership tables,
  whose closure loop runs on it over a closed ``Kernel`` carrier.

A report goes back to values through ``values_of`` (a list of witnesses
through ``witness_values``).

Only ``Fraction`` values get ids. Every callable a check lifts reads
its value through ``scalars.exact``, which gives a number as the
``Fraction`` it is, and ``compile_alphabet`` reads each letter the same
way, so a loop that has compiled meets only values with ids.
``checker.check_axioms`` and ``CarrierMonoid.from_connective`` build a
``Kernel`` over a domain's points, which are distinct ``Fraction``s
(table carriers build none).
``compile_alphabet`` returns ``None`` for a letter that is not a number
(a lattice label), and its caller runs on values instead;
``compile_degrees`` refuses a repeated point or a label with
``DomainError``. State lives in the object a caller creates; there is
no module-level cache.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, Optional, Sequence

from .errors import DomainError
from .reports import PropertyReport, Witness
from .scalars import ONE, ZERO, exact, format_scalar


class NotCompilable(Exception):
    """A value has no id: the compilation returns None or refuses."""


def _intern(vals: list, ids: dict, v) -> int:
    """``IdOrder.intern``: the id of ``v``, a fresh one for a new value."""
    if not isinstance(v, Fraction):
        raise NotCompilable(f"{v!r} is not a Fraction")
    fresh = len(vals)
    i = ids.setdefault(v, fresh)
    if i == fresh:
        vals.append(v)
    return i


class IdOrder:
    """Dense int ids for exact values, and their order on ids.

    ``values`` take the first ids and a value listed twice is refused,
    so ``values[i]`` has id ``i``. ``lifted(fn)`` is ``fn``
    on the values of ids with its result interned, ``lifted(fn, bool)`` a
    test on them; each is made once per function and memoised per tuple
    of ids.
    """

    def __init__(self, values: Sequence = ()):
        self.vals, self.ids, self._lifted = [], {}, {}
        # not a method: the lifted functions that hold it hold no reference
        # to the order, which is then freed when dropped, not when collected
        self.intern = partial(_intern, self.vals, self.ids)
        for v in values:
            self.intern(v)
        if len(self.vals) != len(values):
            raise NotCompilable("repeated point")
        self.leq = self.lifted(operator.le, bool)
        self.lt = self.lifted(operator.lt, bool)
        self.meet = self.lifted(min)

    def lifted(self, fn: Callable, result: Optional[Callable] = None) -> Callable:
        key = (id(fn), result)  # the memo holds fn, so its id stays its own
        at = self._lifted.get(key)
        if at is None:
            vals, result = self.vals, result or self.intern

            @cache
            def at(*ids):
                return result(fn(*[vals[i] for i in ids]))
            self._lifted[key] = at
        return at


class Kernel(IdOrder):
    """A binary operator over a tuple of distinct points, on ids.

    Point ``i`` has id ``i``; ``table[i][j]`` is the id of
    ``fn(points[i], points[j])``, and ``closed`` says that no such value
    left the points. ``op`` reads ``table`` for a pair of points and the
    lifted operator for any other pair. ``triples``, built when the
    closure loop first asks, lists ``(i, j, table[i][j])`` for every pair
    of points in row-major order.
    """

    def __init__(self, fn: Callable, points: Sequence):
        super().__init__(points)
        self.n = len(points)
        self.table = [[self.intern(fn(x, y)) for y in points] for x in points]
        # no product left the points: each would have taken a new id
        self.closed = len(self.vals) == self.n
        self._op = self.lifted(fn)

    @cached_property
    def triples(self) -> list:
        return [(i, j, k) for i, row in enumerate(self.table)
                for j, k in enumerate(row)]

    def op(self, a: int, b: int) -> int:
        """The id of fn(vals[a], vals[b])."""
        n = self.n
        if a < n and b < n:
            return self.table[a][b]
        return self._op(a, b)


def compile_degrees(carrier: Sequence, rows: Callable, tnorm: Callable,
                    eq: Callable) -> IdOrder:
    """The degree order of a vague operator on ``carrier``, with
    conjunction ``tnorm`` and equality ``eq``; ``rows(x, y)`` lists the
    degrees at ``(x, y, z)`` for ``z`` over the carrier.

    Carrier point ``i`` has id ``i`` (``points`` is
    ``range(len(carrier))``) and a degree the next free id, also one the
    conjunction only reaches inside a loop. ``deg`` is the degree map
    keyed by carrier-id triples, ``t`` and ``eq`` are the conjunction and
    the equality lifted, and ``bottom`` and ``top`` are the ids of 0 and
    1. A carrier point listed twice, or a point or a degree that is not a
    ``Fraction``, is refused with ``DomainError``.
    """
    try:
        order = IdOrder(carrier)
        intern = order.intern
        order.deg = {(i, j, k): intern(d)
                     for i, x in enumerate(carrier) for j, y in enumerate(carrier)
                     for k, d in enumerate(rows(x, y))}
        order.bottom, order.top = intern(ZERO), intern(ONE)
    except NotCompilable as exc:
        raise DomainError(f"a vague operator needs distinct numbers as its "
                          f"points and degrees: {exc}") from None
    order.points = range(len(carrier))
    order.t, order.eq = order.lifted(tnorm), order.lifted(eq)
    return order


def compile_alphabet(alphabet: Sequence) -> Optional[IdOrder]:
    """The alphabet's order on ids, or None when a letter is not a
    number (a lattice label).

    ``letters[k]`` is the id of ``exact(alphabet[k])`` (a letter listed
    twice, or as an int and a ``Fraction``, has one id); any other degree
    takes the next free id when a lifted function first returns it.
    """
    order = IdOrder()
    try:
        order.letters = [order.intern(exact(a)) for a in alphabet]
    except NotCompilable:
        return None
    return order


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
