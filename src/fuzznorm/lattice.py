"""Finite bounded lattices and lattice-valued substructures.

Lattices come in as cover relations; construction computes the
transitive closure, materializes meet and join tables, and fails loudly
on any pair without a unique meet or join, or on a missing top or
bottom. Degrees in the lattice-valued checks are lattice elements, so
"less than" means the lattice order and incomparable outcomes are
counted rather than silently dropped. The t-norm, t-subnorm, fuzzified
and vague conditions are the ``checker``, ``subsets`` and ``vague``
implementations run with the lattice as the degree order, on
``subsets.FuzzySubset`` membership maps.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import checker, vague
from .errors import (BudgetExceededError, DomainError, NotALatticeError,
                     InputFormatError, UnboundedPosetError, read_entries,
                     read_json_object, read_name)
from .reports import PropertyReport, combine, conclude, decide
from .subsets import (FuzzySubset, _closure_witnesses, _id_fn,
                      _identity_witnesses, _TableFn)


class FiniteLattice(NamedTuple):
    elements: tuple
    leq_pairs: frozenset
    meet_table: Mapping
    join_table: Mapping
    bottom: str
    top: str
    name: str = ""

    def leq(self, a, b) -> bool:
        return (a, b) in self.leq_pairs

    def lt(self, a, b) -> bool:
        return a != b and (a, b) in self.leq_pairs

    def meet(self, a, b):
        return self.meet_table[(a, b)]

    def join(self, a, b):
        return self.join_table[(a, b)]

    @property
    def interior(self) -> tuple:
        return tuple(x for x in self.elements if x not in (self.bottom, self.top))

    def to_json(self) -> dict:
        return {"kind": "lattice", "name": self.name or "lattice",
                "size": len(self.elements), "elements": list(self.elements)}


# t-norm enumeration refuses lattices and chains with more elements
MAX_ENUMERATION_SIZE = 6


def check_enumeration_size(size: int, kind: str = "lattice") -> None:
    """Refuse a t-norm enumeration over more than MAX_ENUMERATION_SIZE
    elements; callers run this before building anything that large."""
    if size > MAX_ENUMERATION_SIZE:
        cells = size * (size - 1) // 2  # the non-top cells of a table
        raise BudgetExceededError(  # no estimate where it is itself huge
            f"{kind} of size {size} exceeds the enumeration budget",
            size_estimate=size ** cells if size <= 100 else None)


def build_lattice(elements: Sequence, covers: Sequence, name: str = "") -> FiniteLattice:
    """Construct from a cover relation.

    The cover relation must be acyclic; reachability gives the order.
    Every pair needs a unique greatest lower bound and least upper
    bound, and the order needs global top and bottom elements.
    """
    elems = tuple(elements)
    if len(set(elems)) != len(elems) or not elems:
        raise DomainError("lattice elements must be non-empty and distinct")
    reach = {e: {e} for e in elems}  # e -> the elements e reaches
    for lo, hi in covers:
        if lo not in reach or hi not in reach:
            raise DomainError(f"cover ({lo}, {hi}) mentions unknown elements")
        reach[lo].add(hi)
    for k in elems:  # Warshall: whatever reaches k reaches all k reaches
        for e in elems:
            if k in reach[e]:
                reach[e] |= reach[k]
    for a in elems:
        for b in elems:
            if a != b and b in reach[a] and a in reach[b]:
                raise DomainError(f"cover relation has a cycle through {a} and {b}")
    leq = frozenset((a, b) for a in elems for b in reach[a])
    # bounds first: a topless poset fails join uniqueness too, but the
    # missing bound is the better diagnostic
    bottoms = [e for e in elems if all((e, f) in leq for f in elems)]
    tops = [e for e in elems if all((f, e) in leq for f in elems)]
    if not bottoms:
        raise UnboundedPosetError("poset has no bottom element")
    if not tops:
        raise UnboundedPosetError("poset has no top element")

    def lower_bounds(a, b):
        return [c for c in elems if (c, a) in leq and (c, b) in leq]

    def upper_bounds(a, b):
        return [c for c in elems if (a, c) in leq and (b, c) in leq]

    meet_table, join_table = {}, {}
    for a in elems:
        for b in elems:
            lbs = lower_bounds(a, b)
            greatest = [c for c in lbs if all((d, c) in leq for d in lbs)]
            if len(greatest) != 1:
                raise NotALatticeError(f"pair ({a}, {b}) has no unique meet")
            meet_table[(a, b)] = greatest[0]
            ubs = upper_bounds(a, b)
            least = [c for c in ubs if all((c, d) in leq for d in ubs)]
            if len(least) != 1:
                raise NotALatticeError(f"pair ({a}, {b}) has no unique join")
            join_table[(a, b)] = least[0]
    return FiniteLattice(elems, leq, meet_table, join_table,
                         bottoms[0], tops[0], name=name)


def chain_lattice(size: int) -> FiniteLattice:
    if size < 2:
        raise DomainError("a chain lattice needs at least 2 elements")
    if size == 2:
        labels = ["0", "1"]
    elif size == 3:
        labels = ["0", "m", "1"]
    else:
        labels = ["0"] + [f"m{i}" for i in range(1, size - 1)] + ["1"]
    covers = list(zip(labels, labels[1:]))
    return build_lattice(labels, covers, name=f"chain{size}")


def diamond_lattice() -> FiniteLattice:
    """The four-element lattice with two incomparable mid elements."""
    return build_lattice(["0", "a", "b", "1"],
                         [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
                         name="M2")


def lattice_from_json(obj: dict, *, path: Optional[str] = None) -> FiniteLattice:
    """Parse {"elements": [...], "covers": [[lo, hi], ...]}."""
    for key in ("elements", "covers"):
        if key not in obj:
            raise InputFormatError("missing key", path=path, field=key)
    elements, covers = obj["elements"], obj["covers"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputFormatError("elements must be a list of labels",
                              path=path, field="elements")
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(isinstance(e, str) for e in c)
            for c in covers):
        raise InputFormatError("covers must be a list of [lower, upper] label pairs",
                              path=path, field="covers")
    try:
        return build_lattice(elements, [tuple(c) for c in covers],
                             name=read_name(obj, "name", "", path=path))
    except (DomainError, NotALatticeError, UnboundedPosetError) as exc:
        # build_lattice refuses no or repeated elements before the covers
        field = "covers" if 0 < len(set(elements)) == len(elements) else "elements"
        raise InputFormatError(str(exc), path=path, field=field) from None


def load_lattice(path: str) -> FiniteLattice:
    return lattice_from_json(read_json_object(path), path=path)


def lsubset_from_json(obj: dict, lat: FiniteLattice, *,
                      path: Optional[str] = None) -> FuzzySubset:
    """Parse {"entries": [[element, value], ...]} with one entry for every
    element of the lattice."""
    def element(label):
        # a tuple scan: unhashable labels are just unknown
        if label not in lat.elements:
            raise ValueError(f"{label!r} is not a lattice element")
        return label

    mapping = read_entries(obj, 1, element, element,
                           lambda key: f"element {key[0]!r}", path=path)
    return lsubset_table(lat, {k: v for (k,), v in mapping.items()})


def load_lsubset(path: str, lat: FiniteLattice) -> FuzzySubset:
    return lsubset_from_json(read_json_object(path), lat, path=path)


# --- lattice conjunction tables ---

class LatticeTNorm(NamedTuple):
    lattice: FiniteLattice
    table: Mapping
    name: str = "lattice-tnorm"

    def __call__(self, x, y):
        return self.table[(x, y)]


def meet_tnorm(lat: FiniteLattice) -> LatticeTNorm:
    return LatticeTNorm(lat, dict(lat.meet_table), name=f"meet({lat.name})")


def check_lattice_tnorm(cand, lat: FiniteLattice) -> PropertyReport:
    """The four conditions, by the unit interval's axiom cores with the
    lattice order: monotone in both arguments, associative, commutative,
    and top the identity on both sides."""
    table = cand.table if isinstance(cand, LatticeTNorm) else cand
    elems = lat.elements
    dom = lat.to_json()
    for x in elems:
        for y in elems:
            if (x, y) not in table:
                raise DomainError(f"table missing entry ({x}, {y})")

    def op(x, y):
        return table[(x, y)]

    eq = operator.eq
    children = [
        decide("L1:monotonicity", dom, lat.leq,
               checker._monotonicity(lat, op, elems)),
        decide("L2:associativity", dom, eq, checker._associativity(op, elems)),
        decide("L3:commutativity", dom, eq, checker._commutativity(op, elems)),
        decide("L4:boundary", dom, eq, checker._identity(op, elems, lat.top)),
    ]
    return combine("lattice-tnorm", children, dom)


def enumerate_lattice_tnorms(lat: FiniteLattice, cap: Optional[int] = None) -> list:
    """All conjunction tables on the lattice, by backtracking on element
    positions: the cells (pairs of non-top elements) in row-major order,
    each taking the values below the meet of its coordinates in element
    order. A value is dropped when it breaks monotonicity against a set
    cell of its row or column, and a complete table, symmetric by
    construction, is kept when Light's associativity test passes.
    """
    if cap is not None and cap < 0:
        raise DomainError(f"the table cap must be non-negative, got {cap}")
    elems = lat.elements
    check_enumeration_size(len(elems))
    n, top = len(elems), elems.index(lat.top)
    pts = range(n)
    le = [[lat.leq(a, b) for b in elems] for a in elems]
    at = [[i if top == j else j if top == i else None for j in pts] for i in pts]
    free = [(i, j) for i in pts for j in range(i, n) if top not in (i, j)]
    choices = [[v for v in pts if le[v][elems.index(lat.meet(elems[i], elems[j]))]]
               for i, j in free]
    results = []

    def op(x, y):
        return at[x][y]

    def monotone(i, j, v):
        # the set cells (x, k) of rows i and j, which the table mirrors
        # into columns, against v at (x, y)
        return all(w is None or ((not le[y][k] or le[v][w])
                                 and (not le[k][y] or le[w][v]))
                   for x, y in ((i, j), (j, i)) for k, w in enumerate(at[x]))

    def walk(pos):
        if cap is not None and len(results) >= cap:
            return
        if pos == len(free):
            if not checker._light_associative(op, pts):
                return
            table = {(elems[x], elems[y]): elems[at[x][y]]
                     for x in pts for y in pts}
            label = ",".join(str(elems[at[i][j]]) for i, j in free)
            results.append(LatticeTNorm(lat, table, name=f"T[{label}]"))
            return
        i, j = free[pos]
        for v in choices[pos]:
            if monotone(i, j, v):
                at[i][j] = at[j][i] = v
                walk(pos + 1)
                at[i][j] = at[j][i] = None

    walk(0)
    del walk  # it refers to itself: free it now, not at a collection
    return results


# --- lattice-valued membership maps ---

def lsubset_identity(lat: FiniteLattice) -> FuzzySubset:
    return FuzzySubset("identity", _id_fn)


def lsubset_top(lat: FiniteLattice) -> FuzzySubset:
    return FuzzySubset("one", lambda x: lat.top)


def lsubset_table(lat: FiniteLattice, mapping: Mapping) -> FuzzySubset:
    fn = _TableFn(mapping, list(mapping.values()))
    return FuzzySubset("mu(" + ",".join(str(fn(e)) for e in lat.elements) + ")", fn)


def check_lattice_fuzzy_subnorm(mu: FuzzySubset, t: LatticeTNorm) -> PropertyReport:
    """Meet of memberships below the membership of the product, plus
    full membership at the top: the unit interval's t-subnorm condition
    with the lattice as the degree order."""
    lat = t.lattice
    witnesses = (_closure_witnesses(mu, lat.elements, t, lat.meet, lat.leq)
                 + _identity_witnesses(mu, lat.top, lat.top))
    return conclude("lattice-fuzzy-t-subnorm", lat.to_json(), witnesses,
                    instances=len(lat.elements) ** 2 + 1,
                    details={"mu": mu.name, "tnorm": t.name})


def check_lattice_fuzzy_property(mu: FuzzySubset, t: LatticeTNorm, prop,
                                 gate: bool = True) -> PropertyReport:
    """Lattice renderings of the five fuzzified properties: the unit
    layer's checks with the lattice order on points and membership
    values. Incomparable pairs and outcomes are counted in the report;
    power sequences are decided by exact stationarity. ``gate=False``
    skips the t-subnorm precondition and evaluates the bare quantified
    statement.
    """
    lat = t.lattice
    dom = lat.to_json()
    details = {"mu": mu.name, "tnorm": t.name}
    if gate:
        subnorm = check_lattice_fuzzy_subnorm(mu, t)
        if not subnorm.holds:
            return checker._not_a_subnorm(f"lattice-{prop.value}", dom,
                                          subnorm, None, details)
    return checker._fuzzy_property(lat, t, mu, lat.elements, lat.interior,
                                   lat.bottom, prop, None, f"lattice-{prop.value}",
                                   dom, details)


# --- lattice-valued equalities and vague structure ---

def validate_lattice_fuzzy_equality(fn: Callable, t: LatticeTNorm,
                                    lat: FiniteLattice) -> PropertyReport:
    return vague._validate_equality(lat, fn, t, lat.elements,
                                    "lattice-fuzzy-equality", lat.to_json())


def lattice_crisp_equality(lat: FiniteLattice) -> Callable:
    def fn(x, y):
        return lat.top if x == y else lat.bottom
    return fn


def enumerate_lattice_equalities(lat: FiniteLattice, t: LatticeTNorm) -> list:
    """All symmetric reflexive candidates filtered by transitivity."""
    elems = lat.elements
    pairs = [(elems[i], elems[j]) for i in range(len(elems))
             for j in range(i + 1, len(elems))]
    out = []
    for values in itertools.product(elems, repeat=len(pairs)):
        table = {(x, x): lat.top for x in elems}
        for (x, y), v in zip(pairs, values):
            table[(x, y)] = v
            table[(y, x)] = v

        def fn(a, b, _table=table):
            return _table[(a, b)]

        if validate_lattice_fuzzy_equality(fn, t, lat).holds:
            out.append(table)
    return out


def _induced_degrees(carrier: Sequence, op: Callable, eq: Callable) -> dict:
    """The degree ``eq(op(x, y), z)`` for every carrier triple."""
    table = {}
    for x in carrier:
        for y in carrier:
            v = op(x, y)
            for z in carrier:
                table[(x, y, z)] = eq(v, z)
    return table


def induce_lattice_vague_tnorm(equality: Mapping, t: LatticeTNorm) -> dict:
    """Ternary degree table: degree that t(x, y) equals z."""
    return _induced_degrees(t.lattice.elements, t,
                            lambda a, b: equality[(a, b)])


def check_lattice_vague_structures(equality_fn, t: LatticeTNorm,
                                   lat: FiniteLattice) -> PropertyReport:
    """Composite check: equality axioms, the three vague-operation
    conditions for the induced ternary table, the monoid inequality,
    and commutativity, all with lattice-valued degrees."""
    elems = lat.elements
    vague._tuple_budget(len(elems), 7, "the vague associativity loop")
    dom = lat.to_json()
    eq_report = validate_lattice_fuzzy_equality(equality_fn, t, lat)
    children = [eq_report]
    if eq_report.holds:
        mu = _induced_degrees(elems, t, equality_fn)
        for core, rid in ((vague._op_conditions, "lattice-vague-op"),
                          (vague._monoid, "lattice-vague-monoid"),
                          (vague._commutativity, "lattice-vague-commutativity")):
            children.append(core(lat, t, mu, equality_fn, elems, rid, dom))
    return combine("lattice-vague-structures", children, dom,
                   details={"tnorm": t.name})


def check_lattice_vague_strict_monotone(mu, lat: FiniteLattice,
                                        reading: str = "any-degree") -> PropertyReport:
    """Lattice-degree analog of the monotonicity law on induced tables."""
    return vague._strict_monotone(lat, None, mu, None, lat.elements, reading,
                                  "lattice-vague-strict-monotonicity",
                                  lat.to_json())


def check_lattice_vague_cancellation(mu, lat: FiniteLattice,
                                     reading: str = "any-degree") -> PropertyReport:
    return vague._cancellation(lat, None, mu, None, lat.elements, reading,
                               "lattice-vague-cancellation", lat.to_json())
