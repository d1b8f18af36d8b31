"""Axiom suites and classical operator properties over exact grids.

All quantifiers run exhaustively over the supplied domain. Verdicts
are domain-qualified; a FAILS report always carries witnesses that
re-evaluate to violations of the defining inequality.

Each operator axiom (commutativity, associativity, monotonicity in both
arguments, the identity and absorber laws) is implemented once, as the
cases it quantifies over a degree order and an operator: the compiled
``kernel.Kernel`` of an exact operator, the unit interval with the
operator itself, or a finite lattice (``lattice.check_lattice_tnorm``).

The five fuzzified properties (strict monotonicity, plain and
conditional cancellation, Archimedean, limit) are implemented once,
over a degree order: the unit interval or a finite lattice. The crisp
properties are that implementation on the unit interval at a fixed
membership map, reported in the crisp shape.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Optional

from . import kernel
from .connectives import Connective, Role
from .errors import DomainError
from .reports import (GridDomain, PropertyReport, SearchBudget, Verdict,
                      Witness, collect, combine, conclude, decide)
from .scalars import ONE, UNIT_INTERVAL, ZERO, exact, format_scalar
from .subsets import MU_COMPLEMENT, MU_ID


# The axiom cores: each yields its (inputs, lhs, rhs) cases over the
# points ``pts`` of a degree order (``scalars.UNIT_INTERVAL``, a compiled
# ``kernel.Kernel`` or a ``FiniteLattice``) under the operator ``op``.

def _commutativity(op, pts):
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            yield (x, y), op(x, y), op(y, x)


def _associativity(op, pts):
    right = [[op(y, z) for z in pts] for y in pts]
    for x in pts:
        for y, row in zip(pts, right):
            xy = op(x, y)
            for z, yz in zip(pts, row):
                yield (x, y, z), op(xy, z), op(x, yz)


def _light_associative(op, pts) -> bool:
    """Light's test: a commutative ``op`` closed on the sequence ``pts`` is
    associative iff ``op(op(x, y), z)`` is one value on the three
    arrangements of each triple x <= y <= z of ``pts`` (by position)."""
    return all(op(op(x, y), z) == op(op(x, z), y) == op(op(y, z), x)
               for i, x in enumerate(pts) for j, y in enumerate(pts[i:], i) for z in pts[j:])


def _monotonicity(order, op, pts):
    """Both arguments, over the strict pairs y < z of the order: the
    value at y must not exceed the value at z (decided by ``leq``)."""
    lt = order.lt
    pairs = [(i, j) for i, y in enumerate(pts) for j, z in enumerate(pts)
             if lt(y, z)]
    for x in pts:
        right = [op(x, p) for p in pts]
        left = [op(p, x) for p in pts]
        for i, j in pairs:
            yield (x, pts[i], pts[j]), right[i], right[j]
            yield (pts[i], pts[j], x), left[i], left[j]


def _identity(op, pts, e):
    for x in pts:
        yield (x, e), op(x, e), x
        yield (e, x), op(e, x), x


def _absorber(order, op, pts, k, zero, one):
    """k absorbs, 0 is the identity below k and 1 above it."""
    leq = order.leq
    for x in pts:
        yield (k, x), op(k, x), k
        if leq(x, k):
            yield (zero, x), op(zero, x), x
        if leq(k, x):
            yield (one, x), op(one, x), x


def _search_identity(op, pts):
    """The first point e with ``op(x, e) == x`` at every point x, or None."""
    for e in pts:
        if all(op(x, e) == x for x in pts):
            return e
    return None


def _uninorm_identity(op, pts, e, rid, dom):
    if e is not None:
        return decide(rid, dom, operator.eq, _identity(op, pts, e),
                      details={"identity": format_scalar(e)})
    # no declared identity: search the grid for one
    e = _search_identity(op, pts)
    missing = [] if e is not None else [Witness(("no-identity-element",), ())]
    return conclude(rid, dom, missing,
                    details={"identity": None if e is None else format_scalar(e),
                             "identity_searched": True})


_AXIOM_PREFIX = {Role.TNORM: "T", Role.TCONORM: "S",
                 Role.UNINORM: "U", Role.NULLNORM: "F"}


def _role_axioms(order, op, at, conn, pts, dom) -> PropertyReport:
    """The four axioms of ``conn``'s role; ``at`` turns a value the role
    names (a bound, the identity, the absorber) into an order element."""
    role = conn.role
    p = _AXIOM_PREFIX[role]
    eq = operator.eq
    children = [
        decide(f"{p}1:commutativity", dom, eq, _commutativity(op, pts)),
        decide(f"{p}2:associativity", dom, eq, _associativity(op, pts)),
        decide(f"{p}3:monotonicity", dom, order.leq, _monotonicity(order, op, pts)),
    ]
    if role is Role.TNORM or role is Role.TCONORM:
        e = at(ONE if role is Role.TNORM else ZERO)
        children.append(decide(f"{p}4:boundary", dom, eq, _identity(op, pts, e)))
    elif role is Role.UNINORM:
        e = None if conn.identity is None else at(exact(conn.identity))
        children.append(_uninorm_identity(op, pts, e, f"{p}4:identity", dom))
    else:
        zero, one = at(ZERO), at(ONE)
        k = op(zero, one) if conn.absorber is None else at(exact(conn.absorber))
        children.append(decide(f"{p}4:absorbing", dom, eq,
                                _absorber(order, op, pts, k, zero, one),
                                details={"absorber": format_scalar(k)}))
    return combine(f"axioms:{role.value}", children, dom,
                   details={"operator": conn.name})


def _aggregation_axioms(conn, pts, dom) -> PropertyReport:
    """Monotonicity plus the two boundary values, at arities 2 and 3."""
    boundary = [(args, conn(*args), v) for arity in (2, 3)
                for args, v in (((ZERO,) * arity, ZERO), ((ONE,) * arity, ONE))]
    children = [
        decide("A1:monotonicity", dom, UNIT_INTERVAL.leq,
                _monotonicity(UNIT_INTERVAL, conn, pts)),
        decide("A2:boundary", dom, operator.eq, boundary),
    ]
    return combine(f"axioms:{conn.role.value}", children, dom,
                   details={"operator": conn.name})


def check_axioms(conn: Connective, domain: GridDomain) -> PropertyReport:
    """Per-axiom verdicts for the operator's declared role.

    Associativity runs over every triple of domain points; intermediate
    values may leave the grid, which is fine because evaluation stays
    exact. The axiom cores run on the operator's compiled
    ``kernel.Kernel`` (the domain's points are distinct ``Fraction``s and
    the operator returns one), and a declared identity or absorber is
    read through ``scalars.exact``.
    """
    pts = domain.points
    dom = domain.to_json()
    if conn.role is Role.AGGREGATION:
        return _aggregation_axioms(conn, pts, dom)
    kern = kernel.Kernel(conn, pts)
    return kernel.values_of(_role_axioms(kern, kern.op, kern.intern, conn,
                                         range(len(pts)), dom), kern.vals)


class FuzzyProp(Enum):
    FSTRICT = "fuzzy-strict-monotonicity"
    FCANCEL = "fuzzy-cancellation"
    FCONDCANCEL = "fuzzy-conditional-cancellation"
    FARCH = "fuzzy-archimedean"
    FLIMIT = "fuzzy-limit-property"


def _power_trajectory(conn, x, cap):
    """Powers x^(1)..x^(cap) with early stop at an exact fixpoint.

    Returns (trajectory, stationary_value). A fixpoint persists forever
    (T(v, x) = v reproduces itself), so a stationary trajectory decides
    the search exactly.
    """
    traj = []
    cur = x
    stationary = None
    for n in range(1, cap + 1):
        traj.append((n, cur))
        if n == cap:
            break
        nxt = conn(cur, x)
        if nxt == cur:
            stationary = cur
            break
        cur = nxt
    return traj, stationary


def _fuzzy_property(order, op, mu, pts, xs, bottom, prop, budget, rid,
                    dom, details) -> PropertyReport:
    """The five properties over a degree order (``scalars.UNIT_INTERVAL``
    or a ``FiniteLattice``) that orders points and degrees alike.

    ``xs`` ranges the first argument of strict monotonicity and of the
    power searches. Strict monotonicity quantifies over the pairs y < z
    of the order and counts the incomparable ones it excludes; it runs
    in the reversed direction, the only direction the closure inequality
    leaves open. Power searches stop at an exact fixpoint, which decides
    the point. ``budget`` caps them, and a budgeted search reports how
    far it went (``max_witness_n``, ``convergence``); without one (a
    finite lattice) the cap is one more than the number of points, which
    every strictly decreasing chain of powers reaches, and the report
    carries no budget. The verdict-only mode (``reports.collect``) stops
    the three pair properties at their first witness, their counts then
    partial.
    """
    lt, leq = order.lt, order.leq
    witnesses, inconclusive, incomparable = [], 0, 0
    details = dict(details)

    def apart(a, b):
        return not leq(a, b) and not leq(b, a)

    def rows(firsts):
        # mu(x o p) for every point p, once per x
        return ((x, [mu(op(x, p)) for p in pts]) for x in firsts)

    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if prop is FuzzyProp.FSTRICT:
        ordered = []
        for i, j in pairs:
            if lt(pts[i], pts[j]):
                ordered.append((i, j))
            elif lt(pts[j], pts[i]):
                ordered.append((j, i))

        def found():
            nonlocal incomparable
            for x, row in rows(xs):
                for i, j in ordered:
                    vy, vz = row[i], row[j]
                    if not lt(vz, vy):  # reversed: mu(T(x,y)) > mu(T(x,z))
                        incomparable += apart(vy, vz)
                        yield Witness((x, pts[i], pts[j]), (vy, vz))
        witnesses = collect(found())
        instances = len(xs) * len(ordered)
        details["excluded_incomparable_pairs"] = len(pairs) - len(ordered)

    elif prop is FuzzyProp.FCANCEL:
        raised = [x for x in pts if x != bottom]
        witnesses = collect((Witness((x, pts[i], pts[j]), (row[i], row[j]))
                             for x, row in rows(raised) for i, j in pairs
                             if row[i] == row[j]))
        instances = len(raised) * len(pairs)

    elif prop is FuzzyProp.FCONDCANCEL:
        mu0 = mu(bottom)
        strong_violations = 0

        def found():
            nonlocal strong_violations
            for x, row in rows(pts):
                for i, j in pairs:
                    vy = row[i]
                    if not (vy == row[j] and lt(mu0, vy)):
                        continue
                    strong_violations += 1  # stronger reading concludes y = z
                    my, mz = mu(pts[i]), mu(pts[j])
                    if my != mz:
                        yield Witness((x, pts[i], pts[j]), (vy, my, mz))
        witnesses = collect(found())
        instances = n * len(pairs)
        details["strong_form_violations"] = strong_violations

    elif prop is FuzzyProp.FARCH:
        cap = budget.n_max if budget else n + 1
        max_witness_n = 0
        for x in xs:
            traj, stationary = _power_trajectory(op, x, cap)
            for y in xs:
                target = mu(y)
                # the first power below the target; powers start at 1
                k = next((k for k, v in traj if lt(mu(v), target)), 0)
                if k:
                    max_witness_n = max(max_witness_n, k)
                elif stationary is None:
                    inconclusive += 1
                else:
                    incomparable += any(apart(mu(v), target) for _, v in traj)
                    witnesses.append(
                        Witness((x, y), (stationary, mu(stationary), target)))
        instances = len(xs) ** 2
        if budget and max_witness_n:
            details["max_witness_n"] = max_witness_n
        if inconclusive:
            details["inconclusive_pairs"] = inconclusive

    elif prop is FuzzyProp.FLIMIT:
        mu0 = mu(bottom)
        cap = budget.iter_cap if budget else n + 1
        convergence = {}

        def near(v):
            # within epsilon of the target: a budget rule
            return abs(mu(v) - mu0) < budget.epsilon

        for x in xs:
            traj, stationary = _power_trajectory(op, x, cap)
            if stationary is not None:
                if mu(stationary) != mu0:
                    witnesses.append(
                        Witness((x,), (stationary, mu(stationary), mu0)))
                    continue
            elif budget:
                # cap reached with the trajectory still moving: accept the
                # next power within epsilon of the target, else give up
                traj.append((cap + 1, op(traj[-1][1], x)))
                if not near(traj[-1][1]):
                    inconclusive += 1
                    continue
            else:
                inconclusive += 1
                continue
            if budget:
                # the first walked power within epsilon; a decided point has one
                convergence[format_scalar(x)] = next(k for k, v in traj if near(v))
        instances = len(xs)
        if budget:
            details["convergence"] = convergence
        if inconclusive:
            details["inconclusive_points"] = inconclusive

    else:  # pragma: no cover - exhaustive enum
        raise DomainError(f"unknown fuzzy property {prop}")

    if incomparable:
        details["incomparable_outcomes"] = incomparable
    return conclude(rid, dom, witnesses, inconclusive=inconclusive,
                    instances=instances,
                    budget=budget.to_json() if budget else None, details=details)


def _not_a_subnorm(rid, dom, subnorm, budget, details) -> PropertyReport:
    """The report of a fuzzified property whose map fails the t-subnorm
    check it is stated for: VACUOUS, tagged NOT_A_SUBNORM, carrying the
    check's violations."""
    return PropertyReport(rid, Verdict.VACUOUS, dom,
                          witnesses=list(subnorm.witnesses),
                          budget=budget.to_json() if budget else {},
                          tags=("NOT_A_SUBNORM",), details=details)


def _crisp(conn: Connective, domain, prop: FuzzyProp, mu, rid: str,
           budget: Optional[SearchBudget] = None) -> PropertyReport:
    """``prop`` at the fixed map ``mu`` on the unit interval, in the crisp
    report shape: a pair witness carries the operator's values at (x, y)
    and (x, z), a power witness its stationary power alone."""
    if conn.role is not Role.TNORM:
        raise DomainError(f"expected a t-norm, got {conn.name} ({conn.role.value})")
    # crisp strict monotonicity quantifies x = 1 too
    xs = domain.points[1:] if prop is FuzzyProp.FSTRICT else domain.interior
    rep = _fuzzy_property(UNIT_INTERVAL, conn, mu, domain.points, xs, ZERO,
                          prop, budget, rid, domain.to_json(),
                          {"operator": conn.name})
    rep.details.pop("excluded_incomparable_pairs", None)
    rep.details.pop("strong_form_violations", None)
    for i, w in enumerate(rep.witnesses):
        if budget:
            values = w.values[:1]
        else:
            x, y, z = w.inputs
            values = (conn(x, y), conn(x, z))
        rep.witnesses[i] = Witness(w.inputs, values)
    return rep


def check_strict_monotonicity(conn: Connective, domain) -> PropertyReport:
    """Strict increase in the second argument for every positive first
    argument: T(x, y) < T(x, z) whenever x > 0 and y < z. This is fuzzy
    strict monotonicity, stated in the reversed direction, at the
    complement map."""
    return _crisp(conn, domain, FuzzyProp.FSTRICT, MU_COMPLEMENT,
                  "strict-monotonicity")


def check_cancellation(conn: Connective, domain, conditional: bool = False) -> PropertyReport:
    """Cancellation law, plain or conditional: the fuzzy laws at the
    identity map.

    Plain: T(x, y) = T(x, z) forces x = 0 or y = z. Conditional: the
    same equation with a positive common value forces y = z.
    """
    if conditional:
        return _crisp(conn, domain, FuzzyProp.FCONDCANCEL, MU_ID,
                      "conditional-cancellation")
    return _crisp(conn, domain, FuzzyProp.FCANCEL, MU_ID, "cancellation")


def check_archimedean(conn: Connective, domain, budget: Optional[SearchBudget] = None) -> PropertyReport:
    """Existential power search: for interior x, y some power of x must
    drop strictly below y within the budget.

    A pair whose trajectory goes exactly stationary above the target
    provably fails; a pair still strictly decreasing at the cap is
    inconclusive.
    """
    return _crisp(conn, domain, FuzzyProp.FARCH, MU_ID, "archimedean",
                  budget or SearchBudget())


def check_limit_property(conn: Connective, domain, budget: Optional[SearchBudget] = None) -> PropertyReport:
    """Power trajectories of interior points must approach 0.

    An exactly stationary trajectory decides its point: it converges when
    it is stationary at 0 and fails otherwise. One still moving at the
    iteration cap converges when the next power drops strictly below
    epsilon and is inconclusive otherwise. ``convergence`` records, per
    converging point, the first exponent whose power is below epsilon.
    """
    return _crisp(conn, domain, FuzzyProp.FLIMIT, MU_ID, "limit-property",
                  budget or SearchBudget())


def classify_uninorm(conn: Connective, domain) -> PropertyReport:
    """Boundary flags plus min/max behavior on the mixed region.

    The verdict reflects the one checkable inequality (values on the
    mixed region bounded between min and max); the classification flags
    live in the details.
    """
    if conn.role not in (Role.UNINORM, Role.TNORM, Role.TCONORM):
        raise DomainError(f"classify expects a uninorm-like operator, got {conn.name}")
    pts = domain.points
    v10 = conn(ONE, ZERO)
    conjunctive = v10 == ZERO
    disjunctive = v10 == ONE
    locally_internal = None
    if conjunctive or disjunctive:  # locally internal: U(a, x) is a or x
        a = ONE if conjunctive else ZERO
        locally_internal = all(conn(a, x) in (a, x) for x in pts)
    idempotent = all(conn(x, x) == x for x in pts)

    e = conn.identity
    if e is None:
        e = _search_identity(conn, pts)
    witnesses = []
    behavior_min = behavior_max = True
    mixed_pairs = 0
    if e is not None:
        # the points are sorted and distinct: the mixed region pairs the
        # points below e with those above it, in both orders
        below, above = pts[:bisect_left(pts, e)], pts[bisect_right(pts, e):]
        mixed_pairs = 2 * len(below) * len(above)
        for x, y in itertools.chain(itertools.product(below, above),
                                    itertools.product(above, below)):
            lo, hi = (x, y) if x <= y else (y, x)
            v = conn(x, y)
            if not lo <= v <= hi:
                witnesses.append(Witness((x, y), (v,)))
            behavior_min &= v == lo
            behavior_max &= v == hi
    if mixed_pairs == 0:
        mixed = "empty"
    elif behavior_min and not behavior_max:
        mixed = "min"
    elif behavior_max and not behavior_min:
        mixed = "max"
    else:
        mixed = "mixed"
    details = {
        "operator": conn.name,
        "conjunctive": conjunctive,
        "disjunctive": disjunctive,
        "locally_internal_on_boundary": locally_internal,
        "idempotent_diagonal": idempotent,
        "mixed_region": mixed,
        "identity": None if e is None else format_scalar(e),
    }
    return conclude("uninorm-classification", domain.to_json(), witnesses,
                    instances=max(mixed_pairs, 1), details=details)
