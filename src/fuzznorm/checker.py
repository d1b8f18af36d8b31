"""Axiom suites and classical operator properties over exact grids.

All quantifiers run exhaustively over the supplied domain. Verdicts
are domain-qualified; a FAILS report always carries witnesses that
re-evaluate to violations of the defining inequality. Strict
comparisons in float mode can be undecidable within tolerance, in
which case the affected instances are reported VACUOUS.
"""

from __future__ import annotations

from typing import Optional

from . import kernel
from .connectives import Connective, Role
from .errors import DomainError
from .reports import (GridDomain, PropertyReport, SearchBudget, Verdict,
                      Witness, combine, conclude)
from .scalars import (FLOAT_TOL, ONE, ZERO, eq3, eq_approx, format_scalar,
                      le3, lt3)


def _check_eq_binary(conn, pairs, property_id, domain):
    """Equality axiom over explicit (x, y, lhs, rhs) quadruples."""
    witnesses, undecided = [], 0
    count = 0
    for x, y, lhs, rhs in pairs:
        count += 1
        r = eq3(lhs, rhs)
        if r is None:
            undecided += 1
        elif not r:
            witnesses.append(Witness((x, y), (lhs, rhs)))
    return conclude(property_id, domain, witnesses, undecided, instances=count)


def _commutativity(conn, pts, property_id, domain, kern=None):
    if kern is not None:
        table, vals = kern.table, kern.vals
        witnesses = []
        for i, x in enumerate(pts):
            row = table[i]
            for j in range(i + 1, len(pts)):
                if row[j] != table[j][i]:
                    witnesses.append(Witness((x, pts[j]),
                                             (vals[row[j]], vals[table[j][i]])))
        return conclude(property_id, domain, witnesses, 0,
                        instances=len(pts) * (len(pts) - 1) // 2)
    quads = []
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            quads.append((x, y, conn(x, y), conn(y, x)))
    return _check_eq_binary(conn, quads, property_id, domain)


def _associativity(conn, pts, property_id, domain, kern=None):
    if kern is not None:
        n = len(pts)
        table, vals = kern.table, kern.vals
        witnesses = []
        for i, x in enumerate(pts):
            row_x = table[i]
            for j, y in enumerate(pts):
                lhs_row = kern.row(row_x[j])
                row_y = table[j]
                for k in range(n):
                    yz = row_y[k]
                    rhs = row_x[yz] if yz < n else kern.col(yz)[i]
                    if lhs_row[k] != rhs:
                        witnesses.append(Witness((x, y, pts[k]),
                                                 (vals[lhs_row[k]], vals[rhs])))
        return conclude(property_id, domain, witnesses, 0, instances=n ** 3)
    witnesses, undecided = [], 0
    for x in pts:
        for y in pts:
            xy = conn(x, y)
            for z in pts:
                lhs = conn(xy, z)
                rhs = conn(x, conn(y, z))
                r = eq3(lhs, rhs)
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((x, y, z), (lhs, rhs)))
    return conclude(property_id, domain, witnesses, undecided,
                    instances=len(pts) ** 3)


def _monotonicity(conn, pts, property_id, domain, kern=None):
    if kern is not None:
        n = len(pts)
        table, vals, rank = kern.table, kern.vals, kern.rank
        ranked = [[rank[v] for v in row] for row in table]
        witnesses = []
        for a, x in enumerate(pts):
            row_x, ranked_x = table[a], ranked[a]
            for b, y in enumerate(pts):
                vy, wy = ranked_x[b], ranked[b][a]
                for c in range(b + 1, n):
                    if vy > ranked_x[c]:
                        witnesses.append(Witness((x, y, pts[c]),
                                                 (vals[row_x[b]], vals[row_x[c]])))
                    if wy > ranked[c][a]:
                        witnesses.append(Witness((y, pts[c], x),
                                                 (vals[table[b][a]], vals[table[c][a]])))
        return conclude(property_id, domain, witnesses, 0, instances=1)
    witnesses, undecided = [], 0
    for x in pts:
        for i, y in enumerate(pts):
            vy = conn(x, y)
            wy = conn(y, x)
            for z in pts[i + 1:]:
                r = le3(vy, conn(x, z))
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((x, y, z), (vy, conn(x, z))))
                r = le3(wy, conn(z, x))
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((y, z, x), (wy, conn(z, x))))
    return conclude(property_id, domain, witnesses, undecided, instances=1)


def _identity_axiom(conn, pts, e, property_id, domain, kern=None):
    if kern is not None:
        k = kern.intern(e)
        right, left, vals = kern.col(k), kern.row(k), kern.vals
        witnesses = []
        for i, x in enumerate(pts):
            if right[i] != i:
                witnesses.append(Witness((x, e), (vals[right[i]], x)))
            if left[i] != i:
                witnesses.append(Witness((e, x), (vals[left[i]], x)))
        return conclude(property_id, domain, witnesses, 0, instances=2 * len(pts))
    quads = []
    for x in pts:
        quads.append((x, e, conn(x, e), x))
        quads.append((e, x, conn(e, x), x))
    return _check_eq_binary(conn, quads, property_id, domain)


def _uninorm_identity(conn, pts, property_id, domain, kern=None):
    if conn.identity is not None:
        rep = _identity_axiom(conn, pts, conn.identity, property_id, domain, kern)
        rep.details["identity"] = format_scalar(conn.identity)
        return rep
    # no declared identity: search the grid for one
    for j, e in enumerate(pts):
        if kern is not None:
            found = all(row[j] == i for i, row in enumerate(kern.table))
        else:
            found = all(eq_approx(conn(x, e), x) for x in pts)
        if found:
            return PropertyReport(property_id, Verdict.HOLDS, domain,
                                  details={"identity": format_scalar(e),
                                           "identity_searched": True})
    return PropertyReport(property_id, Verdict.FAILS, domain,
                          witnesses=[Witness(("no-identity-element",), ())],
                          details={"identity": None, "identity_searched": True})


def _nullnorm_absorber(conn, pts, property_id, domain, kern=None):
    k = conn.absorber if conn.absorber is not None else conn(ZERO, ONE)
    witnesses, undecided = [], 0
    if kern is not None:
        kid = kern.intern(k)
        at_k, vals = kern.row(kid), kern.vals
        at_0, at_1 = kern.row(kern.intern(ZERO)), kern.row(kern.intern(ONE))
        for i, x in enumerate(pts):
            if at_k[i] != kid:
                witnesses.append(Witness((k, x), (vals[at_k[i]], k)))
            if x <= k and at_0[i] != i:
                witnesses.append(Witness((ZERO, x), (vals[at_0[i]], x)))
            if x >= k and at_1[i] != i:
                witnesses.append(Witness((ONE, x), (vals[at_1[i]], x)))
    else:
        for x in pts:
            r = eq3(conn(k, x), k)
            if r is None:
                undecided += 1
            elif not r:
                witnesses.append(Witness((k, x), (conn(k, x), k)))
            if x <= k:
                r = eq3(conn(ZERO, x), x)
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((ZERO, x), (conn(ZERO, x), x)))
            if x >= k:
                r = eq3(conn(ONE, x), x)
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((ONE, x), (conn(ONE, x), x)))
    rep = conclude(property_id, domain, witnesses, undecided, instances=1)
    rep.details["absorber"] = format_scalar(k)
    return rep


def _aggregation_axioms(conn, pts, domain):
    """Monotonicity plus the two boundary values, at arities 2 and 3."""
    witnesses, undecided = [], 0
    for arity in (2, 3):
        zeros = (ZERO,) * arity
        ones = (ONE,) * arity
        for args, expected in ((zeros, ZERO), (ones, ONE)):
            r = eq3(conn(*args), expected)
            if r is None:
                undecided += 1
            elif not r:
                witnesses.append(Witness(args, (conn(*args), expected)))
    boundary = conclude("A2:boundary", domain, witnesses, undecided, instances=1)
    witnesses, undecided = [], 0
    for x in pts:
        for i, y in enumerate(pts):
            v = conn(x, y)
            for z in pts[i + 1:]:
                r = le3(v, conn(x, z))
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((x, y, z), (v, conn(x, z))))
    mono = conclude("A1:monotonicity", domain, witnesses, undecided, instances=1)
    return [mono, boundary]


_AXIOM_PREFIX = {Role.TNORM: "T", Role.TCONORM: "S",
                 Role.UNINORM: "U", Role.NULLNORM: "F"}


def _role_axioms(conn, pts, dom, kern):
    role = conn.role
    p = _AXIOM_PREFIX[role]
    children = [
        _commutativity(conn, pts, f"{p}1:commutativity", dom, kern),
        _associativity(conn, pts, f"{p}2:associativity", dom, kern),
        _monotonicity(conn, pts, f"{p}3:monotonicity", dom, kern),
    ]
    if role is Role.TNORM:
        children.append(_identity_axiom(conn, pts, ONE, f"{p}4:boundary", dom, kern))
    elif role is Role.TCONORM:
        children.append(_identity_axiom(conn, pts, ZERO, f"{p}4:boundary", dom, kern))
    elif role is Role.UNINORM:
        children.append(_uninorm_identity(conn, pts, f"{p}4:identity", dom, kern))
    else:
        children.append(_nullnorm_absorber(conn, pts, f"{p}4:absorbing", dom, kern))
    return children


def check_axioms(conn: Connective, domain: GridDomain) -> PropertyReport:
    """Per-axiom verdicts for the operator's declared role.

    Associativity runs over every triple of domain points; intermediate
    values may leave the grid, which is fine because evaluation stays
    exact for rational-valued operators. Exact operators run on one
    value-id table compiled up front; float-valued ones, including one
    that turns float off the grid, run on the tolerance path.
    """
    pts = domain.points
    dom = domain.to_json()
    role = conn.role
    if role is Role.AGGREGATION:
        children = _aggregation_axioms(conn, pts, dom)
    else:
        try:
            children = _role_axioms(conn, pts, dom,
                                    kernel.compile_operator(conn, pts))
        except kernel.NotCompilable:
            children = _role_axioms(conn, pts, dom, None)
    return combine(f"axioms:{role.value}", children, dom,
                   details={"operator": conn.name})


def _require_tnorm(conn: Connective) -> None:
    if conn.role is not Role.TNORM:
        raise DomainError(f"expected a t-norm, got {conn.name} ({conn.role.value})")


def check_strict_monotonicity(conn: Connective, domain) -> PropertyReport:
    """Strict increase in the second argument for every positive first
    argument: T(x, y) < T(x, z) whenever x > 0 and y < z."""
    _require_tnorm(conn)
    pts = domain.points
    witnesses, undecided = [], 0
    instances = 0
    kern = kernel.compile_operator(conn, pts)
    for a, x in enumerate(pts):
        if x == 0:
            continue
        if kern is not None:
            instances += len(pts) * (len(pts) - 1) // 2
            row, vals, rank = kern.table[a], kern.vals, kern.rank
            for b, y in enumerate(pts):
                vy = rank[row[b]]
                for c in range(b + 1, len(pts)):
                    if not vy < rank[row[c]]:
                        witnesses.append(Witness((x, y, pts[c]),
                                                 (vals[row[b]], vals[row[c]])))
            continue
        for i, y in enumerate(pts):
            vy = conn(x, y)
            for z in pts[i + 1:]:
                instances += 1
                vz = conn(x, z)
                r = lt3(vy, vz)
                if r is None:
                    undecided += 1
                elif not r:
                    witnesses.append(Witness((x, y, z), (vy, vz)))
    return conclude("strict-monotonicity", domain.to_json(), witnesses, undecided,
                    instances=instances, details={"operator": conn.name})


def check_cancellation(conn: Connective, domain, conditional: bool = False) -> PropertyReport:
    """Cancellation law, plain or conditional.

    Plain: T(x, y) = T(x, z) forces x = 0 or y = z. Conditional: the
    same equation with a positive common value forces y = z.
    """
    _require_tnorm(conn)
    pts = domain.points
    witnesses, undecided = [], 0
    instances = 0
    kern = kernel.compile_operator(conn, pts)
    for a, x in enumerate(pts):
        if not conditional and x == 0:
            continue
        if kern is not None:
            instances += len(pts) * (len(pts) - 1) // 2
            row, vals = kern.table[a], kern.vals
            for b, y in enumerate(pts):
                vy = row[b]
                for c in range(b + 1, len(pts)):
                    if row[c] == vy and (not conditional or ZERO < vals[vy]):
                        witnesses.append(Witness((x, y, pts[c]), (vals[vy], vals[vy])))
            continue
        for i, y in enumerate(pts):
            vy = conn(x, y)
            for z in pts[i + 1:]:
                instances += 1
                vz = conn(x, z)
                if not eq_approx(vy, vz):
                    continue
                if conditional:
                    r = lt3(ZERO, vy)
                    if r is None:
                        undecided += 1
                    elif r:
                        witnesses.append(Witness((x, y, z), (vy, vz)))
                else:
                    witnesses.append(Witness((x, y, z), (vy, vz)))
    prop = "conditional-cancellation" if conditional else "cancellation"
    return conclude(prop, domain.to_json(), witnesses, undecided,
                    instances=instances, details={"operator": conn.name})


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
        if eq3(nxt, cur) is True:
            stationary = cur
            break
        cur = nxt
    return traj, stationary


def check_archimedean(conn: Connective, domain, budget: Optional[SearchBudget] = None) -> PropertyReport:
    """Existential power search: for interior x, y some power of x must
    drop strictly below y within the budget.

    A pair whose trajectory goes exactly stationary above the target
    provably fails; a pair still strictly decreasing at the cap is
    inconclusive.
    """
    _require_tnorm(conn)
    budget = budget or SearchBudget()
    interior = domain.interior
    witnesses, undecided = [], 0
    inconclusive = 0
    max_witness_n = 0
    for x in interior:
        # trajectory is independent of y; walk it once per x
        traj, stationary_at = _power_trajectory(conn, x, budget.n_max)
        for y in interior:
            target = y
            found = None
            for n, value in traj:
                r = lt3(value, target)
                if r is None:
                    undecided += 1
                    found = "undecided"
                    break
                if r:
                    found = n
                    break
            if found == "undecided":
                continue
            if found is not None:
                max_witness_n = max(max_witness_n, found)
                continue
            if stationary_at is not None:
                witnesses.append(Witness((x, y), (stationary_at,)))
            else:
                inconclusive += 1
    details = {"operator": conn.name}
    if max_witness_n:
        details["max_witness_n"] = max_witness_n
    if inconclusive:
        details["inconclusive_pairs"] = inconclusive
    return conclude("archimedean", domain.to_json(), witnesses, undecided,
                    inconclusive=inconclusive, instances=len(interior) ** 2,
                    budget=budget.to_json(), details=details)


def check_limit_property(conn: Connective, domain, budget: Optional[SearchBudget] = None) -> PropertyReport:
    """Power trajectories of interior points must approach 0.

    Convergence is declared on exact zero or on dropping strictly below
    epsilon; an exactly stationary positive trajectory fails; a still
    moving trajectory at the iteration cap is inconclusive.
    """
    _require_tnorm(conn)
    budget = budget or SearchBudget()
    witnesses = []
    inconclusive = 0
    convergence = {}
    for x in domain.interior:
        cur = x
        decided = False
        prev = None
        for n in range(1, budget.iter_cap + 1):
            # the threshold is a budget rule, so it compares plainly;
            # float-valued trajectories converge at the float tolerance
            eps = FLOAT_TOL if isinstance(cur, float) else budget.epsilon
            if cur < eps:
                convergence[format_scalar(x)] = n
                decided = True
                break
            if prev is not None and eq3(cur, prev) is True:
                witnesses.append(Witness((x,), (cur,)))
                decided = True
                break
            prev = cur
            cur = conn(cur, x)
        if not decided:
            inconclusive += 1
    details = {"operator": conn.name, "convergence": convergence}
    if inconclusive:
        details["inconclusive_points"] = inconclusive
    return conclude("limit-property", domain.to_json(), witnesses,
                    inconclusive=inconclusive, instances=len(domain.interior),
                    budget=budget.to_json(), details=details)


def _in_mixed_region(x, y, e) -> bool:
    lo, hi = (x, y) if x <= y else (y, x)
    return lo < e < hi


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
    conjunctive = eq_approx(v10, ZERO)
    disjunctive = eq_approx(v10, ONE)
    if conjunctive:
        locally_internal = all(eq_approx(conn(ONE, x), ONE) or eq_approx(conn(ONE, x), x)
                               for x in pts)
    elif disjunctive:
        locally_internal = all(eq_approx(conn(ZERO, x), ZERO) or eq_approx(conn(ZERO, x), x)
                               for x in pts)
    else:
        locally_internal = None
    idempotent = all(eq_approx(conn(x, x), x) for x in pts)

    e = conn.identity
    if e is None:
        for cand in pts:
            if all(eq_approx(conn(x, cand), x) for x in pts):
                e = cand
                break
    witnesses = []
    behavior_min = behavior_max = True
    mixed_pairs = 0
    if e is not None:
        for x in pts:
            for y in pts:
                if not _in_mixed_region(x, y, e):
                    continue
                mixed_pairs += 1
                v = conn(x, y)
                lo, hi = (x, y) if x <= y else (y, x)
                if not (le3(lo, v) is True and le3(v, hi) is True):
                    witnesses.append(Witness((x, y), (v,)))
                if not eq_approx(v, lo):
                    behavior_min = False
                if not eq_approx(v, hi):
                    behavior_max = False
    if mixed_pairs == 0:
        mixed = "empty"
    elif behavior_min and not behavior_max:
        mixed = "min"
    elif behavior_max and not behavior_min:
        mixed = "max"
    elif behavior_min and behavior_max:
        mixed = "degenerate"
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
    return conclude("uninorm-classification", domain.to_json(), witnesses, 0,
                    instances=max(mixed_pairs, 1), details=details)
