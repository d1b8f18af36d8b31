"""Fuzzy substructure checks over carrier monoids.

Covers the min-based subgroupoid/submonoid/subgroup conditions, the
five fuzzified operator properties on the unit interval (gated on the
t-subnorm check; the implementation, shared with the lattice layer and
the crisp checks, is ``checker._fuzzy_property``), and the generalized
submonoid conditions where the min combiner is replaced by an
aggregation function, a uninorm, or a nullnorm. Also houses the
characterization sweeps and the uninorm non-existence refutations.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import Callable, Optional, Sequence

from . import reports
from .carriers import CarrierMonoid, FiniteGroup
from .checker import (FuzzyProp, _fuzzy_property, _not_a_subnorm,
                      check_strict_monotonicity)
from .connectives import (S_M, T_M, Connective, Role, construct_uninorm_max,
                          construct_uninorm_min)
from .errors import BudgetExceededError, DomainError
from .reports import (PropertyReport, SearchBudget, Verdict, Witness,
                      collect, conclude)
from .scalars import ONE, UNIT_INTERVAL, ZERO, format_scalar
from .subsets import FuzzySubset, _closure_witnesses, _identity_witnesses


class SubstructureTag(Enum):
    SUBGROUPOID = "fuzzy-subgroupoid"
    SUBGROUP = "fuzzy-subgroup"
    SUBMONOID = "fuzzy-submonoid"
    T_SUBNORM = "fuzzy-t-subnorm"
    T_SUBCONORM = "fuzzy-t-subconorm"
    A_SUBMONOID = "a-fuzzy-submonoid"
    U_SUBMONOID = "u-fuzzy-submonoid"
    F_SUBMONOID = "f-fuzzy-submonoid"


_COMBINER_ROLE = {
    SubstructureTag.A_SUBMONOID: Role.AGGREGATION,
    SubstructureTag.U_SUBMONOID: Role.UNINORM,
    SubstructureTag.F_SUBMONOID: Role.NULLNORM,
}


class SubstructureKind:
    """Which inequality family to check and what replaces min.

    ``combiner`` stays None for the min-based kinds. The n-ary
    aggregation condition is checked for arities 2 up to ``arity_cap``,
    which must be at least 2.
    """

    def __init__(self, tag: SubstructureTag, combiner: Optional[Connective] = None,
                 arity_cap: int = 3):
        wanted = _COMBINER_ROLE.get(tag)
        if wanted is not None:
            if combiner is None or combiner.role is not wanted:
                raise DomainError(
                    f"{tag.value} needs a combiner of role {wanted.value}")
        elif combiner is not None:
            raise DomainError(f"{tag.value} uses the min combiner")
        if arity_cap < 2:
            raise DomainError(f"arity cap {arity_cap} is below 2")
        self.tag, self.combiner, self.arity_cap = tag, combiner, arity_cap


KIND_SUBGROUPOID = SubstructureKind(SubstructureTag.SUBGROUPOID)
KIND_SUBMONOID = SubstructureKind(SubstructureTag.SUBMONOID)
KIND_T_SUBNORM = SubstructureKind(SubstructureTag.T_SUBNORM)
KIND_T_SUBCONORM = SubstructureKind(SubstructureTag.T_SUBCONORM)


def a_submonoid_kind(agg: Connective, arity_cap: int = 3) -> SubstructureKind:
    return SubstructureKind(SubstructureTag.A_SUBMONOID, agg, arity_cap)


def u_submonoid_kind(uninorm: Connective) -> SubstructureKind:
    return SubstructureKind(SubstructureTag.U_SUBMONOID, uninorm)


def f_submonoid_kind(nullnorm: Connective) -> SubstructureKind:
    return SubstructureKind(SubstructureTag.F_SUBMONOID, nullnorm)


def _closure(mu, carrier, kind) -> tuple:
    """Violations of combiner(mu(x..)) <= mu(x o ..) over the kind's
    tuples (min combines for the min-based kinds), and the tuple count.
    An aggregation kind whose tuples exceed ``reports.MAX_TUPLES`` is
    refused before the loop, its count summed only until it passes the
    budget."""
    n = len(carrier.elements)
    arities, count = (2,), n ** 2
    if kind.tag is SubstructureTag.A_SUBMONOID:
        arities, count = range(2, kind.arity_cap + 1), 0
        for a in arities:
            count += n ** a
            if count > reports.MAX_TUPLES:
                raise BudgetExceededError(
                    f"{kind.tag.value} up to arity {kind.arity_cap} needs "
                    f"more than {reports.MAX_TUPLES} tuples on a carrier of "
                    f"size {n}", size_estimate=count)
    witnesses = _closure_witnesses(mu, carrier.elements, carrier.op,
                                   kind.combiner or UNIT_INTERVAL.meet,
                                   UNIT_INTERVAL.leq, arities, carrier.table)
    return witnesses, count


def check_fuzzy_subgroupoid(mu: FuzzySubset, carrier: CarrierMonoid) -> PropertyReport:
    """Closure under the carrier operation: min of the memberships never
    exceeds the membership of the product."""
    witnesses, instances = _closure(mu, carrier, KIND_SUBGROUPOID)
    return conclude(SubstructureTag.SUBGROUPOID.value, carrier.to_json(),
                    witnesses, instances=instances, details={"mu": mu.name})


def check_fuzzy_submonoid(mu: FuzzySubset, carrier: CarrierMonoid,
                          kind: SubstructureKind = KIND_SUBMONOID) -> PropertyReport:
    """Closure condition for the kind's combiner plus full membership at
    the carrier identity."""
    closure, instances = _closure(mu, carrier, kind)
    missed = _identity_witnesses(mu, carrier.identity, ONE)
    witnesses = collect(chain(closure, missed))
    details = {"mu": mu.name, "identity_condition": not missed}
    if kind.combiner is not None:
        details["combiner"] = kind.combiner.name
    return conclude(kind.tag.value, carrier.to_json(), witnesses,
                    instances=instances + 1, details=details)


def check_fuzzy_subgroup(mu: FuzzySubset, group: FiniteGroup) -> PropertyReport:
    """Subgroupoid closure plus the inverse condition mu(x^-1) >= mu(x)."""
    witnesses, instances = _closure(mu, group.monoid, KIND_SUBGROUPOID)
    for a in group.elements:
        va = mu(a)
        vi = mu(group.inverse[a])
        if not va <= vi:
            witnesses.append(Witness((a, group.inverse[a]), (va, vi)))
    return conclude(SubstructureTag.SUBGROUP.value, group.to_json(),
                    witnesses, instances=instances + len(group.elements),
                    details={"mu": mu.name})


def check_fuzzy_property(mu: FuzzySubset, conn: Connective, prop: FuzzyProp,
                         domain, budget: Optional[SearchBudget] = None,
                         gate: bool = True) -> PropertyReport:
    """One of the five fuzzified operator properties.

    The properties are stated for subsets that pass the t-subnorm check
    first; anything else gets a VACUOUS report tagged NOT_A_SUBNORM
    carrying the subnorm violations (``gate=False`` evaluates the bare
    quantified statement instead). A constant map has no value strictly
    below another, so its Archimedean report is VACUOUS-BY-CONSTANCY.
    """
    budget = budget or SearchBudget()
    details = {"mu": mu.name, "operator": conn.name}
    if gate:
        carrier = CarrierMonoid.from_connective(conn, domain)
        subnorm = check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM)
        if not subnorm.holds:
            return _not_a_subnorm(prop.value, domain.to_json(), subnorm,
                                  budget, details)
    pts = domain.points
    if prop is FuzzyProp.FARCH and len({mu(p) for p in pts}) == 1:
        return PropertyReport(prop.value, Verdict.VACUOUS, domain.to_json(),
                              budget=budget.to_json(),
                              tags=("VACUOUS-BY-CONSTANCY",), details=details)
    # ZERO, not UNIT_INTERVAL's int bottom: mu(ZERO) is a limit witness value
    return _fuzzy_property(UNIT_INTERVAL, conn, mu, pts, domain.interior, ZERO,
                           prop, budget, prop.value, domain.to_json(), details)


def check_not_strictly_decreasing(mu: FuzzySubset, conn: Connective,
                                  domain) -> PropertyReport:
    """Strictly monotone operators admit no strictly decreasing
    membership map among their t-subnorms.

    When both premises hold, the report carries a supporting pair
    x < y with mu(x) <= mu(y); a strictly decreasing subnorm under a
    strictly monotone operator would be a counterexample and FAILS.
    """
    dom = domain.to_json()
    details = {"mu": mu.name, "operator": conn.name}
    strict = check_strict_monotonicity(conn, domain)
    details["operator_strictly_monotone"] = strict.holds
    if not strict.holds:
        return PropertyReport("not-strictly-decreasing", Verdict.VACUOUS, dom,
                              tags=("premise-not-strict",), details=details)
    carrier = CarrierMonoid.from_connective(conn, domain)
    gate = check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM)
    details["mu_is_subnorm"] = gate.holds
    if not gate.holds:
        return PropertyReport("not-strictly-decreasing", Verdict.VACUOUS, dom,
                              witnesses=list(gate.witnesses),
                              tags=("premise-not-subnorm",), details=details)
    # the first pair x < y with mu(x) <= mu(y), else the end points
    pts = domain.points
    pair = next(((x, y) for i, x in enumerate(pts) for y in pts[i + 1:]
                 if mu(x) <= mu(y)), None)
    x, y = pair or (pts[0], pts[-1])
    return PropertyReport("not-strictly-decreasing",
                          Verdict.HOLDS if pair else Verdict.FAILS, dom,
                          witnesses=[Witness((x, y), (mu(x), mu(y)))],
                          details=details)


def extract_core(mu: FuzzySubset, carrier: CarrierMonoid) -> tuple:
    """Elements with full membership, in carrier order."""
    return tuple(x for x in carrier.elements if mu(x) == ONE)


def core_is_submonoid(core: tuple, carrier: CarrierMonoid) -> bool:
    members = set(core)
    if carrier.identity not in members:
        return False
    return all(carrier.op(x, y) in members for x in core for y in core)


def check_discrete_subalgebra(points: Sequence, conn: Connective) -> PropertyReport:
    """HOLDS iff the point set is closed under the operator."""
    pts = tuple(points)
    if ZERO not in pts or ONE not in pts:
        raise DomainError("a discrete subalgebra must contain 0 and 1")
    members = set(pts)
    witnesses = [Witness((x, y), (v,)) for x in pts for y in pts
                 if (v := conn(x, y)) not in members]
    dom = {"kind": "finite", "size": len(pts),
           "points": [format_scalar(p) for p in pts]}
    return conclude("discrete-subalgebra", dom, witnesses,
                    instances=len(pts) ** 2, details={"operator": conn.name})


# --- characterization sweeps ---

def _validate_min_aggregation(conn, domain):
    pts = domain.points
    if any(conn(x, y) != min(x, y) for x in pts for y in pts):
        raise DomainError("aggregation operator is not min")


def _validate_disjunctive(conn, domain):
    if conn(ZERO, ONE) != ONE:
        raise DomainError("this case needs a disjunctive uninorm")


def _validate_prop20_shape(conn, domain):
    e = conn.identity
    if e is None or not (0 < e < 1):
        raise DomainError("this case needs a uninorm with interior identity")
    for x in domain.points:
        for y in domain.points:
            if x >= e and y >= e:
                if conn(x, y) != max(x, y):
                    raise DomainError("upper square must act as max")
            elif min(x, y) < e < max(x, y):
                if conn(x, y) != min(x, y):
                    raise DomainError("mixed region must act as min")


def _absorber(conn):
    return conn.absorber if conn.absorber is not None else conn(ZERO, ONE)


def _validate_fm_shape(conn, domain):
    k, pts = _absorber(conn), domain.points
    if any(conn(x, y) != min(x, y) for x in pts for y in pts
           if x >= k and y >= k):
        raise DomainError("upper square must act as min")


# closed-form right sides: (mu, operator, carrier) -> bool

def _full_at(p):
    return lambda mu, conn, carrier: mu(p) == ONE


def _all_full(mu, conn, carrier):
    return all(mu(x) == ONE for x in carrier.elements)


def _above_absorber(mu, conn, carrier):
    k = _absorber(conn)
    return all(k <= mu(x) for x in carrier.elements)


def _rhs_prop25(p):
    full = _full_at(p)
    return lambda *on: full(*on) and _above_absorber(*on)


def _rhs_prop20(mu, conn, carrier):
    e = conn.identity
    if mu(ONE) != ONE:
        return False
    region = [x for x in carrier.elements if e <= mu(x)]
    return all(mu(y) <= mu(x)  # non-increasing on the region
               for i, x in enumerate(region) for y in region[i + 1:])


def _core_closed(mu, conn, carrier):
    return core_is_submonoid(extract_core(mu, carrier), carrier)


# case id -> (shape check, submonoid kind of the operator, carrier
# operator, closed-form right side, relation). The kind refuses an
# operator of another role, so a shape check sees only the kind's role,
# and the core cases and prop24 need none.
_CASES = {
    "prop16": (None, a_submonoid_kind, T_M, _core_closed, "implies"),
    "prop17": (_validate_min_aggregation, a_submonoid_kind, T_M, _full_at(ONE), "iff"),
    "prop18": (_validate_min_aggregation, a_submonoid_kind, S_M, _full_at(ZERO), "iff"),
    "prop19": (None, u_submonoid_kind, T_M, _core_closed, "implies"),
    "disjunctive-uninorm": (_validate_disjunctive, u_submonoid_kind, T_M,
                            _all_full, "iff"),
    "prop20": (_validate_prop20_shape, u_submonoid_kind, T_M, _rhs_prop20, "iff"),
    "prop23": (None, f_submonoid_kind, T_M, _core_closed, "implies"),
    "prop24": (None, f_submonoid_kind, T_M, _above_absorber, "implies"),
    "prop25-tnorm": (_validate_fm_shape, f_submonoid_kind, T_M,
                     _rhs_prop25(ONE), "iff"),
    "prop25-tconorm": (_validate_fm_shape, f_submonoid_kind, S_M,
                       _rhs_prop25(ZERO), "iff"),
}


def case_checker(case_id: str, conn: Connective, domain) -> Callable:
    """The named characterization for the operator ``conn`` as a function
    of the membership map, on the case's carrier over ``domain``. ``conn``
    is validated for the case once, here: its submonoid kind, then the
    case's shape check. Each call evaluates both sides independently: the
    left side runs the relevant submonoid check, the right side is the
    closed-form condition. Disagreement on an iff case (or a broken
    implication) is a red-flag FAILS naming the side at fault.
    """
    if case_id not in _CASES:
        raise DomainError(f"unknown characterization case: {case_id!r}")
    check, kind_of, carrier_conn, closed_form, relation = _CASES[case_id]
    kind = kind_of(conn)
    if check is not None:
        check(conn, domain)
    carrier = CarrierMonoid.from_connective(carrier_conn, domain)

    def characterize(mu: FuzzySubset) -> PropertyReport:
        lhs = check_fuzzy_submonoid(mu, carrier, kind).holds
        rhs = closed_form(mu, conn, carrier)
        details = {
            "case": case_id, "mu": mu.name, "operator": conn.name,
            "lhs_submonoid_check": lhs, "rhs_closed_form": rhs,
            "relation": relation,
        }
        witnesses = []
        if not (lhs == rhs if relation == "iff" else not lhs or rhs):
            details["failed_side"] = "rhs" if lhs else "lhs"
            witnesses.append(Witness((mu.name,), ()))
        return conclude(f"characterization:{case_id}", carrier.to_json(),
                        witnesses, details=details)
    return characterize


def characterize_special_cases(case_id: str, mu: FuzzySubset, conn: Connective,
                               domain) -> PropertyReport:
    """``case_checker(case_id, conn, domain)`` on one map."""
    return case_checker(case_id, conn, domain)(mu)


# --- uninorm non-existence refutations ---

def uninorm_family(es: Sequence, tnorms: Sequence[Connective],
                   scnorms: Sequence[Connective]) -> list:
    """Both parametric families over the given parameter grids, in a
    deterministic order."""
    return [build(e, t, s)
            for build in (construct_uninorm_min, construct_uninorm_max)
            for e in es for t in tnorms for s in scnorms]


def refute_uninorm_existence(mu: FuzzySubset, carrier_conn: Connective,
                             family: Sequence[Connective], domain) -> PropertyReport:
    """Confirm that no family member admits ``mu`` as a U-fuzzy
    submonoid of the carrier, re-deriving the boundary witness pair
    (identity against a larger point, or its mirror for disjunction
    carriers) whenever that pair is itself a violation.
    """
    if carrier_conn.role not in (Role.TNORM, Role.TCONORM):
        raise DomainError("the carrier must be a t-norm or t-conorm")
    carrier = CarrierMonoid.from_connective(carrier_conn, domain)
    pts = domain.points
    witnesses = []
    member_verdicts = {}
    for member in family:
        rep = check_fuzzy_submonoid(mu, carrier, u_submonoid_kind(member))
        member_verdicts[member.name] = rep.verdict.value
        if rep.holds:
            continue
        e = member.identity
        if carrier_conn.role is Role.TNORM:
            candidates = [(e, y) for y in pts if y > e]
        else:
            candidates = [(1 - e, y) for y in pts if y < 1 - e]
        for x, y in candidates:
            lhs = member(mu(x), mu(y))
            rhs = mu(carrier_conn(x, y))
            if not lhs <= rhs:
                witnesses.append(Witness((member.name, x, y), (lhs, rhs)))
                break
    passing = [name for name, v in member_verdicts.items()
               if v == Verdict.HOLDS.value]
    details = {"mu": mu.name, "carrier": carrier_conn.name,
               "members": member_verdicts}
    if passing:
        return PropertyReport("uninorm-refutation", Verdict.FAILS,
                              domain.to_json(),
                              witnesses=[Witness((name,), ()) for name in passing],
                              details=details)
    return PropertyReport("uninorm-refutation", Verdict.HOLDS, domain.to_json(),
                          witnesses=witnesses, details=details)
