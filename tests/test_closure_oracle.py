"""The closure and identity conditions of the fuzzy substructures,
re-derived from their definitions (Rosenfeld, "Fuzzy groups", J. Math.
Anal. Appl. 35, 1971).

A map mu is closed under the carrier operation o when the combined
memberships of any tuple never exceed the membership of its product:
min(mu x, mu y) <= mu(x o y) for the min-based kinds, A(mu x1, .., mu xn)
<= mu(x1 o .. o xn) for each arity 2..cap of an aggregation kind, and
U(mu x, mu y) or F(mu x, mu y) in place of min for the uninorm and the
nullnorm kinds. A submonoid also gives the carrier identity full
membership. Both conditions, the operators and the combiners are
written out again here in plain loops over ``itertools``, with ``<=``
and ``min`` on values, and no closure core of ``fuzznorm.subsets`` or
``fuzznorm.fuzzy`` is imported. Each check must then FAIL exactly when
its condition has a violation here, with those violations as its
witnesses, each carrying the two sides it violates with.

The inputs: every kind, on every table map of the alphabet
{0, 1/4, 1/2, 3/4, 1}, over the closed 3-point carriers of the builtin
t-norms and t-conorms that keep {0, 1/2, 1}.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from fuzznorm.carriers import CarrierMonoid
from fuzznorm.connectives import (A_MIN, S_D, S_L, S_M, S_P, T_D, T_L, T_M,
                                  T_P, construct_nullnorm,
                                  construct_uninorm_min)
from fuzznorm.fuzzy import (KIND_SUBMONOID, KIND_T_SUBCONORM, KIND_T_SUBNORM,
                            a_submonoid_kind, check_fuzzy_subgroupoid,
                            check_fuzzy_submonoid, f_submonoid_kind,
                            u_submonoid_kind)
from fuzznorm.reports import FinitePoints, Verdict
from fuzznorm.subsets import enumerate_table_subsets

F = Fraction
HALF = F(1, 2)
POINTS = (F(0), HALF, F(1))
ALPHABET = (F(0), F(1, 4), HALF, F(3, 4), F(1))


def drastic_t(x, y):
    return y if x == 1 else x if y == 1 else 0


def drastic_s(x, y):
    return y if x == 0 else x if y == 0 else 1


# connective -> (the operation written out, its identity)
OPERATIONS = {
    T_M: (min, 1),
    T_L: (lambda x, y: max(0, x + y - 1), 1),
    T_D: (drastic_t, 1),
    S_M: (max, 0),
    S_L: (lambda x, y: min(1, x + y), 0),
    S_D: (drastic_s, 0),
}


def umin(x, y, e=HALF):
    """The uninorm with identity e: the product below e, the
    probabilistic sum above e, min on the mixed region."""
    if x <= e and y <= e:
        return e * (x / e) * (y / e)
    if x >= e and y >= e:
        a, b = (x - e) / (1 - e), (y - e) / (1 - e)
        return e + (1 - e) * (a + b - a * b)
    return min(x, y)


def nullnorm(x, y, k=HALF):
    """The nullnorm with absorber k: the Lukasiewicz t-conorm below k, the
    Lukasiewicz t-norm above k, k on the mixed region."""
    if x <= k and y <= k:
        return k * min(1, x / k + y / k)
    if x > k and y > k:
        return (1 - k) * max(0, (x - k) / (1 - k) + (y - k) / (1 - k) - 1) + k
    return k


def aggregate_min(*values):
    return min(values)


# kind id -> (the kind, or None for the subgroupoid check; the combiner
# written out; its arities; whether the identity must have full membership)
KINDS = {
    "subgroupoid": (None, aggregate_min, (2,), False),
    "submonoid": (KIND_SUBMONOID, aggregate_min, (2,), True),
    "t-subnorm": (KIND_T_SUBNORM, aggregate_min, (2,), True),
    "t-subconorm": (KIND_T_SUBCONORM, aggregate_min, (2,), True),
    "a-min-cap3": (a_submonoid_kind(A_MIN, 3), aggregate_min, (2, 3), True),
    "u-umin": (u_submonoid_kind(construct_uninorm_min(HALF, T_P, S_P)), umin,
               (2,), True),
    "f-lukasiewicz": (f_submonoid_kind(construct_nullnorm(S_L, HALF, T_L)),
                      nullnorm, (2,), True),
}


def oracle(mu: dict, op, identity, combine, arities, monoid) -> Counter:
    """The multiset of (inputs, values) violations of the closure
    condition for each arity, and of the identity condition when
    ``monoid``, for the map ``mu`` on the points under ``op``."""
    found = Counter()
    for arity in arities:
        for xs in product(POINTS, repeat=arity):
            acc = xs[0]
            for x in xs[1:]:
                acc = op(acc, x)
            lhs, rhs = combine(*[mu[x] for x in xs]), mu[acc]
            if not lhs <= rhs:
                found[(xs, (lhs, rhs))] += 1
    if monoid and mu[identity] != 1:
        found[((identity,), (mu[identity], 1))] += 1
    return found


def test_the_written_out_combiners_are_the_library_s():
    uninorm = construct_uninorm_min(HALF, T_P, S_P)
    null = construct_nullnorm(S_L, HALF, T_L)
    for x, y in product(ALPHABET, repeat=2):
        assert umin(x, y) == uninorm(x, y)
        assert nullnorm(x, y) == null(x, y)
    for conn, (op, identity) in OPERATIONS.items():
        assert identity == conn.identity
        assert all(op(x, y) == conn(x, y) for x, y in product(POINTS, repeat=2))


@pytest.mark.parametrize("kind_id", list(KINDS))
def test_closure_checks_match_the_definition(kind_id):
    kind, combine, arities, monoid = KINDS[kind_id]
    verdicts = Counter()
    for conn, (op, identity) in OPERATIONS.items():
        carrier = CarrierMonoid.from_connective(conn, FinitePoints(POINTS))
        assert carrier.table.closed
        maps = enumerate_table_subsets(POINTS, ALPHABET)
        for values, mu in zip(product(ALPHABET, repeat=3), maps, strict=True):
            assert [mu(x) for x in POINTS] == list(values)
            want = oracle(dict(zip(POINTS, values)), op, identity, combine,
                          arities, monoid)
            rep = (check_fuzzy_subgroupoid(mu, carrier) if kind is None
                   else check_fuzzy_submonoid(mu, carrier, kind))
            assert rep.verdict is (Verdict.FAILS if want else Verdict.HOLDS), \
                (conn.name, mu.name)
            got = Counter((w.inputs, w.values) for w in rep.witnesses)
            assert got == want, (conn.name, mu.name)
            verdicts[rep.verdict] += 1
    # every kind meets maps on both sides of its condition
    assert verdicts[Verdict.HOLDS] and verdicts[Verdict.FAILS], verdicts
