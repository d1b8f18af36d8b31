"""The witnesses of the equality and vague conditions, re-derived from the
definitions (Demirci, "Vague groups", J. Math. Anal. Appl. 230, 1999).

Hypothesis draws degree tables on 2- and 3-point carriers, with degrees
in {0, 1/2, 1}, under the four builtin t-norms. Each condition below is
written out again in plain loops over ``itertools.product``, and no
core of ``fuzznorm.vague`` is imported. For E2, E3, V1, V2, the monoid,
commutativity and group cancellation, a report FAILS exactly when its
condition has a violation here, and its witnesses are those violations,
each carrying the two sides it violates with.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzznorm.carriers import cyclic_group
from fuzznorm.connectives import T_D, T_L, T_M, T_P
from fuzznorm.reports import Verdict
from fuzznorm.vague import (check_vague_binary_op,
                            check_vague_commutativity,
                            check_vague_group_cancellation, check_vague_monoid,
                            make_fuzzy_equality, vague_op_from_table)

F = Fraction
ONE = F(1)
DEGREES = st.sampled_from((F(0), F(1, 2), ONE))
TNORMS = st.sampled_from((T_M, T_P, T_L, T_D))
ORACLE = settings(max_examples=120, deadline=None, derandomize=True,
                  database=None)


def equality_tables(carrier):
    """Any degree table on pairs, or a reflexive and symmetric one."""
    pairs = list(product(carrier, repeat=2))

    def symmetric(degrees):
        table = dict(zip(pairs, degrees))
        for x, y in pairs:
            table[(x, y)] = ONE if x == y else table[min((x, y), (y, x))]
        return table

    tables = st.lists(DEGREES, min_size=len(pairs), max_size=len(pairs))
    return tables.map(lambda ds: dict(zip(pairs, ds))) | tables.map(symmetric)


@st.composite
def vague_cases(draw):
    """(t-norm, carrier, equality table, degree table). The degree table
    is either drawn freely or induced by a drawn operation on the carrier,
    so that the monoid check gets past its vague-operation gate."""
    carrier = draw(st.sampled_from([(F(0), ONE), (F(0), F(1, 2), ONE)]))
    e = draw(equality_tables(carrier))
    triples = list(product(carrier, repeat=3))
    if draw(st.booleans()):
        mu = dict(zip(triples, draw(st.lists(
            DEGREES, min_size=len(triples), max_size=len(triples)))))
    else:
        op = {p: draw(st.sampled_from(carrier))
              for p in product(carrier, repeat=2)}
        mu = {(x, y, z): e[(op[(x, y)], z)] for x, y, z in triples}
    return draw(TNORMS), carrier, e, mu


def violations(tuples, sides):
    """Every tuple whose sides (lhs, rhs) have lhs > rhs, with its sides."""
    found = Counter()
    for tup in tuples:
        lhs, rhs = sides(*tup)
        if lhs > rhs:
            found[(tup, (lhs, rhs))] += 1
    return found


def assert_witnesses(report, expected):
    got = Counter((w.inputs, tuple(w.values)) for w in report.witnesses)
    assert got == expected
    assert (report.verdict is Verdict.FAILS) == bool(expected)


@ORACLE
@given(vague_cases())
def test_equality_witnesses_are_violations(case):
    t, carrier, e, _ = case
    rep = make_fuzzy_equality("drawn", lambda a, b: e[(a, b)], t,
                              carrier).report
    n = len(carrier)
    upper = [(carrier[i], carrier[j]) for i in range(n) for j in range(i + 1, n)]
    # symmetry: the two degrees differ, whichever is larger
    assert_witnesses(rep.child("E2:symmetry"), Counter(
        {((x, y), (e[(x, y)], e[(y, x)])): 1 for x, y in upper
         if e[(x, y)] != e[(y, x)]}))
    assert_witnesses(rep.child("E3:transitivity"), violations(
        product(carrier, repeat=3),
        lambda x, y, z: (t(e[(x, y)], e[(y, z)]), e[(x, z)])))


@ORACLE
@given(vague_cases())
def test_vague_operation_witnesses_are_violations(case):
    t, carrier, e, mu = case
    eq = make_fuzzy_equality("drawn", lambda a, b: e[(a, b)], t, carrier)
    op = vague_op_from_table("drawn", carrier, eq, mu)

    ext = violations(product(carrier, repeat=6), lambda x, y, z, x2, y2, z2: (
        t(t(t(mu[(x, y, z)], e[(x, x2)]), e[(y, y2)]), e[(z, z2)]),
        mu[(x2, y2, z2)]))
    fun = violations(product(carrier, repeat=4), lambda x, y, z, z2: (
        t(mu[(x, y, z)], mu[(x, y, z2)]), e[(z, z2)]))
    total = Counter({((x, y), ()): 1 for x, y in product(carrier, repeat=2)
                     if all(mu[(x, y, z)] != ONE for z in carrier)})
    rep = check_vague_binary_op(op)
    assert_witnesses(rep.child("V1:extensionality"), ext)
    assert_witnesses(rep.child("V2:functionality"), fun)

    op.underlying = t
    assert_witnesses(check_vague_commutativity(op), violations(
        product(carrier, repeat=4), lambda a, b, m, w: (
            t(mu[(a, b, m)], mu[(b, a, w)]), e[(m, w)])))

    monoid = check_vague_monoid(op)
    if ext or fun or total:  # not a vague operation: the gate's witnesses
        assert monoid.tags == ("NOT_VAGUE_OP",)
        assert_witnesses(monoid, ext + fun + total)
        return
    expected = violations(product(carrier, repeat=7), lambda x, y, z, d, m, q, w: (
        t(t(t(mu[(y, z, d)], mu[(x, d, m)]), mu[(x, y, q)]), mu[(q, z, w)]),
        e[(m, w)]))
    if not any(all(t(mu[(u, a, a)], mu[(a, u, a)]) == ONE for a in carrier)
               for u in carrier):
        expected[(("no-identity-element",), ())] += 1
        assert monoid.witnesses[-1].inputs == ("no-identity-element",)
    assert_witnesses(monoid, expected)


@st.composite
def vague_groups(draw):
    """A cyclic group of order 2 or 3 with drawn degrees, those of its
    identity and inverse products set to 1 (the group's preconditions)."""
    group = cyclic_group(draw(st.sampled_from([2, 3])))
    elems, unit = group.elements, group.identity
    e = draw(equality_tables(elems))
    table = {k: draw(DEGREES) for k in product(elems, repeat=3)}
    for a in elems:
        inv = group.inverse[a]
        for k in ((inv, a, unit), (a, inv, unit), (unit, a, a), (a, unit, a)):
            table[k] = ONE
    eq = make_fuzzy_equality("drawn", lambda a, b: e[(a, b)], draw(TNORMS),
                             elems)
    return group, table, e, vague_op_from_table("drawn", elems, eq, table)


@ORACLE
@given(vague_groups())
def test_group_cancellation_witnesses_are_violations(drawn):
    group, mu, e, op = drawn
    expected = Counter()
    for a, b, c, u in product(group.elements, repeat=4):
        for side, lhs in (("L", min(mu[(a, b, u)], mu[(a, c, u)])),
                          ("R", min(mu[(b, a, u)], mu[(c, a, u)]))):
            if lhs > e[(b, c)]:
                expected[((side, a, b, c, u), (lhs, e[(b, c)]))] += 1
    assert_witnesses(check_vague_group_cancellation(op, group), expected)
