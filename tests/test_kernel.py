"""Differential tests: the value-id kernel against the plain Fraction path.

Each test runs a check twice, once as shipped and once on the value
reference (``value_reference.on_values``), which runs the same cores on
values. The two reports must serialize to the same bytes, witness order
included.
"""

from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzznorm import checker, kernel, vague
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.checker import check_axioms, check_cancellation, check_strict_monotonicity
from fuzznorm.connectives import (A_MIN, BUILTIN_TCONORMS, BUILTIN_TNORMS, S_L, S_M,
                                  S_P, T_D, T_L, T_M, T_P, Connective, Role,
                                  construct_nullnorm, construct_uninorm_min, dualize)
from fuzznorm.errors import TotalityError
from fuzznorm.fuzzy import (KIND_SUBMONOID, KIND_T_SUBNORM, a_submonoid_kind,
                            check_fuzzy_submonoid, check_fuzzy_subgroupoid,
                            f_submonoid_kind, u_submonoid_kind)
from fuzznorm.reports import FinitePoints, GridDomain, dumps
from fuzznorm.scalars import UNIT_INTERVAL
from fuzznorm.subsets import (enumerate_table_subsets, generate_subnorm_tables,
                              intersect_fuzzy_subsets)
from fuzznorm.suite import SuiteConfig, _refutation_family, _vague_corpus
from fuzznorm.tables import enumerate_chain_tnorm_tables, mixed_grid_points, uniform_chain
from fuzznorm.vague import (READINGS, check_vague_binary_op,
                            check_vague_cancellation, check_vague_commutativity,
                            check_vague_monoid, check_vague_strict_monotone,
                            crisp_equality, induce_vague_tnorm, linear_equality,
                            make_fuzzy_equality, vague_table_from_json)
from value_reference import on_values

F = Fraction
HALF = F(1, 2)
GRIDS = range(3, 13)


def _no_alphabet_ids(monkeypatch):
    # table maps come without ids, so every closure loop runs on values
    monkeypatch.setattr(kernel, "compile_alphabet", lambda alphabet: None)


def _both_paths(monkeypatch, render, *args):
    """``render`` over each argument tuple, compiled and on values; no
    loop of the second pass runs on ids."""
    fast = [render(*a) for a in args]
    with monkeypatch.context() as m:
        on_values(m)
        runs = _id_runs(m)
        reference = [render(*a) for a in args]
    assert runs == []
    return fast, reference


def _operators():
    """Builtins, both duals, nullnorms on product/probsum and on
    Lukasiewicz (on and off the grids), operators whose axioms fail or
    whose identity and absorber are left for the check to find, one that
    returns an int and a Fraction for the same value, one that returns
    Decimals, and ones that declare an int identity or absorber."""
    ops = list(BUILTIN_TNORMS + BUILTIN_TCONORMS)
    ops += [dualize(c) for c in BUILTIN_TNORMS + BUILTIN_TCONORMS]
    for k in (HALF, F(1, 3)):
        ops += [construct_nullnorm(S_P, k, T_P), construct_nullnorm(S_L, k, T_L)]
    umin = construct_uninorm_min(HALF, T_P, S_P)
    nullnorm = construct_nullnorm(S_L, HALF, T_L)
    ops += [
        Connective("uninorm:no-identity", Role.UNINORM, umin.fn),
        Connective("nullnorm:no-absorber", Role.NULLNORM, nullnorm.fn),
        Connective("tnorm:projection", Role.TNORM, lambda x, y: x, identity=F(1)),
        Connective("tnorm:mean", Role.TNORM, lambda x, y: (x + y) / 2, identity=F(1)),
        Connective("tnorm:square-product", Role.TNORM, lambda x, y: x * x * y,
                   identity=F(1)),
        LUKASIEWICZ_INT_ZERO,
        DECIMAL_PRODUCT,
        *INT_ELEMENTS,
    ]
    return ops


# the int 0 below the diagonal is read as the Fraction(0) on it
LUKASIEWICZ_INT_ZERO = Connective("tnorm:lukasiewicz-int-zero", Role.TNORM,
                                  lambda x, y: max(x + y - 1, 0), identity=F(1))
# a Decimal quotient, rounded to 28 digits where it does not terminate
DECIMAL_PRODUCT = Connective(
    "tnorm:decimal-product", Role.TNORM,
    lambda x, y: Decimal(x.numerator * y.numerator) / Decimal(x.denominator * y.denominator),
    identity=F(1))
# declared special elements as ints: identities 1 and 0 of min and max,
# absorbers 0 and 1 of min and max, and an identity and an absorber that
# are not one
INT_ELEMENTS = (
    Connective("uninorm:min-int-identity", Role.UNINORM, T_M.fn, identity=1),
    Connective("uninorm:max-int-identity", Role.UNINORM, S_M.fn, identity=0),
    Connective("uninorm:product-int-identity", Role.UNINORM, T_P.fn, identity=0),
    Connective("nullnorm:min-int-absorber", Role.NULLNORM, T_M.fn, absorber=0),
    Connective("nullnorm:max-int-absorber", Role.NULLNORM, S_M.fn, absorber=1),
    Connective("nullnorm:product-int-absorber", Role.NULLNORM, T_P.fn, absorber=1),
)


def _domains():
    return ([GridDomain(n) for n in GRIDS]
            + [FinitePoints(mixed_grid_points(HALF, 2, 2)),
               FinitePoints(mixed_grid_points(F(1, 3), 3, 2))])


def _chain_tables():
    for size in (4, 5):
        chain = uniform_chain(size)
        for table in enumerate_chain_tnorm_tables(chain):
            yield table.as_connective(), FinitePoints(chain)


def _tnorm_checks(conn, domain):
    return [check_strict_monotonicity(conn, domain),
            check_cancellation(conn, domain),
            check_cancellation(conn, domain, conditional=True)]


def _all_checks(conn, domain):
    reports = [checker.check_axioms(conn, domain)]
    if conn.role is Role.TNORM:
        reports += _tnorm_checks(conn, domain)
    return "".join(dumps(r) for r in reports)


@pytest.mark.parametrize("domain", _domains(), ids=lambda d: d.label())
def test_operator_checks_match_reference(monkeypatch, domain):
    fast, reference = _both_paths(monkeypatch, _all_checks,
                                  *[(c, domain) for c in _operators()])
    assert fast == reference
    assert any('"FAILS"' in r for r in fast)


def test_refutation_family_matches_reference(monkeypatch):
    # every member and every domain, each member on one domain in turn,
    # keeps the reference side of this test quick
    domains = _domains()
    pairs = [(u, domains[i % len(domains)])
             for i, u in enumerate(_refutation_family())]
    fast, reference = _both_paths(monkeypatch, _all_checks, *pairs)
    assert fast == reference


def test_chain_tables_match_reference(monkeypatch):
    fast, reference = _both_paths(monkeypatch, _all_checks, *_chain_tables())
    assert len(fast) == 6 + 22
    assert fast == reference


def test_ints_and_decimals_take_the_compiled_path():
    """Operators that return ints or Decimals, and declared int identities
    and absorbers, compile, and their axioms run on ids to the end."""
    for domain in _domains():
        kerns = [kernel.Kernel(c, domain.points)
                 for c in (LUKASIEWICZ_INT_ZERO, DECIMAL_PRODUCT)]
        assert all(type(v) is F for kern in kerns for v in kern.vals)
        assert kerns[0].table[0][1] == 0  # T(0, 1/n) = 0, the id of Fraction(0)
    reports = [check_axioms(c, GridDomain(6))
               for c in (LUKASIEWICZ_INT_ZERO, DECIMAL_PRODUCT) + INT_ELEMENTS]
    assert [r.holds for r in reports] == [True, False] + [True, True, False] * 2


def test_carrier_closure_matches_reference(monkeypatch):
    alphabet = (F(0), HALF, F(1))

    def submonoid_reports(conn, domain):
        carrier = CarrierMonoid.from_connective(conn, domain)
        return "".join(dumps(check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM))
                       for mu in enumerate_table_subsets(domain.points, alphabet))

    # product leaves the 3-chain, where table maps are not total
    cases = list(_chain_tables())[:6] + [(c, FinitePoints(uniform_chain(3)))
                                         for c in (T_M, T_L, T_D)]
    fast, reference = _both_paths(monkeypatch, submonoid_reports, *cases)
    assert fast == reference


# the submonoid kinds next to the subgroupoid check: min, min with the
# identity, the aggregation kind's arities 2 and 3, a uninorm combiner
# whose values leave any small alphabet (1/16 from 1/4), a nullnorm
_SUBMONOID_KINDS = (KIND_SUBMONOID, KIND_T_SUBNORM, a_submonoid_kind(A_MIN),
                    u_submonoid_kind(construct_uninorm_min(HALF, T_P, S_P)),
                    f_submonoid_kind(construct_nullnorm(S_L, HALF, T_L)))


def _closure_reports(carrier, maps):
    reports = []
    for mu in maps:
        reports.append(check_fuzzy_subgroupoid(mu, carrier))
        reports += [check_fuzzy_submonoid(mu, carrier, kind)
                    for kind in _SUBMONOID_KINDS]
    return "".join(dumps(r) for r in reports)


def _id_runs(monkeypatch):
    """The closure loops that ran on alphabet ids, from now on: each
    turns its witnesses back into values once."""
    translate, runs = kernel.witness_values, []

    def counted(*args):
        runs.append(args)
        return translate(*args)

    monkeypatch.setattr(kernel, "witness_values", counted)
    return runs


def _on_ids_and_values(render):
    """``render()`` with alphabet ids, and without them; the number of
    closure loops the first pass ran on ids, and the second pass's."""
    with pytest.MonkeyPatch.context() as m:
        runs = _id_runs(m)
        fast = render()
        fast_runs = len(runs)
        _no_alphabet_ids(m)
        reference = render()
    return fast, reference, fast_runs, len(runs) - fast_runs


LETTERS = (0, 1, F(0), F(1, 4), F(1, 3), HALF, F(2, 3), F(3, 4), F(1))


@settings(max_examples=40, deadline=None)
@given(alphabet=st.lists(st.sampled_from(LETTERS), min_size=1, max_size=5),
       grid=st.sampled_from((3, 4)), conn=st.sampled_from((T_M, T_L, T_D)),
       start=st.integers(0, 300), step=st.integers(1, 41))
@example(alphabet=[F(1)], grid=3, conn=T_M, start=0, step=1)
@example(alphabet=[F(1), F(0), HALF], grid=3, conn=T_L, start=0, step=3)
@example(alphabet=[F(1, 4), HALF, F(3, 4)], grid=4, conn=T_D, start=7, step=11)
@example(alphabet=[F(0), F(1, 4), HALF, F(3, 4), F(1)], grid=4, conn=T_M,
         start=100, step=31)
@example(alphabet=[0, HALF, 1], grid=3, conn=T_L, start=0, step=2)
@example(alphabet=[0, F(0), 1], grid=3, conn=T_M, start=0, step=5)
def test_closure_on_alphabet_ids_matches_values(alphabet, grid, conn, start, step):
    """Every kind on enumerated and generated table maps, with and without
    alphabet ids. An int letter is read as the Fraction it is, so an
    int and a Fraction of one value share an id and every alphabet
    compiles."""
    def render():
        carrier = CarrierMonoid.from_connective(conn, GridDomain(grid))
        assert carrier.table.closed
        maps = list(islice(enumerate_table_subsets(carrier.elements, alphabet),
                           start, start + 10 * step, step))
        maps += islice(generate_subnorm_tables(
            carrier.elements, carrier.op, carrier.identity, alphabet,
            UNIT_INTERVAL), 10)
        return _closure_reports(carrier, maps), bool(maps)

    fast, reference, fast_runs, reference_runs = _on_ids_and_values(render)
    assert fast == reference
    assert reference_runs == 0
    assert (fast_runs > 0) == fast[1]


def test_product_leaving_the_carrier_raises_like_values():
    carrier = CarrierMonoid.from_connective(T_P, GridDomain(2))
    assert not carrier.table.closed

    def first_error():
        with pytest.raises(TotalityError) as refused:
            for mu in enumerate_table_subsets(carrier.elements, (F(0), HALF, F(1))):
                check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM)
        return str(refused.value)

    fast, reference, fast_runs, _ = _on_ids_and_values(first_error)
    assert fast == reference == "membership table has no value at 1/4"
    assert fast_runs == 0


@pytest.mark.parametrize("alphabet, names", [
    ((0.0, 0.5, 1.0), ("mu(0.0,0.0,0.0)", "mu(0.5,1.0,0.0)")),
    ((0, F(0), F(1)), ("mu(0,0,0)", "mu(0,1,0)")),  # an int and a Fraction of one value
], ids=["float", "int-and-fraction"])
def test_number_alphabets_compile(alphabet, names):
    """The letters are read as the Fractions they are, so the closure
    loops run on ids; the maps keep the names of the letters as given."""
    carrier = CarrierMonoid.from_connective(T_M, GridDomain(2))

    def render():
        maps = list(enumerate_table_subsets(carrier.elements, alphabet))
        return _closure_reports(carrier, maps), [mu.name for mu in maps]

    fast, reference, fast_runs, _ = _on_ids_and_values(render)
    assert fast == reference and '"FAILS"' in fast[0]
    assert fast_runs > 0
    assert fast[1][0] == names[0] and names[1] in fast[1]


@pytest.mark.parametrize("alphabet, repeat", [
    ((F(0), HALF, F(1)), True),  # maps over an element listed twice
], ids=["repeated-element"])
def test_value_path_cases(alphabet, repeat):
    def render():
        carrier = CarrierMonoid.from_connective(T_M, GridDomain(2))
        elements = carrier.elements + carrier.elements[:1] * repeat
        return _closure_reports(carrier, enumerate_table_subsets(elements, alphabet))

    fast, reference, fast_runs, _ = _on_ids_and_values(render)
    assert fast == reference and '"FAILS"' in fast
    assert fast_runs == 0


@pytest.mark.parametrize("alphabet", [(F(0), HALF, F(1)), (F(1), F(1, 4), HALF),
                                      (0, HALF, 1)],
                         ids=["sorted", "unsorted-no-zero", "int-ends"])
def test_intersection_of_table_maps_meets_pointwise(alphabet):
    pts = GridDomain(2).points
    maps = list(enumerate_table_subsets(pts, alphabet))
    for a in maps:
        for parts in ([a, maps[5]], [maps[20], a, maps[11]], [a]):
            inter = intersect_fuzzy_subsets(parts)
            assert inter.name == "intersect(" + ",".join(s.name for s in parts) + ")"
            expected = [min(s(x) for s in parts) for x in pts]
            got = [inter(x) for x in pts]
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]
            for off in (F(1, 7), "x", [1]):
                with pytest.raises(TotalityError) as refused:
                    min(s(off) for s in parts)
                with pytest.raises(TotalityError) as got_refused:
                    inter(off)
                assert str(got_refused.value) == str(refused.value)


def _vague_reports(v):
    reports = [check_vague_binary_op(v), check_vague_monoid(v),
               check_vague_commutativity(v)]
    for reading in READINGS:
        reports += [check_vague_strict_monotone(v, reading),
                    check_vague_cancellation(v, reading)]
    return "".join(dumps(r) for r in reports)


@pytest.mark.parametrize("grid", [3, 4, 6])
def test_vague_checks_match_reference(monkeypatch, grid):
    corpus = _vague_corpus(SuiteConfig(grid=grid))
    fast, reference = _both_paths(monkeypatch, _vague_reports,
                                  *[(v,) for v in corpus])
    assert fast == reference
    assert any('"FAILS"' in r for r in fast)


@pytest.mark.parametrize("reading", READINGS)
def test_strict_on_a_descending_carrier_matches_reference(monkeypatch, reading):
    # lt orders the points by value, so listing the carrier downwards
    # changes neither path's verdict nor its witnesses
    def strict(v):
        return dumps(check_vague_strict_monotone(v, reading))

    descending = [induce_vague_tnorm(make_fuzzy_equality(
        v.equality.label, v.equality.fn, v.tnorm, v.carrier[::-1]), v.underlying)
        for v in _vague_corpus(SuiteConfig(grid=6))]
    fast, reference = _both_paths(monkeypatch, strict, *[(v,) for v in descending])
    assert fast == reference
    assert any('"FAILS"' in r for r in fast)


def test_reference_pass_runs_the_value_loops_of_a_checked_operator(monkeypatch):
    # the operator carries its compiled degree order from construction;
    # the reference pass must still send all seven checks to their value
    # loops, on a dict of the same degrees
    v = _vague_corpus(SuiteConfig(grid=3))[0]
    fast = _vague_reports(v)
    with monkeypatch.context() as m:
        on_values(m)
        runs, on_degree_values, seen = _id_runs(m), vague._on_degree_order, []

        def recorded(op, run):
            seen.append(op)
            return on_degree_values(op, run)

        m.setattr(vague, "_on_degree_order", recorded)
        reference = _vague_reports(v)
    assert seen == [v] * 7 and runs == []
    assert reference == fast


def _table_json(carrier, degree):
    return {"form": "table", "entries": [
        [str(x), str(y), str(z), str(degree(x, y, z))]
        for x in carrier for y in carrier for z in carrier]}


def test_vague_tables_from_json_match_reference(monkeypatch):
    pts = GridDomain(3).points
    linear, crisp = linear_equality(pts, T_L), crisp_equality(pts, T_L)
    # the Lukasiewicz degrees, flipped where x + y + z is whole: V1 and V2 fail
    flipped = _table_json(pts, lambda x, y, z: (
        1 - linear(T_L(x, y), z) if (x + y + z).denominator == 1
        else linear(T_L(x, y), z)))
    # everything is 0: a vague operation without an identity element
    zero = _table_json(pts, lambda x, y, z: F(int(z == 0)))
    ops = [vague_table_from_json(flipped, linear),
           vague_table_from_json(zero, crisp)]
    for op in ops:
        op.underlying = T_L
    fast, reference = _both_paths(monkeypatch, _vague_reports, *[(v,) for v in ops])
    assert fast == reference
    assert '"V1:extensionality"' in fast[0] and '"NOT_VAGUE_OP"' in fast[0]
    assert '"no-identity-element"' in fast[1] and '"identity": null' in fast[1]


def test_float_in_the_vague_loops_compiles(monkeypatch):
    # exact on the grid's degrees, a float elsewhere: the product puts
    # degrees like 15/16 in the table, and a float the conjunction returns
    # for one is read as the rational it is, so the loops stay on ids
    pts = GridDomain(4).points

    def fn(x, y):
        if all(isinstance(a, F) and a.denominator <= 4 for a in (x, y)):
            return T_L(x, y)
        return float(T_L(x, y))

    conj = Connective("float-off-grid", Role.TNORM, fn, identity=F(1))
    v = induce_vague_tnorm(linear_equality(pts, conj), T_P)
    order = v.order
    off_grid = next(d for d in order.deg.values() if order.vals[d].denominator > 4)
    met = order.vals[order.t(off_grid, order.top)]
    assert type(met) is F and met == F(fn(order.vals[off_grid], F(1)))
    fast, reference = _both_paths(monkeypatch, _vague_reports, (v,))
    assert fast == reference


def _axioms_json(conn, domain):
    return dumps(checker.check_axioms(conn, domain))


def test_float_operator_compiles_to_exact_values(monkeypatch):
    floaty = Connective("float-product", Role.TNORM,
                        lambda x, y: float(x) * float(y), identity=F(1))
    domain = GridDomain(10)
    assert kernel.Kernel(floaty, domain.points).n == 11
    t2 = check_axioms(floaty, domain).child("T2:associativity")
    # float products round, so 202 triples are not associative as read
    assert t2.fails and len(t2.witnesses) == 202 and t2.tags == ()
    for w in t2.witnesses:
        (x, y, z), (lhs, rhs) = w.inputs, w.values
        assert set(w.inputs) <= set(domain.points)
        # each value is the binary rational a float is
        assert all(type(v) is F and v.denominator & (v.denominator - 1) == 0
                   for v in w.values)
        assert (lhs, rhs) == (floaty(floaty(x, y), z), floaty(x, floaty(y, z)))
        assert lhs != rhs
    fast, reference = _both_paths(monkeypatch, _axioms_json, (floaty, domain))
    assert fast == reference


def test_float_off_the_grid_matches_the_value_reference(monkeypatch):
    # exact on the grid, so the table compiles; associativity's outer
    # call leaves the grid and meets a float there, and the compiled
    # axioms report as the value reference does
    domain = GridDomain(4)

    def fn(x, y):
        if x.denominator <= 4 and y.denominator <= 4:
            return x * y
        return float(x) * float(y)

    conn = Connective("float-off-grid", Role.TNORM, fn, identity=F(1))
    assert kernel.Kernel(conn, domain.points).n == 5
    fast, reference = _both_paths(monkeypatch, _axioms_json, (conn, domain))
    assert fast == reference


def test_ids_follow_values():
    k = kernel.Kernel(T_P, GridDomain(2).points)
    assert k.vals[:3] == [F(0), HALF, F(1)]
    assert k.table[1][1] == 3 and k.vals[3] == F(1, 4)
    assert [k.op(3, p) for p in range(3)] == [0, 4, 3] and k.vals[4] == F(1, 8)
    assert [k.op(p, 3) for p in range(3)] == [0, 4, 3]
    assert k.op(3, 1) == 4 and k.op(1, 3) == 4 and k.op(1, 1) == 3
    assert k.leq(3, 1) and not k.lt(1, 3)
    with pytest.raises(kernel.NotCompilable):
        kernel.Kernel(T_M, (F(0), F(0), F(1)))
