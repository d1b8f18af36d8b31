from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzznorm import checker, kernel
from fuzznorm.checker import (check_archimedean, check_axioms,
                              check_cancellation, check_limit_property,
                              check_strict_monotonicity, classify_uninorm)
from fuzznorm.connectives import (BUILTIN_TCONORMS, BUILTIN_TNORMS,
                                  Connective, Role, S_L, S_P,
                                  T_D, T_L, T_M, T_P, construct_nullnorm,
                                  construct_uninorm_max,
                                  construct_uninorm_min, power_iterate)
from fuzznorm.errors import DomainError
from fuzznorm.reports import (FinitePoints, GridDomain, SearchBudget, Verdict,
                              Witness, dumps)
from fuzznorm.suite import _refutation_family
from fuzznorm.tables import enumerate_chain_tnorm_tables, uniform_chain

F = Fraction
D10 = GridDomain(10)


class TestAxioms:
    def test_builtin_tnorms_pass(self):
        for conn in BUILTIN_TNORMS:
            rep = check_axioms(conn, D10)
            assert rep.verdict is Verdict.HOLDS, conn.name
            assert [c.property_id for c in rep.children] == [
                "T1:commutativity", "T2:associativity",
                "T3:monotonicity", "T4:boundary"]

    def test_uninorm_axioms(self):
        u = construct_uninorm_min(F(1, 2), T_P, S_P)
        rep = check_axioms(u, D10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.child("U4:identity").details["identity"] == "1/2"

    def test_nullnorm_axioms(self):
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        rep = check_axioms(f, D10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.child("F4:absorbing").details["absorber"] == "1/2"

    def test_projection_fails_commutativity(self):
        proj = Connective("proj", Role.TNORM, lambda x, y: x, identity=None)
        rep = check_axioms(proj, GridDomain(4))
        comm = rep.child("T1:commutativity")
        assert comm.verdict is Verdict.FAILS
        # every recorded witness re-evaluates to a violation
        for w in comm.witnesses:
            x, y = w.inputs
            assert proj(x, y) != proj(y, x)
        assert proj(F(0), F(1)) != proj(F(1), F(0))

    def test_aggregation_axioms(self):
        from fuzznorm.connectives import A_MIN
        rep = check_axioms(A_MIN, GridDomain(6))
        assert rep.verdict is Verdict.HOLDS

    def test_aggregation_monotonicity_is_two_sided(self):
        # monotone in the second argument, not in the first
        agg = Connective("agg:zero-at-half", Role.AGGREGATION,
                         lambda *xs: F(0) if xs[0] == F(1, 2) else xs[-1])
        rep = check_axioms(agg, GridDomain(2))
        mono = rep.child("A1:monotonicity")
        assert mono.verdict is Verdict.FAILS
        half = F(1, 2)
        assert [(w.inputs, w.values) for w in mono.witnesses] == [
            ((F(0), half, half), (half, F(0))),
            ((F(0), half, F(1)), (F(1), F(0)))]
        assert rep.child("A2:boundary").verdict is Verdict.HOLDS


class TestStrictMonotonicity:
    def test_verdicts(self):
        assert check_strict_monotonicity(T_P, D10).verdict is Verdict.HOLDS
        assert check_strict_monotonicity(T_M, D10).verdict is Verdict.FAILS
        assert check_strict_monotonicity(T_L, D10).verdict is Verdict.FAILS

    def test_witnesses_reevaluate(self):
        rep = check_strict_monotonicity(T_M, D10)
        for w in rep.witnesses:
            x, y, z = w.inputs
            assert x > 0 and y < z
            assert w.values == (T_M(x, y), T_M(x, z))
            assert not (T_M(x, y) < T_M(x, z))
        # the documented witness is among them
        assert (F(1, 2), F(3, 5), F(7, 10)) in {w.inputs for w in rep.witnesses}

    def test_role_precondition(self):
        with pytest.raises(DomainError):
            check_strict_monotonicity(S_P, D10)


class TestCancellation:
    def test_plain(self):
        assert check_cancellation(T_P, D10).verdict is Verdict.HOLDS
        rep = check_cancellation(T_L, D10)
        assert rep.verdict is Verdict.FAILS
        assert (F(1, 5), F(1, 10), F(1, 5)) in {w.inputs for w in rep.witnesses}
        for w in rep.witnesses:
            x, y, z = w.inputs
            assert w.values == (T_L(x, y), T_L(x, z))
            assert T_L(x, y) == T_L(x, z) and x != 0 and y != z

    def test_conditional(self):
        assert check_cancellation(T_L, D10, conditional=True).verdict is Verdict.HOLDS
        assert check_cancellation(T_M, D10, conditional=True).verdict is Verdict.FAILS


def brute_archimedean_pairs(conn, domain, n_max):
    """Independent double loop: recompute powers from scratch per pair."""
    found = {}
    for x in domain.interior:
        for y in domain.interior:
            witness = None
            for n in range(1, n_max + 1):
                if power_iterate(conn, x, n) < y:
                    witness = n
                    break
            found[(x, y)] = witness
    return found


class TestArchimedean:
    def test_verdicts_match_known_classification(self):
        budget = SearchBudget(n_max=64)
        assert check_archimedean(T_L, D10, budget).verdict is Verdict.HOLDS
        assert check_archimedean(T_P, D10, budget).verdict is Verdict.HOLDS
        assert check_archimedean(T_D, D10, budget).verdict is Verdict.HOLDS
        rep = check_archimedean(T_M, D10, budget)
        assert rep.verdict is Verdict.FAILS
        for w in rep.witnesses:
            x, y = w.inputs
            assert w.values[0] == x  # stationary exactly at x

    def test_agrees_with_brute_force_reference(self):
        budget = SearchBudget(n_max=64)
        for conn in BUILTIN_TNORMS:
            oracle = brute_archimedean_pairs(conn, D10, budget.n_max)
            rep = check_archimedean(conn, D10, budget)
            all_found = all(v is not None for v in oracle.values())
            assert (rep.verdict is Verdict.HOLDS) == all_found, conn.name
            failed_pairs = {w.inputs for w in rep.witnesses}
            assert failed_pairs <= {p for p, v in oracle.items() if v is None}

    def test_budget_exhaustion_is_vacuous(self):
        rep = check_archimedean(T_P, D10, SearchBudget(n_max=2))
        assert rep.verdict is Verdict.VACUOUS
        assert "budget-exhausted" in rep.tags


class TestLimitProperty:
    def test_lukasiewicz_reaches_zero(self):
        rep = check_limit_property(T_L, D10, SearchBudget(iter_cap=128))
        assert rep.verdict is Verdict.HOLDS
        assert rep.details["convergence"]["9/10"] == 10

    def test_min_fails_everywhere_interior(self):
        rep = check_limit_property(T_M, D10)
        assert rep.verdict is Verdict.FAILS
        assert {w.inputs[0] for w in rep.witnesses} == set(D10.interior)

    def test_drastic_two_steps(self):
        rep = check_limit_property(T_D, D10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.details["convergence"]["9/10"] == 2

    def test_stationary_below_epsilon_fails(self):
        # min keeps 1/2048 fixed: below epsilon, but the trajectory is
        # exactly stationary at a positive value, which decides the point
        tiny = F(1, 2048)
        rep = check_limit_property(T_M, FinitePoints((F(0), tiny, F(1))))
        assert rep.verdict is Verdict.FAILS
        assert [(w.inputs, w.values) for w in rep.witnesses] == [((tiny,), (tiny,))]
        assert rep.details["convergence"] == {}

    @pytest.mark.parametrize("conn, cap, inconclusive", [
        (T_L, 1, 4),  # x^2 = 0 for x <= 1/2
        (T_P, 3, 8),  # only (1/10)^4 is below 1/1024
    ])
    def test_cap_applies_epsilon_once_to_the_next_power(self, conn, cap,
                                                        inconclusive):
        rep = check_limit_property(conn, D10, SearchBudget(iter_cap=cap))
        assert rep.verdict is Verdict.VACUOUS
        assert "budget-exhausted" in rep.tags
        assert rep.details["inconclusive_points"] == inconclusive
        converged = rep.details["convergence"]
        assert len(converged) == len(D10.interior) - inconclusive
        assert set(converged.values()) == {cap + 1}


class TestResolutionMonotonicity:
    # a failure seen on a coarse grid stays a failure on a finer grid,
    # because the coarse points embed into the finer grid
    @pytest.mark.parametrize("check", [
        check_strict_monotonicity,
        check_cancellation,
        lambda c, d: check_archimedean(c, d, SearchBudget()),
    ])
    def test_fails_never_flips(self, check):
        for conn in BUILTIN_TNORMS:
            coarse = check(conn, GridDomain(5))
            if coarse.verdict is Verdict.FAILS:
                assert check(conn, GridDomain(10)).verdict is Verdict.FAILS


class TestClassifyUninorm:
    def test_min_construction_is_conjunctive(self):
        rep = classify_uninorm(construct_uninorm_min(F(1, 2), T_P, S_P), D10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.details["conjunctive"] is True
        assert rep.details["disjunctive"] is False
        assert rep.details["mixed_region"] == "min"

    def test_max_construction_is_disjunctive(self):
        rep = classify_uninorm(construct_uninorm_max(F(1, 2), T_P, S_P), D10)
        assert rep.details["disjunctive"] is True
        assert rep.details["mixed_region"] == "max"

    def test_tnorm_degenerates(self):
        rep = classify_uninorm(T_M, D10)
        assert rep.details["conjunctive"] is True
        assert rep.details["locally_internal_on_boundary"] is True
        assert rep.details["idempotent_diagonal"] is True
        assert rep.details["mixed_region"] == "empty"

    def test_averaging_mixed_region(self):
        e = F(1, 2)

        def fn(x, y):
            if x <= e and y <= e:
                return min(x, y)
            if x >= e and y >= e:
                return max(x, y)
            return (x + y) / 2  # between min and max, equal to neither
        rep = classify_uninorm(Connective("uninorm:avg", Role.UNINORM, fn,
                                          identity=e), D10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.details["mixed_region"] == "mixed"


def _classify_full_loop(conn, domain):
    """``classify_uninorm`` as it was when its mixed-region loop visited
    every pair of points and skipped those outside the region."""
    pts = domain.points
    v10 = conn(F(1), F(0))
    conjunctive, disjunctive = v10 == 0, v10 == 1
    locally_internal = None
    if conjunctive or disjunctive:
        a = F(1) if conjunctive else F(0)
        locally_internal = all(conn(a, x) in (a, x) for x in pts)
    idempotent = all(conn(x, x) == x for x in pts)
    e = conn.identity
    if e is None:
        e = checker._search_identity(conn, pts)
    witnesses = []
    behavior_min = behavior_max = True
    mixed_pairs = 0
    if e is not None:
        for x in pts:
            for y in pts:
                lo, hi = (x, y) if x <= y else (y, x)
                if not lo < e < hi:
                    continue
                mixed_pairs += 1
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
    elif behavior_min and behavior_max:
        mixed = "degenerate"
    else:
        mixed = "mixed"
    details = {
        "operator": conn.name, "conjunctive": conjunctive,
        "disjunctive": disjunctive,
        "locally_internal_on_boundary": locally_internal,
        "idempotent_diagonal": idempotent, "mixed_region": mixed,
        "identity": None if e is None else str(e),
    }
    return checker.conclude("uninorm-classification", domain.to_json(),
                            witnesses, instances=max(mixed_pairs, 1),
                            details=details)


def _not_a_grid_point():
    # e = 1/3 falls between the grid-4 points 1/4 and 1/2; a witness-free
    # splice and one whose mixed values leave [min, max]
    e = F(1, 3)
    return [construct_uninorm_min(e, T_P, S_P), construct_uninorm_max(e, T_L, S_L),
            Connective("uninorm:outside", Role.UNINORM,
                       lambda x, y: 1 if x > e and y > e else 0, identity=e)]


_MIXED_CASES = (
    [(c, GridDomain(100)) for c in BUILTIN_TNORMS + BUILTIN_TCONORMS]
    + [(u, GridDomain(n)) for n in (8, 100) for u in _refutation_family()]
    + [(u, GridDomain(4)) for u in _not_a_grid_point()])


@pytest.mark.parametrize("conn, domain", _MIXED_CASES,
                         ids=[f"{c.name}@{d.resolution}" for c, d in _MIXED_CASES])
def test_mixed_region_walk_matches_the_full_loop(conn, domain, monkeypatch):
    """The walk over the points below and above the identity gives the
    report, the instance count and the operator calls, in order, that the
    loop over every pair gave."""
    runs = []
    for classify in (classify_uninorm, _classify_full_loop):
        calls, instances = [], []

        def fn(*args):
            calls.append(args)
            return conn.fn(*args)

        def conclude(*args, _conclude=checker.conclude, **kwargs):
            instances.append(kwargs["instances"])
            return _conclude(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(checker, "conclude", conclude)
            rep = classify(conn._replace(fn=fn), domain)
        runs.append((dumps(rep), instances, calls))
    assert runs[0] == runs[1]


class TestIdentitySearch:
    """A uninorm that declares no identity: the grid is searched for one,
    by the U4 axiom and by the classification alike."""

    @pytest.mark.parametrize("fn, found", [
        (lambda x, y: min(x, y), "1"),
        (lambda x, y: max(x, y), "0"),
        (lambda x, y: (x + y) / 2, None),
    ], ids=["min", "max", "mean"])
    def test_search(self, fn, found):
        d4 = GridDomain(4)
        conn = Connective("test:undeclared", Role.UNINORM, fn)
        rep = check_axioms(conn, d4).child("U4:identity")
        assert rep.details == {"identity": found, "identity_searched": True}
        if found is None:
            assert rep.verdict is Verdict.FAILS
            assert [w.inputs for w in rep.witnesses] == [("no-identity-element",)]
        else:
            assert rep.verdict is Verdict.HOLDS
            assert rep.witnesses == []
        assert classify_uninorm(conn, d4).details["identity"] == found


class TestVerifyImplication:
    """Implications between the classical properties, checked directly."""

    def test_archimedean_does_not_imply_strict(self):
        assert check_archimedean(T_L, D10).holds
        assert check_strict_monotonicity(T_L, D10).verdict is Verdict.FAILS

    def test_strict_implies_cancellation_chain(self):
        dom = FinitePoints(uniform_chain(4))
        tables = enumerate_chain_tnorm_tables(dom.points)
        strict_seen = 0
        for conn in [t.as_connective() for t in tables] + list(BUILTIN_TNORMS):
            strict = check_strict_monotonicity(conn, dom).holds
            cancel = check_cancellation(conn, dom).holds
            cond = check_cancellation(conn, dom, conditional=True).holds
            assert not strict or cancel, conn.name
            assert not cancel or cond, conn.name
            strict_seen += strict
        assert strict_seen  # the premise is not vacuous here


class TestFloatMode:
    def test_dyadic_float_product_passes(self):
        floaty = Connective("float-product", Role.TNORM,
                            lambda x, y: float(x) * float(y), identity=F(1))
        # on a dyadic grid every product is an exact binary float
        rep = check_axioms(floaty, GridDomain(4))
        assert rep.verdict is Verdict.HOLDS

    def test_float_limit_is_judged_at_epsilon(self):
        floaty = Connective("float-product", Role.TNORM,
                            lambda x, y: float(x) * float(y), identity=F(1))
        rep = check_limit_property(floaty, GridDomain(4),
                                   SearchBudget(iter_cap=128))
        assert rep.verdict is Verdict.HOLDS and rep.tags == ()
        # each power is the rational its float is, and the first below the
        # budget's epsilon (1/1024) is the same exponent as for T_P
        assert rep.details["convergence"]["3/4"] == 25
        assert rep.details["convergence"] == check_limit_property(
            T_P, GridDomain(4), SearchBudget(iter_cap=128)).details["convergence"]

    def test_near_tie_is_decided_exactly(self):
        bump = {(F(1, 2), F(3, 4)), (F(3, 4), F(1, 2))}

        def noisy(x, y):
            if (x, y) in bump:
                return 0.25 + 5e-10
            return float(x) * float(y)

        conn = Connective("noisy", Role.TNORM, noisy, identity=F(1))
        # the bumped value is read as the rational it is, just above 1/4
        assert conn(F(1, 2), F(3, 4)) == F(0.25 + 5e-10) > F(1, 4)
        rep = check_strict_monotonicity(conn, GridDomain(4))
        assert rep.verdict is Verdict.HOLDS and rep.tags == ()
        assert rep.witnesses == [] and "undecided_instances" not in rep.details


class TestReportPlumbing:
    def test_json_shape(self):
        import json
        rep = check_cancellation(T_L, GridDomain(5))
        obj = json.loads(dumps(rep))
        assert set(obj) >= {"property_id", "verdict", "domain", "witnesses", "budget"}
        assert obj["verdict"] == "FAILS"
        assert obj["domain"] == {"kind": "grid", "resolution": 5}
        first = obj["witnesses"][0]
        assert set(first) == {"inputs", "values"}
        assert all("/" in s or s in ("0", "1") for s in first["inputs"])

    def test_domain_and_budget_validation(self):
        for build in (lambda: GridDomain(1),
                      lambda: SearchBudget(n_max=0),
                      lambda: SearchBudget(iter_cap=0),
                      lambda: SearchBudget(epsilon=F(0)),
                      lambda: SearchBudget(epsilon=F(-1, 1024)),
                      lambda: FinitePoints((0, F(3, 4), F(1, 4), 1)),
                      lambda: FinitePoints((0, F(1, 2), F(1, 2), 1)),
                      lambda: FinitePoints((1,)),
                      lambda: FinitePoints((F(1, 4), F(1, 2), 1)),
                      lambda: FinitePoints((0, F(1, 2), F(3, 4)))):
            with pytest.raises(DomainError):
                build()

    @pytest.mark.parametrize("points", [(0, F(1, 2), 1), (0.0, 0.5, 1.0)],
                             ids=["int", "float"])
    def test_finite_points_read_like_fractions(self, points):
        exact = (F(0), F(1, 2), F(1))
        dom = FinitePoints(points)
        assert dom.points == exact
        assert all(type(p) is Fraction for p in dom.points)
        assert kernel.Kernel(T_M, dom.points).closed
        # a witness input is "1", as for the Fraction chain, not a number
        assert (dumps(check_strict_monotonicity(T_M, dom))
                == dumps(check_strict_monotonicity(T_M, FinitePoints(exact))))

    @pytest.mark.parametrize("points", [(0, 2, 1), (0, "x", 1), (0, "1/0", 1)])
    def test_finite_points_that_are_not_unit_values_are_refused(self, points):
        with pytest.raises(DomainError):
            FinitePoints(points)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8))
def test_grid_points_are_exact(n):
    dom = GridDomain(n)
    pts = dom.points
    assert pts[0] == 0 and pts[-1] == 1
    assert len(pts) == n + 1
    assert all(pts[i] < pts[i + 1] for i in range(n))
    # arithmetic over grid points stays exact
    assert sum(pts) * 2 == (n + 1)
