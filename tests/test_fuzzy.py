import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzznorm import reports
from fuzznorm.carriers import (CarrierMonoid, FiniteGroup, carrier_from_json,
                               cyclic_group)
from fuzznorm.connectives import (A_MIN, BUILTIN_TNORMS, S_L, S_M, S_P, T_D,
                                  T_L, T_M, T_P, Connective, Role,
                                  construct_nullnorm, construct_uninorm_max,
                                  construct_uninorm_min)
from fuzznorm.errors import (BudgetExceededError, DomainError, InputFormatError,
                             TotalityError)
from fuzznorm.fuzzy import (FuzzyProp, KIND_T_SUBNORM, SubstructureKind,
                            SubstructureTag, a_submonoid_kind,
                            characterize_special_cases,
                            check_discrete_subalgebra, check_fuzzy_property,
                            check_fuzzy_subgroup, check_fuzzy_subgroupoid,
                            check_fuzzy_submonoid, check_not_strictly_decreasing,
                            core_is_submonoid, extract_core, f_submonoid_kind,
                            refute_uninorm_existence, uninorm_family)
from fuzznorm.reports import FinitePoints, GridDomain, SearchBudget, Verdict
from fuzznorm.scalars import UNIT_INTERVAL, ZERO
from fuzznorm.subsets import (MU_COMPLEMENT, MU_ID, MU_ONE, MU_ZERO,
                              FuzzySubset, _closure_witnesses,
                              _identity_witnesses, enumerate_table_subsets,
                              generate_subnorm_tables, intersect_fuzzy_subsets,
                              parse_subset_spec, step_subset, subset_from_json,
                              table_subset)
from fuzznorm.tables import (enumerate_chain_tnorm_tables, mixed_grid_points,
                             uniform_chain)

from subset_maps import indicator_subset

F = Fraction
D10 = GridDomain(10)
ALPHABET = (F(0), F(1, 2), F(1))


def min_carrier(domain=D10):
    return CarrierMonoid.from_connective(T_M, domain)


class TestSubgroupoid:
    def test_trivial_subsets_pass(self):
        carrier = min_carrier()
        assert check_fuzzy_subgroupoid(MU_ONE, carrier).holds
        assert check_fuzzy_subgroupoid(MU_ZERO, carrier).holds

    def test_indicator_of_non_closed_subset_fails(self):
        g4 = cyclic_group(4)
        mu = indicator_subset({1, 2})
        rep = check_fuzzy_subgroupoid(mu, g4.monoid)
        assert rep.fails
        for w in rep.witnesses:
            x, y = w.inputs
            assert mu(x) == mu(y) == 1 and mu((x + y) % 4) == 0


class TestSubmonoid:
    def test_identity_map_unique_to_min(self):
        assert check_fuzzy_submonoid(MU_ID, min_carrier(), KIND_T_SUBNORM).holds
        for conn in (T_P, T_L, T_D):
            carrier = CarrierMonoid.from_connective(conn, D10)
            assert check_fuzzy_submonoid(MU_ID, carrier, KIND_T_SUBNORM).fails

    def test_identity_witness_at_half(self):
        carrier = CarrierMonoid.from_connective(T_P, D10)
        rep = check_fuzzy_submonoid(MU_ID, carrier, KIND_T_SUBNORM)
        assert (F(1, 2), F(1, 2)) in {w.inputs for w in rep.witnesses}

    def test_full_subset_works_everywhere(self):
        for conn in BUILTIN_TNORMS:
            carrier = CarrierMonoid.from_connective(conn, D10)
            assert check_fuzzy_submonoid(MU_ONE, carrier, KIND_T_SUBNORM).holds

    def test_zero_subset_fails_identity_condition(self):
        rep = check_fuzzy_submonoid(MU_ZERO, min_carrier(), KIND_T_SUBNORM)
        assert rep.fails
        assert rep.details["identity_condition"] is False

    def test_complement_is_a_min_submonoid_of_max(self):
        carrier = CarrierMonoid.from_connective(S_M, D10)
        rep = check_fuzzy_submonoid(MU_COMPLEMENT, carrier,
                                    a_submonoid_kind(A_MIN))
        assert rep.holds

    @pytest.mark.parametrize("cap", [1, 0])
    def test_arity_cap_below_two_is_refused(self, cap):
        # arities 2..cap would be empty: only the identity would be checked
        with pytest.raises(DomainError, match="below 2"):
            a_submonoid_kind(A_MIN, cap)

    @pytest.mark.parametrize("cap", [13, 10 ** 9])
    def test_tuples_past_the_budget_are_refused(self, cap):
        # on 3 points, arities 2..12 are 797,157 tuples and 2..13 are
        # 2,391,480; the sum stops at the first term past the budget
        carrier = CarrierMonoid.from_connective(T_M, GridDomain(2))
        with pytest.raises(BudgetExceededError) as refused:
            check_fuzzy_submonoid(MU_ONE, carrier, a_submonoid_kind(A_MIN, cap))
        assert refused.value.size_estimate == 2_391_480 > reports.MAX_TUPLES

    def test_agrees_with_independent_reference_loop(self):
        # reference loop written from the definition, no shared code
        chain = uniform_chain(4)
        dom = FinitePoints(chain)
        for table in enumerate_chain_tnorm_tables(chain):
            conn = table.as_connective()
            carrier = CarrierMonoid.from_connective(conn, dom)
            for mu in enumerate_table_subsets(chain, ALPHABET):
                expected = mu(F(1)) == 1 and all(
                    min(mu(x), mu(y)) <= mu(table(x, y))
                    for x in chain for y in chain)
                got = check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds
                assert got == expected


def _gated_subnorms(carrier, alphabet):
    return [mu for mu in enumerate_table_subsets(carrier.elements, alphabet)
            if check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds]


SUBNORM_ALPHABETS = {
    "two": (F(0), F(1)),
    "three": ALPHABET,
    "five": (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
    "unsorted": (F(1), F(0), F(1, 2)),
    "no-one": (F(0), F(1, 4), F(1, 2)),
    "float": (0.0, 0.5, 1.0),
}


class TestGeneratedSubnorms:
    """generate_subnorm_tables in the unit interval against the gate it
    stands in for: every table over the alphabet, filtered by the
    t-subnorm check."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    @pytest.mark.parametrize("alphabet", SUBNORM_ALPHABETS.values(),
                             ids=SUBNORM_ALPHABETS.keys())
    def test_same_maps_names_and_order_as_the_gate(self, size, alphabet):
        chain = uniform_chain(size)
        tables = enumerate_chain_tnorm_tables(chain)
        assert len(tables) == {2: 1, 3: 2, 4: 6, 5: 22}[size]
        generated_any = False
        for table in tables:
            carrier = CarrierMonoid.from_connective(table.as_connective(),
                                                    FinitePoints(chain))
            gated = _gated_subnorms(carrier, alphabet)
            generated = list(generate_subnorm_tables(
                carrier.elements, carrier.op, carrier.identity, alphabet,
                UNIT_INTERVAL))
            assert [mu.name for mu in generated] == [mu.name for mu in gated]
            assert ([[mu(x) for x in chain] for mu in generated]
                    == [[mu(x) for x in chain] for mu in gated])
            generated_any = generated_any or bool(generated)
        # the constant-one map is a t-subnorm whenever 1 is a value
        assert generated_any == (1 in alphabet)

    def test_element_listed_twice_keeps_the_gate_order(self):
        # as in a table map, the first 1/2 is never read: its value is free
        elements = (F(0), F(1, 2), F(1), F(1, 2))
        meet, leq = UNIT_INTERVAL.meet, UNIT_INTERVAL.leq
        gated = [mu for mu in enumerate_table_subsets(elements, ALPHABET)
                 if not _closure_witnesses(mu, elements, T_L, meet, leq)
                 and not _identity_witnesses(mu, F(1), UNIT_INTERVAL.top)]
        generated = list(generate_subnorm_tables(elements, T_L, F(1), ALPHABET,
                                                 UNIT_INTERVAL))
        assert [mu.name for mu in generated] == [mu.name for mu in gated]
        # mu(1) = 1, mu(1/2) <= mu(0) from T_L(1/2, 1/2) = 0, any first 1/2
        assert len(gated) == 6 * 3

    def test_product_leaving_the_carrier_raises_like_the_gate(self):
        carrier = CarrierMonoid.from_connective(T_P, GridDomain(2))
        with pytest.raises(TotalityError) as gated:
            _gated_subnorms(carrier, ALPHABET)
        with pytest.raises(TotalityError) as generated:
            list(generate_subnorm_tables(carrier.elements, carrier.op,
                                         carrier.identity, ALPHABET,
                                         UNIT_INTERVAL))
        assert str(generated.value) == str(gated.value)


class TestSubgroup:
    def test_subgroup_indicator_passes(self):
        g4 = cyclic_group(4)
        assert check_fuzzy_subgroup(indicator_subset({0, 2}), g4).holds
        assert check_fuzzy_subgroup(MU_ONE, g4).holds

    def test_generator_pair_fails(self):
        g4 = cyclic_group(4)
        assert check_fuzzy_subgroup(indicator_subset({0, 1}), g4).fails

    def test_group_construction_requires_inverses(self):
        elements = (0, 1)
        table = {(a, b): min(a, b) for a in elements for b in elements}
        with pytest.raises(DomainError):
            FiniteGroup.from_table(elements, table, 1)

    def test_table_carrier_names_the_first_failing_law(self):
        # subtraction mod 3: 0 is a right identity only
        elements = (0, 1, 2)
        minus = {(a, b): (a - b) % 3 for a in elements for b in elements}
        with pytest.raises(DomainError, match=r"identity law fails at 1$"):
            CarrierMonoid.from_table(elements, minus, 0)
        # 0 an identity, every product of 1 and 2 equal to 0:
        # (1 1) 2 = 2 but 1 (1 2) = 1
        odd = {(a, b): a + b if 0 in (a, b) else 0
               for a in elements for b in elements}
        with pytest.raises(DomainError,
                           match=r"associativity fails at \(1, 1, 2\)$"):
            CarrierMonoid.from_table(elements, odd, 0)


class TestIntersection:
    def test_pointwise_min(self):
        inter = intersect_fuzzy_subsets([MU_ID, MU_COMPLEMENT])
        assert inter(F(3, 10)) == F(3, 10)
        assert inter(F(4, 5)) == F(1, 5)
        assert intersect_fuzzy_subsets([MU_ONE, MU_ID])(F(2, 5)) == F(2, 5)

    def test_empty_intersection_is_full(self):
        assert intersect_fuzzy_subsets([])(F(1, 3)) == 1

    def test_subgroup_indicators_intersect_to_subgroup(self):
        g4 = cyclic_group(4)
        a = indicator_subset({0, 2})
        b = indicator_subset({0, 1, 2, 3})
        inter = intersect_fuzzy_subsets([a, b])
        assert check_fuzzy_subgroup(inter, g4).holds
        assert [inter(x) for x in g4.elements] == [1, 0, 1, 0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([MU_ONE, MU_ZERO, MU_ID]), min_size=1,
                    max_size=3))
    def test_intersection_of_subgroupoids_is_subgroupoid(self, mus):
        carrier = min_carrier(GridDomain(5))
        for mu in mus:
            assert check_fuzzy_subgroupoid(mu, carrier).holds
        assert check_fuzzy_subgroupoid(intersect_fuzzy_subsets(mus), carrier).holds


class TestFuzzyProperties:
    def test_constant_map_is_never_fuzzy_strict(self):
        rep = check_fuzzy_property(MU_ONE, T_L, FuzzyProp.FSTRICT, D10)
        assert rep.fails

    def test_gating_tags_non_subnorms(self):
        rep = check_fuzzy_property(MU_ID, T_P, FuzzyProp.FSTRICT, D10)
        assert rep.verdict is Verdict.VACUOUS
        assert "NOT_A_SUBNORM" in rep.tags
        assert rep.witnesses  # carries the subnorm violations

    def test_fcancel_min_saturates(self):
        rep = check_fuzzy_property(MU_ID, T_M, FuzzyProp.FCANCEL, D10)
        assert rep.fails
        for w in rep.witnesses:
            x, y, z = w.inputs
            assert MU_ID(T_M(x, y)) == MU_ID(T_M(x, z)) and x != 0 and y != z

    def test_fcondcancel_reports_strong_form_separately(self):
        rep = check_fuzzy_property(MU_ID, T_M, FuzzyProp.FCONDCANCEL, D10)
        # weaker conclusion mu(y) = mu(z) fails on the same witnesses here
        assert rep.fails
        assert rep.details["strong_form_violations"] >= len(rep.witnesses)

    def test_farch_constant_map_tagged(self):
        rep = check_fuzzy_property(MU_ONE, T_L, FuzzyProp.FARCH, D10)
        assert rep.verdict is Verdict.VACUOUS
        assert "VACUOUS-BY-CONSTANCY" in rep.tags

    # two t-subnorms of T_P on the grid where the premises of prop3.6 hold;
    # FSTRICT takes x over the interior, FCANCEL every x but the bottom
    MU2 = FuzzySubset("mu2", lambda x: 1 if x == 1 else F(1, 2) - x / 4)
    MU1 = FuzzySubset("mu1", lambda x: 1 if x == 1 else 1 - x)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_mu2_meets_every_cancellation_premise(self, n):
        for prop in (FuzzyProp.FSTRICT, FuzzyProp.FCANCEL, FuzzyProp.FCONDCANCEL):
            rep = check_fuzzy_property(self.MU2, T_P, prop, GridDomain(n))
            assert rep.verdict is Verdict.HOLDS, prop

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_mu1_is_fuzzy_strict_and_fails_cancellation_at_the_top(self, n):
        dom = GridDomain(n)
        strict = check_fuzzy_property(self.MU1, T_P, FuzzyProp.FSTRICT, dom)
        assert strict.verdict is Verdict.HOLDS
        cancel = check_fuzzy_property(self.MU1, T_P, FuzzyProp.FCANCEL, dom)
        assert cancel.verdict is Verdict.FAILS
        assert [(w.inputs, w.values) for w in cancel.witnesses] == [
            ((1, 0, 1), (1, 1))]

    def test_flimit_constant_map_holds(self):
        for conn in BUILTIN_TNORMS:
            rep = check_fuzzy_property(MU_ONE, conn, FuzzyProp.FLIMIT, D10)
            assert rep.holds, conn.name

    def test_flimit_identity_map_on_lukasiewicz(self):
        rep = check_fuzzy_property(MU_ID, T_L, FuzzyProp.FLIMIT, D10,
                                   gate=False)
        assert rep.holds

    def test_flimit_budget_caps_the_stationarity_test(self):
        # min is stationary from x^2 on, but a cap of 1 compares no two
        # powers; the epsilon rule on x^2 = x cannot reach mu(0) = 1
        rep = check_fuzzy_property(MU_COMPLEMENT, T_M, FuzzyProp.FLIMIT,
                                   GridDomain(10),
                                   SearchBudget(n_max=1, iter_cap=1), gate=False)
        assert rep.verdict is Verdict.VACUOUS
        assert "budget-exhausted" in rep.tags
        assert rep.details["inconclusive_points"] == 9

    def test_ungated_evaluation_matches_definition(self):
        rep = check_fuzzy_property(MU_ID, T_P, FuzzyProp.FSTRICT, D10,
                                   gate=False)
        assert rep.fails  # product values collide under mu at y<z with x=0-free quantifier


class TestNotStrictlyDecreasing:
    def test_identity_map_vacuous_premise(self):
        rep = check_not_strictly_decreasing(MU_ID, T_P, D10)
        assert rep.verdict is Verdict.VACUOUS
        assert "premise-not-subnorm" in rep.tags

    def test_complement_fails_the_premise_too(self):
        rep = check_not_strictly_decreasing(MU_COMPLEMENT, T_P, D10)
        assert rep.verdict is Verdict.VACUOUS
        assert rep.details["mu_is_subnorm"] is False

    def test_full_subset_consistent(self):
        rep = check_not_strictly_decreasing(MU_ONE, T_P, D10)
        assert rep.holds
        x, y = rep.witnesses[0].inputs
        assert x < y and MU_ONE(x) <= MU_ONE(y)

    def test_non_strict_operator_vacuous(self):
        rep = check_not_strictly_decreasing(MU_ONE, T_M, D10)
        assert rep.verdict is Verdict.VACUOUS
        assert "premise-not-strict" in rep.tags


class TestCore:
    def test_full_subset_core_is_everything(self):
        carrier = min_carrier()
        assert extract_core(MU_ONE, carrier) == carrier.elements

    def test_peaked_subset_core_is_identity(self):
        carrier = min_carrier()
        mu = table_subset({p: (F(1) if p == 1 else F(1, 2))
                           for p in carrier.elements})
        assert extract_core(mu, carrier) == (F(1),)

    def test_step_core_is_upper_segment(self):
        carrier = min_carrier()
        core = extract_core(step_subset(F(1, 2)), carrier)
        assert core == tuple(p for p in carrier.elements if p >= F(1, 2))
        assert core_is_submonoid(core, carrier)

    def test_core_closed_for_passing_submonoids(self):
        dom = FinitePoints(uniform_chain(3))
        carrier = CarrierMonoid.from_connective(T_M, dom)
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        kind = f_submonoid_kind(f)
        for mu in enumerate_table_subsets(dom.points, ALPHABET):
            if check_fuzzy_submonoid(mu, carrier, kind).holds:
                assert core_is_submonoid(extract_core(mu, carrier), carrier)


class TestDiscreteSubalgebra:
    def test_mixed_grid_closed_under_both_constructions(self):
        pts = mixed_grid_points(F(1, 2), 2, 2)
        assert pts == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        u = construct_uninorm_min(F(1, 2), T_L, S_L)
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        assert check_discrete_subalgebra(pts, u).holds
        assert check_discrete_subalgebra(pts, f).holds

    def test_product_escapes_sparse_set(self):
        rep = check_discrete_subalgebra((F(0), F(1, 3), F(1)), T_P)
        assert rep.fails
        assert rep.witnesses[0].inputs == (F(1, 3), F(1, 3))
        assert rep.witnesses[0].values == (F(1, 9),)

    def test_requires_bounds(self):
        with pytest.raises(DomainError):
            check_discrete_subalgebra((F(1, 4), F(1, 2)), T_M)


def test_substructure_checks_count_their_instances(monkeypatch):
    """Closure tuples per arity, plus the identity or the inverse
    conditions, plus one per pair for a discrete subalgebra."""
    import fuzznorm.fuzzy as fuzzy_mod
    seen = []
    original = fuzzy_mod.conclude

    def recording(*args, instances=None, **kwargs):
        seen.append(instances)
        return original(*args, instances=instances, **kwargs)

    monkeypatch.setattr(fuzzy_mod, "conclude", recording)
    carrier = min_carrier(GridDomain(2))  # 3 points
    check_fuzzy_subgroupoid(MU_ID, carrier)
    check_fuzzy_submonoid(MU_ONE, carrier, KIND_T_SUBNORM)
    check_fuzzy_submonoid(MU_ONE, carrier, a_submonoid_kind(A_MIN))
    check_fuzzy_subgroup(MU_ONE, cyclic_group(4))
    check_discrete_subalgebra(mixed_grid_points(F(1, 2), 2, 2), T_M)
    assert seen == [9, 9 + 1, 9 + 27 + 1, 16 + 4, 25]


_UMIN = construct_uninorm_min(F(1, 2), T_P, S_P)
_UMAX = construct_uninorm_max(F(1, 2), T_P, S_P)
_A_MAX = Connective("agg:max", Role.AGGREGATION, max)
_ROLE_MESSAGE = "{}-fuzzy-submonoid needs a combiner of role {}"
# (case, operator, message) for each case id and an operator of another
# role, then for each case with a shape check and an operator of its
# kind's role but not of the case's shape
_CASE_REFUSALS = [
    *[pytest.param(case, _UMIN, _ROLE_MESSAGE.format("a", "aggregation"),
                   id=f"{case}-role")
      for case in ("prop16", "prop17", "prop18")],
    *[pytest.param(case, A_MIN, _ROLE_MESSAGE.format("u", "uninorm"),
                   id=f"{case}-role")
      for case in ("prop19", "disjunctive-uninorm", "prop20")],
    *[pytest.param(case, _UMAX, _ROLE_MESSAGE.format("f", "nullnorm"),
                   id=f"{case}-role")
      for case in ("prop23", "prop24", "prop25-tnorm", "prop25-tconorm")],
    *[pytest.param(case, _A_MAX, "aggregation operator is not min",
                   id=f"{case}-shape") for case in ("prop17", "prop18")],
    pytest.param("disjunctive-uninorm", _UMIN,
                 "this case needs a disjunctive uninorm",
                 id="disjunctive-uninorm-shape"),
    pytest.param("prop20", _UMIN, "upper square must act as max",
                 id="prop20-shape"),
    # the Lukasiewicz t-norm on the upper square is below min there
    *[pytest.param(case, construct_nullnorm(S_L, F(1, 2), T_L),
                   "upper square must act as min", id=f"{case}-shape")
      for case in ("prop25-tnorm", "prop25-tconorm")],
]


class TestCharacterizations:
    def grid3(self):
        return FinitePoints(uniform_chain(3))

    def test_prop17_sweep(self):
        dom = self.grid3()
        for mu in enumerate_table_subsets(dom.points, ALPHABET):
            rep = characterize_special_cases("prop17", mu, A_MIN, dom)
            assert rep.holds, mu.name
            assert rep.details["rhs_closed_form"] == (mu(F(1)) == 1)

    def test_prop18_sweep(self):
        dom = self.grid3()
        for mu in enumerate_table_subsets(dom.points, ALPHABET):
            assert characterize_special_cases("prop18", mu, A_MIN, dom).holds

    def test_min_aggregation_validated_at_every_pair(self):
        # min on the even grid points, below min at (1/8, 1/8)
        def almost_min(*xs):
            return ZERO if xs == (F(1, 8), F(1, 8)) else min(xs)

        fake = Connective("agg:almost-min", Role.AGGREGATION, almost_min)
        for case in ("prop17", "prop18"):
            with pytest.raises(DomainError):
                characterize_special_cases(case, MU_ONE, fake, GridDomain(8))

    def test_disjunctive_case_rejects_wrong_operator(self):
        u_conj = construct_uninorm_min(F(1, 2), T_P, S_P)
        with pytest.raises(DomainError):
            characterize_special_cases("disjunctive-uninorm", MU_ONE, u_conj,
                                       self.grid3())

    def test_disjunctive_case_identity_map(self):
        u = construct_uninorm_max(F(1, 2), T_P, S_P)
        rep = characterize_special_cases("disjunctive-uninorm", MU_ID, u,
                                         self.grid3())
        assert rep.holds
        assert rep.details["lhs_submonoid_check"] is False
        assert rep.details["rhs_closed_form"] is False

    def test_prop20_step_subset_passes_both_sides(self):
        u = construct_uninorm_min(F(1, 2), T_P, S_M)
        rep = characterize_special_cases("prop20", step_subset(F(1, 2)), u, D10)
        assert rep.holds
        assert rep.details["lhs_submonoid_check"] is True
        assert rep.details["rhs_closed_form"] is True

    def test_prop20_shape_validated(self):
        u_wrong = construct_uninorm_min(F(1, 2), T_P, S_P)  # upper square not max
        with pytest.raises(DomainError):
            characterize_special_cases("prop20", MU_ONE, u_wrong, D10)

    def test_prop24_sweep(self):
        dom = self.grid3()
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        for mu in enumerate_table_subsets(dom.points, ALPHABET):
            assert characterize_special_cases("prop24", mu, f, dom).holds

    def test_prop25_sweeps(self):
        dom = self.grid3()
        f = construct_nullnorm(S_L, F(1, 2), T_M)
        for case in ("prop25-tnorm", "prop25-tconorm"):
            for mu in enumerate_table_subsets(dom.points, ALPHABET):
                assert characterize_special_cases(case, mu, f, dom).holds

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            characterize_special_cases("prop99", MU_ONE, A_MIN, self.grid3())

    @pytest.mark.parametrize("case, conn", [
        ("prop16", A_MIN),
        ("prop19", construct_uninorm_min(F(1, 2), T_P, S_P)),
        ("prop19", construct_uninorm_max(F(1, 2), T_P, S_P)),
        ("prop23", construct_nullnorm(S_L, F(1, 2), T_L)),
    ], ids=["prop16", "prop19-umin", "prop19-umax", "prop23"])
    def test_core_cases_sweep(self, case, conn):
        """A combiner-fuzzy submonoid has a submonoid as its core; on the
        min carrier the core is closed exactly when it holds 1."""
        dom = self.grid3()
        for mu in enumerate_table_subsets(dom.points, ALPHABET):
            rep = characterize_special_cases(case, mu, conn, dom)
            assert rep.holds, mu.name
            assert rep.details["relation"] == "implies"
            assert rep.details["rhs_closed_form"] == (mu(F(1)) == 1)

    @pytest.mark.parametrize("case, conn, message", _CASE_REFUSALS)
    def test_case_refuses_the_wrong_operator(self, case, conn, message):
        """The case's submonoid kind refuses an operator of another role
        before the case's shape check runs; an operator of the kind's
        role gets the shape check's message."""
        with pytest.raises(DomainError, match=message):
            characterize_special_cases(case, MU_ONE, conn, D10)

    @pytest.mark.parametrize("tag", [SubstructureTag.SUBMONOID,
                                     SubstructureTag.T_SUBNORM])
    def test_a_min_kind_refuses_a_combiner(self, tag):
        with pytest.raises(DomainError, match="uses the min combiner"):
            SubstructureKind(tag, A_MIN)


class TestRefutations:
    def family(self):
        return uninorm_family((F(1, 4), F(1, 2), F(3, 4)), (T_P, T_L),
                              (S_P, S_L))

    def test_identity_map_has_no_admitting_uninorm(self):
        dom = GridDomain(8)
        family = self.family()
        for carrier in (T_P, T_L, T_M):
            rep = refute_uninorm_existence(MU_ID, carrier, family, dom)
            assert rep.holds
            assert len(rep.witnesses) == len(family)
            for w in rep.witnesses:
                member_name, x, y = w.inputs
                e = next(m for m in family if m.name == member_name).identity
                assert x == e and y > e

    def test_complement_map_mirror_witnesses(self):
        dom = GridDomain(8)
        family = self.family()
        for carrier in (S_P, S_L, S_M):
            rep = refute_uninorm_existence(MU_COMPLEMENT, carrier, family, dom)
            assert rep.holds
            for w in rep.witnesses:
                member_name, x, y = w.inputs
                e = next(m for m in family if m.name == member_name).identity
                assert x == 1 - e and y < 1 - e

    def test_full_subset_always_admitted(self):
        rep = refute_uninorm_existence(MU_ONE, T_P, self.family(), GridDomain(8))
        assert rep.fails  # no refutation possible


class TestSubsetIO:
    def test_builtin_specs(self):
        assert parse_subset_spec("builtin:identity") is MU_ID
        assert parse_subset_spec("builtin:step(1/2)")(F(1, 4)) == F(1, 4)
        assert parse_subset_spec("builtin:step(1/2)")(F(1, 2)) == 1

    def test_table_json_round_trip(self):
        obj = {"form": "table", "entries": [["0", "1"], ["1/2", "3/4"], ["1", "1"]]}
        mu = subset_from_json(obj)
        assert mu(F(1, 2)) == F(3, 4)
        with pytest.raises(TotalityError):
            mu(F(1, 4))

    def test_bad_table_entries(self):
        with pytest.raises(InputFormatError):
            subset_from_json({"form": "table", "entries": [["0"]]})
        with pytest.raises(InputFormatError):
            subset_from_json({"form": "table", "entries": [["0", "7/2"]]})
        with pytest.raises(InputFormatError):
            subset_from_json({"entries": []})

    def test_table_values_outside_the_unit_interval_are_refused(self):
        # as the file reader and step_subset refuse them
        with pytest.raises(ValueError, match="got 3/2"):
            table_subset({F(0): F(3, 2), F(1): F(1)})
        with pytest.raises(ValueError, match="got -1/2"):
            table_subset({F(0): F(1), F(1): -0.5})
        # a typed float is read by its shortest decimal, as unit() reads it
        mu = table_subset({F(0): 0.1, F(1): "1/2"})
        assert mu.name == "table{0:1/10,1:1/2}" and mu(F(0)) == F(1, 10)

    def test_map_without_a_value_raises_totality_error(self):
        # a callable map, not a table: the error names the map and the point
        mu = FuzzySubset("probe", lambda x: None if x == F(1, 2) else x)
        grid = GridDomain(4)
        message = "membership map probe has no value at 1/2"
        with pytest.raises(TotalityError, match=message):
            check_fuzzy_submonoid(mu, CarrierMonoid.from_connective(T_M, grid))
        with pytest.raises(TotalityError, match=message):
            check_fuzzy_property(mu, T_P, FuzzyProp.FSTRICT, grid)

    def test_repeated_point_is_refused(self):
        with pytest.raises(InputFormatError, match="listed twice"):
            subset_from_json({"form": "table",
                              "entries": [["0", "1"], ["0/3", "0"]]})

    def test_carrier_json(self):
        obj = {"elements": ["0", "1/2", "1"], "identity": "1",
               "op": [["0", "0", "0"], ["0", "1/2", "1/2"], ["0", "1/2", "1"]]}
        carrier = carrier_from_json(obj)
        assert carrier.op(F(1, 2), F(1)) == F(1, 2)
        bad = dict(obj, op=[["0", "0", "0"], ["0", "1/2", "1"], ["0", "1/2", "1"]])
        with pytest.raises(InputFormatError):
            carrier_from_json(bad)
        with pytest.raises(InputFormatError, match="distinct"):
            carrier_from_json(dict(obj, elements=["0", "1/2", "2/4"]))
