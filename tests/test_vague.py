import json
import operator
from fractions import Fraction

import pytest

from fuzznorm import kernel, reports
from fuzznorm.carriers import FiniteGroup, cyclic_group
from fuzznorm.checker import check_axioms
from fuzznorm.connectives import T_D, T_L, T_M, T_P, Connective, Role
from fuzznorm.errors import BudgetExceededError, DomainError
from fuzznorm.reports import (GridDomain, Verdict, Witness, combine, conclude,
                              decide, dumps)
from fuzznorm.scalars import exact, format_scalar
from fuzznorm.suite import SuiteConfig, _vague_corpus
from fuzznorm.vague import (READINGS, VagueBinaryOp,
                            check_vague_binary_op, check_vague_cancellation,
                            check_vague_commutativity, check_vague_group_cancellation,
                            check_vague_monoid, check_vague_strict_monotone,
                            crisp_equality, crisp_vague_group,
                            induce_vague_tnorm, linear_equality,
                            make_fuzzy_equality, validate_fuzzy_equality,
                            vague_op_from_table)
from value_reference import degree_values, on_values

F = Fraction


def linear_fn(a, b):
    d = a - b
    return 1 - (d if d >= 0 else -d)


class TestFuzzyEquality:
    def test_linear_is_lukasiewicz_transitive(self):
        rep = validate_fuzzy_equality(linear_fn, T_L, GridDomain(10).points)
        assert rep.verdict is Verdict.HOLDS
        assert rep.details["separates_points"] is True

    def test_crisp_works_for_any_conjunction(self):
        pts = GridDomain(6).points
        for conn in (T_M, T_P, T_L, T_D):
            eq = crisp_equality(pts, conn)
            assert eq.validated and eq.report.details["separates_points"]

    def test_linear_fails_min_transitivity(self):
        rep = validate_fuzzy_equality(linear_fn, T_M, GridDomain(10).points)
        trans = rep.child("E3:transitivity")
        assert trans.verdict is Verdict.FAILS
        for w in trans.witnesses:
            x, y, z = w.inputs
            assert min(linear_fn(x, y), linear_fn(y, z)) > linear_fn(x, z)
        assert (F(0), F(1, 2), F(1)) in {w.inputs for w in trans.witnesses}

    def test_invalid_equality_is_refused_where_it_is_induced(self):
        eq = linear_equality(GridDomain(6).points, T_M)
        assert eq.validated is False
        with pytest.raises(DomainError):
            induce_vague_tnorm(eq, T_M)


def _parent_validation(raw, tnorm, carrier):
    """The equality validation in its earlier form, which called ``fn``
    at each visit of a pair, about 3n^3 times, as the witness reference."""
    carrier = tuple(map(exact, carrier))

    def fn(a, b):
        return exact(raw(a, b))
    dom = {"kind": "carrier", "size": len(carrier),
           "label": "{" + ",".join(format_scalar(x) for x in carrier) + "}"}
    refl_w = [Witness((x, x), (fn(x, x),)) for x in carrier if fn(x, x) != 1]
    symmetry = (((x, y), fn(x, y), fn(y, x))
                for i, x in enumerate(carrier) for y in carrier[i + 1:])
    transitivity = (((x, y, z), tnorm(fn(x, y), fn(y, z)), fn(x, z))
                    for x in carrier for y in carrier for z in carrier)
    n = len(carrier)
    return combine("fuzzy-equality", [
        conclude("E1:reflexivity", dom, refl_w, instances=n),
        decide("E2:symmetry", dom, operator.eq, symmetry, instances=n ** 2),
        decide("E3:transitivity", dom, operator.le, transitivity),
    ], dom, details={"tnorm": tnorm.name, "separates_points": all(
        x == y or fn(x, y) != 1 for x in carrier for y in carrier)})


def _lopsided(a, b):
    # neither reflexive nor symmetric
    return F(1) if a < b else a * b


def _assert_one_call_a_pair(fn, conn, pts):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return fn(a, b)
    report = validate_fuzzy_equality(counting, conn, pts)
    assert sorted(calls) == sorted((x, y) for x in pts for y in pts)
    assert dumps(report) == dumps(_parent_validation(fn, conn, pts))
    return report


@pytest.mark.parametrize("grid", [3, 4, 5, 6])
@pytest.mark.parametrize("conn", [T_M, T_P, T_L, T_D], ids=lambda c: c.name)
@pytest.mark.parametrize("form", ["crisp", "linear"])
def test_validation_calls_the_equality_once_a_pair(form, conn, grid):
    pts = GridDomain(grid).points
    fn = crisp_equality(pts, conn).fn if form == "crisp" else linear_fn
    _assert_one_call_a_pair(fn, conn, pts)


@pytest.mark.parametrize("form, failing", [
    ("half-apart", ["E3:transitivity"]),
    ("lopsided", ["E1:reflexivity", "E2:symmetry", "E3:transitivity"]),
])
def test_a_failed_validation_calls_the_equality_once_a_pair(form, failing):
    fn = _half_apart if form == "half-apart" else _lopsided
    report = _assert_one_call_a_pair(fn, T_M, GridDomain(4).points)
    assert [c.property_id for c in report.children if c.fails] == failing


class TestInducedOperator:
    def test_values(self):
        pts = GridDomain(10).points
        v = induce_vague_tnorm(linear_equality(pts, T_L), T_L)
        assert v(F(7, 10), F(1, 2), F(3, 10)) == F(9, 10)
        for x in pts:
            for y in pts:
                assert v(x, y, T_L(x, y)) == 1
            assert v(F(1), x, x) == 1

    def test_requires_validated_equality(self):
        pts = GridDomain(4).points
        broken = make_fuzzy_equality("broken", linear_fn, T_M, pts)
        assert not broken.validated
        with pytest.raises(DomainError):
            induce_vague_tnorm(broken, T_M)

    def test_induced_satisfies_vague_op_conditions(self):
        # needs the grid closed under the operator, else the degree-1
        # totality witness z = T(x, y) escapes the carrier
        pts = GridDomain(4).points
        for eq_maker, conn in ((linear_equality, T_L), (crisp_equality, T_M),
                               (crisp_equality, T_L), (crisp_equality, T_D)):
            v = induce_vague_tnorm(eq_maker(pts, conn), conn)
            assert check_vague_binary_op(v).verdict is Verdict.HOLDS

    def test_non_grid_closed_operator_loses_totality_only(self):
        pts = GridDomain(4).points
        v = induce_vague_tnorm(crisp_equality(pts, T_P), T_P)
        rep = check_vague_binary_op(v)
        assert rep.child("V1:extensionality").holds
        assert rep.child("V2:functionality").holds
        tot = rep.child("V3:totality")
        assert tot.fails
        # exactly the pairs whose product leaves the grid
        escaped = {(x, y) for x in pts for y in pts if x * y not in pts}
        assert {w.inputs for w in tot.witnesses} == escaped


class TestVagueMonoid:
    def test_crisp_five_point_chain(self):
        pts = GridDomain(4).points
        v = induce_vague_tnorm(crisp_equality(pts, T_L), T_L)
        rep = check_vague_monoid(v)
        assert rep.verdict is Verdict.HOLDS
        assert rep.details["identity"] == "1"

    def test_linear_equality_grid(self):
        pts = GridDomain(4).points
        v = induce_vague_tnorm(linear_equality(pts, T_L), T_L)
        assert check_vague_monoid(v).verdict is Verdict.HOLDS

    def test_functionality_violation_tagged(self):
        pts = (F(0), F(1))
        eq = crisp_equality(pts, T_M)
        table = {(x, y, z): F(1) for x in pts for y in pts for z in pts}
        bad = vague_op_from_table("bad", pts, eq, table)
        rep = check_vague_monoid(bad)
        assert rep.verdict is Verdict.FAILS
        assert "NOT_VAGUE_OP" in rep.tags

    def test_budget_refusal(self, monkeypatch):
        pts = GridDomain(10).points
        v = induce_vague_tnorm(crisp_equality(pts, T_L), T_L)
        monkeypatch.setattr(reports, "MAX_TUPLES", 1000)
        with pytest.raises(BudgetExceededError):
            check_vague_monoid(v)

    def test_four_and_five_tuple_loops_are_budgeted(self, monkeypatch):
        # 3 points: 3^4 = 81 tuples fit in 100, 3^5 = 243 do not; 4 points:
        # 4^4 = 256 do not
        monkeypatch.setattr(reports, "MAX_TUPLES", 100)
        three, four = (induce_vague_tnorm(crisp_equality(GridDomain(n).points,
                                                         T_M), T_M)
                       for n in (2, 3))
        assert check_vague_commutativity(three).holds
        assert check_vague_cancellation(three).fails  # min is not cancellative
        with pytest.raises(BudgetExceededError, match="strict monotonicity"):
            check_vague_strict_monotone(three)
        for check, what in ((check_vague_commutativity, "commutativity"),
                            (check_vague_cancellation, "cancellation")):
            with pytest.raises(BudgetExceededError, match=what):
                check(four)

    def test_budgets_bracket_the_gate(self, monkeypatch):
        # the 6-tuple budget, then the V1-V3 gate, then the 7-tuple budget:
        # 2^6 = 64 tuples fit in 100, 2^7 = 128 do not
        monkeypatch.setattr(reports, "MAX_TUPLES", 100)
        pts = (F(0), F(1))
        eq = crisp_equality(pts, T_M)
        bad = vague_op_from_table("bad", pts, eq, dict.fromkeys(
            [(x, y, z) for x in pts for y in pts for z in pts], F(1)))
        assert "NOT_VAGUE_OP" in check_vague_monoid(bad).tags
        with pytest.raises(BudgetExceededError, match="associativity"):
            check_vague_monoid(induce_vague_tnorm(eq, T_M))
        monkeypatch.setattr(reports, "MAX_TUPLES", 50)
        with pytest.raises(BudgetExceededError, match="extensionality"):
            check_vague_monoid(bad)

    def test_associativity_witnesses_re_evaluate(self):
        # |x - y| is closed on {0, 1/2, 1} with identity 0, but not
        # associative: (1 - 1/2) - 1/2 = 0 while 1 - (1/2 - 1/2) = 1
        absdiff = Connective("absdiff", Role.TNORM, lambda x, y: abs(x - y),
                             identity=F(0))
        eq = crisp_equality((F(0), F(1, 2), F(1)), T_M)
        v = induce_vague_tnorm(eq, absdiff)
        assert check_vague_binary_op(v).holds
        rep = check_vague_monoid(v)
        assert rep.verdict is Verdict.FAILS
        assert rep.details["identity"] == "0"
        assert len(rep.witnesses) == 2
        for w in rep.witnesses:
            x, y, z, d, m, q, r = w.inputs
            lhs = min(v(y, z, d), v(x, d, m), v(x, y, q), v(q, z, r))
            assert w.values == (lhs, eq(m, r)) and lhs > eq(m, r)

    @pytest.mark.parametrize("equality", [crisp_equality, linear_equality])
    def test_gate_and_loop_share_one_compiled_order(self, monkeypatch, equality):
        compile_degrees, calls = kernel.compile_degrees, []

        def counted(*args):
            calls.append(args)
            return compile_degrees(*args)

        monkeypatch.setattr(kernel, "compile_degrees", counted)
        pts = GridDomain(3).points
        rep = check_vague_monoid(induce_vague_tnorm(equality(pts, T_L), T_L))
        assert rep.verdict is Verdict.HOLDS
        assert len(calls) == 1


class TestVagueCommutativity:
    def test_induced_always_commutes(self):
        pts = GridDomain(6).points
        for eq_maker, conn in ((crisp_equality, T_M), (linear_equality, T_L)):
            v = induce_vague_tnorm(eq_maker(pts, conn), conn)
            assert check_vague_commutativity(v).verdict is Verdict.HOLDS

    def test_constructed_violation(self):
        pts = (F(0), F(1, 2), F(1))
        eq = crisp_equality(pts, T_M)
        table = {(x, y, z): F(0) for x in pts for y in pts for z in pts}
        # degrees claim a*b is 0 but b*a is 1, with E(0,1) = 0
        table[(F(0), F(1), F(0))] = F(1)
        table[(F(1), F(0), F(1))] = F(1)
        for x, y in ((F(0), F(0)), (F(1), F(1)), (F(1, 2), F(1, 2))):
            table[(x, y, x)] = F(1)
        bad = vague_op_from_table("bad", pts, eq, table)
        bad.underlying = T_M
        rep = check_vague_commutativity(bad)
        assert rep.verdict is Verdict.FAILS


@pytest.mark.parametrize("check", [
    check_vague_commutativity, check_vague_strict_monotone,
    check_vague_cancellation])
def test_a_table_that_stands_for_no_tnorm_is_refused(check):
    pts = (F(0), F(1))
    eq = crisp_equality(pts, T_M)
    bare = vague_op_from_table("bare", pts, eq, {
        (x, y, z): F(int(min(x, y) == z)) for x in pts for y in pts for z in pts})
    assert bare.underlying is None
    with pytest.raises(DomainError, match="bare stands for no t-norm"):
        check(bare)
    bare.underlying = T_M
    assert check(bare).to_json()["domain"]["underlying"] == T_M.name


class TestMonotonicityAndCancellation:
    def test_product_fails_at_zero_section(self):
        pts = GridDomain(10).points
        v = induce_vague_tnorm(crisp_equality(pts, T_P), T_P)
        rep = check_vague_strict_monotone(v)
        assert rep.fails
        assert rep.details["reading"] == "any-degree"
        w = rep.witnesses[0]
        x, y, z, a, b = w.inputs
        assert x < y and not a < b

    def test_min_fails(self):
        pts = GridDomain(6).points
        v = induce_vague_tnorm(crisp_equality(pts, T_M), T_M)
        assert check_vague_strict_monotone(v).fails
        assert check_vague_cancellation(v).fails

    def test_readings_are_recorded(self):
        pts = GridDomain(4).points
        v = induce_vague_tnorm(crisp_equality(pts, T_P), T_P)
        for reading in READINGS:
            s = check_vague_strict_monotone(v, reading)
            c = check_vague_cancellation(v, reading)
            assert s.details["reading"] == reading
            assert c.details["reading"] == reading
        with pytest.raises(DomainError):
            check_vague_strict_monotone(v, "loose")

    @pytest.mark.parametrize("reference", [False, True], ids=["ids", "values"])
    def test_strict_pairs_points_by_order_not_position(self, monkeypatch, reference):
        if reference:
            on_values(monkeypatch)
        pts = GridDomain(4).points
        for reading in READINGS:
            ascending, descending = (
                check_vague_strict_monotone(
                    induce_vague_tnorm(crisp_equality(carrier, T_M), T_M), reading)
                for carrier in (pts, pts[::-1]))
            assert descending.verdict is ascending.verdict
            assert descending.details == ascending.details
            assert ({w.inputs for w in descending.witnesses}
                    == {w.inputs for w in ascending.witnesses})
            assert all(x < y for x, y, *_ in (w.inputs for w in descending.witnesses))

    def test_degenerate_carrier_cancels(self):
        # the one-point carrier is the only place the law can hold: every
        # larger carrier has matching degrees through the zero section
        pts = (F(1),)
        v = induce_vague_tnorm(crisp_equality(pts, T_M), T_M)
        assert check_vague_cancellation(v).verdict is Verdict.HOLDS
        assert check_vague_strict_monotone(v).verdict is Verdict.VACUOUS

    def test_prop12_no_counterexample_across_corpus(self):
        pts = GridDomain(6).points
        corpus = [induce_vague_tnorm(crisp_equality(pts, t), t)
                  for t in (T_M, T_P, T_L)]
        corpus.append(induce_vague_tnorm(linear_equality(pts, T_L), T_L))
        for v in corpus:
            for reading in READINGS:
                if check_vague_strict_monotone(v, reading).holds:
                    assert check_vague_cancellation(v, reading).holds


def classical_strict_oracle(conn, pts):
    """Degree-stripped form of the vague law, computed from the operator."""
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            for z in pts:
                for a in pts:
                    for b in pts:
                        if ((conn(x, z) == a) == (conn(y, z) == b)) and not a < b:
                            return False
    return True


def classical_cancel_oracle(conn, pts):
    for a in pts:
        for b in pts:
            for x in pts:
                for c in pts:
                    if ((conn(a, x) == c) == (conn(b, x) == c)) and a != b:
                        return False
    return True


class TestDegeneration:
    # with crisp equality the vague checks reduce to crisp statements
    # about the operator; recompute those independently and compare
    def test_crisp_equality_degenerates_to_classical(self):
        dom = GridDomain(4)
        pts = dom.points
        for conn in (T_M, T_P, T_L, T_D):
            v = induce_vague_tnorm(crisp_equality(pts, conn), conn)
            axioms = check_axioms(conn, dom)
            if all(conn(x, y) in pts for x in pts for y in pts):
                # monoid gates on totality, which needs grid closure
                assert check_vague_monoid(v).holds == (
                    axioms.child("T2:associativity").holds
                    and axioms.child("T4:boundary").holds)
            assert check_vague_commutativity(v).holds == \
                axioms.child("T1:commutativity").holds
            assert check_vague_strict_monotone(v).holds == \
                classical_strict_oracle(conn, pts)
            assert check_vague_cancellation(v).holds == \
                classical_cancel_oracle(conn, pts)


class TestTableIO:
    def test_equality_table_round_trip(self):
        from fuzznorm.vague import equality_from_json
        pts = [F(0), F(1, 2), F(1)]
        entries = [[str(a), str(b), str(1 - abs(a - b))]
                   for a in pts for b in pts]
        eq = equality_from_json({"form": "table", "entries": entries}, T_L)
        assert eq.validated
        assert eq.carrier == tuple(pts)
        assert eq(F(0), F(1, 2)) == F(1, 2)

    def test_invalid_equality_table_reported(self):
        from fuzznorm.vague import equality_from_json
        entries = [["0", "0", "1"], ["1", "1", "1"],
                   ["0", "1", "1"], ["1", "0", "1/2"]]  # asymmetric
        eq = equality_from_json({"form": "table", "entries": entries}, T_M)
        assert not eq.validated

    def test_vague_table_schema(self):
        from fuzznorm.vague import vague_table_from_json
        pts = (F(0), F(1))
        eq = crisp_equality(pts, T_M)
        entries = [[str(x), str(y), str(z), str(F(1) if min(x, y) == z else F(0))]
                   for x in pts for y in pts for z in pts]
        op = vague_table_from_json({"form": "table", "entries": entries}, eq)
        assert check_vague_binary_op(op).verdict is Verdict.HOLDS

    def test_table_degrees_outside_the_unit_interval_are_refused(self):
        pts = (F(0), F(1))
        eq = crisp_equality(pts, T_M)
        table = {(x, y, z): F(int(min(x, y) == z))
                 for x in pts for y in pts for z in pts}
        for bad, shown in ((F(3, 2), "3/2"), (-0.5, "-1/2")):
            with pytest.raises(ValueError, match=f"got {shown}"):
                vague_op_from_table("bad", pts, eq, {**table, (F(0), F(0), F(0)): bad})
        # a float degree is read as the rational it is
        op = vague_op_from_table("float", pts, eq, {**table, (F(0), F(1), F(1)): 0.1})
        assert degree_values(op)[(F(0), F(1), F(1))] == F(0.1) != F(1, 10)

    def test_bad_entry_arity(self):
        from fuzznorm.errors import InputFormatError
        from fuzznorm.vague import equality_from_json
        with pytest.raises(InputFormatError):
            equality_from_json({"form": "table", "entries": [["0", "1"]]}, T_M)


def _group_op(group, edits):
    """The crisp vague group of ``group`` with the degrees of ``edits``."""
    crisp = crisp_vague_group(group)
    return vague_op_from_table("edited", group.elements, crisp.equality,
                               {**degree_values(crisp), **edits})


class TestVagueGroups:
    def test_cyclic_groups_cancel(self):
        for n in (3, 4):
            group = cyclic_group(n)
            v = crisp_vague_group(group)
            assert check_vague_group_cancellation(v, group).verdict is Verdict.HOLDS

    def test_a_crisp_group_is_the_operation_its_product_induces(self):
        group = cyclic_group(4)
        v = crisp_vague_group(group)
        assert isinstance(v, VagueBinaryOp) and v.underlying is None
        assert v.label == "Z4" and v.tnorm is T_M
        assert degree_values(v) == {
            (F(a), F(b), F(c)): F(int((a + b) % 4 == c))
            for a in range(4) for b in range(4) for c in range(4)}

    def test_broken_inverse_is_a_domain_error(self):
        group = cyclic_group(3)
        broken = _group_op(group, {(2, 1, 0): F(1, 2)})  # inverse degree below 1
        with pytest.raises(DomainError, match="inverse degree below 1 at element 1"):
            check_vague_group_cancellation(broken, group)

    def test_broken_identity_is_a_domain_error(self):
        group = cyclic_group(3)
        broken = _group_op(group, {(0, 2, 2): F(1, 2)})  # identity degree below 1
        with pytest.raises(DomainError, match="identity degree below 1 at element 2"):
            check_vague_group_cancellation(broken, group)

    def test_an_operation_on_other_points_is_a_domain_error(self):
        v = crisp_vague_group(cyclic_group(3))
        for group in (cyclic_group(4), cyclic_group(2)):
            with pytest.raises(DomainError, match="Z3 is not on the elements of Z"):
                check_vague_group_cancellation(v, group)

    def test_a_group_of_labels_is_refused(self):
        group = FiniteGroup.from_table(
            ("e", "a"), {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
                         ("a", "a"): "e"}, "e", label="Z2")
        with pytest.raises(DomainError, match="distinct numbers"):
            crisp_vague_group(group)

    def test_extra_product_degree_breaks_cancellation(self):
        # degree 1 at both 0 + 1 = 1 and "0 + 2 = 1"
        group = cyclic_group(3)
        v = _group_op(group, {(0, 2, 1): F(1)})
        rep = check_vague_group_cancellation(v, group)
        assert rep.verdict is Verdict.FAILS
        assert len(rep.witnesses) == 4
        assert ("L", 0, 1, 2, 1) in {w.inputs for w in rep.witnesses}
        for w in rep.witnesses:
            side, a, b, c, u = w.inputs
            if side == "L":
                lhs = min(v(a, b, u), v(a, c, u))
            else:
                lhs = min(v(b, a, u), v(c, a, u))
            assert w.values == (lhs, v.equality(b, c)) and lhs > v.equality(b, c)
        assert rep.to_json()["witnesses"][0]["inputs"] == ["L", "0", "1", "2", "1"]

    def test_ids_and_values_report_alike(self, monkeypatch):
        """Z3 and Z4 hold and an extra product degree fails, with the
        same report bytes on the compiled order and on the value
        reference."""
        cases = [(cyclic_group(n), {}) for n in (3, 4)]
        cases.append((cyclic_group(3), {(0, 2, 1): F(1), (1, 1, 0): F(1, 2)}))

        def run():
            return [dumps(check_vague_group_cancellation(_group_op(g, d), g))
                    for g, d in cases]
        on_ids = run()
        on_values(monkeypatch)
        assert run() == on_ids
        assert [json.loads(r)["verdict"] for r in on_ids] == [
            "HOLDS_ON_DOMAIN", "HOLDS_ON_DOMAIN", "FAILS"]


def test_vague_checks_count_their_instances(monkeypatch):
    """Every tuple each condition quantifies over counts, also the ones
    cut off at the bottom degree: n^2 and n^3 for the equality, n^6, n^4
    and n^2 for V1-V3, n^7 for the monoid, n^4 for commutativity and
    2 n^4 for group cancellation."""
    import fuzznorm.vague as vague_mod
    seen = []
    original = reports.conclude

    def recording(property_id, *args, instances=None, **kwargs):
        seen.append((property_id, instances))
        return original(property_id, *args, instances=instances, **kwargs)

    # the decided conditions conclude in reports.decide
    monkeypatch.setattr(reports, "conclude", recording)
    monkeypatch.setattr(vague_mod, "conclude", recording)
    pts = GridDomain(2).points  # n = 3
    v = induce_vague_tnorm(crisp_equality(pts, T_M), T_M)
    group = cyclic_group(4)
    vgroup = crisp_vague_group(group)
    seen.clear()  # the equalities were validated on construction
    validate_fuzzy_equality(v.equality.fn, T_M, pts)
    check_vague_monoid(v)
    check_vague_commutativity(v)
    check_vague_group_cancellation(vgroup, group)
    assert seen == [
        ("E1:reflexivity", 3), ("E2:symmetry", 9), ("E3:transitivity", 27),
        ("V1:extensionality", 3 ** 6), ("V2:functionality", 81),
        ("V3:totality", 9), ("vague-monoid", 3 ** 7),
        ("vague-commutativity", 81), ("vague-group-cancellation", 2 * 4 ** 4)]


def test_all_bottom_degrees_hold_on_every_tuple(monkeypatch):
    """A table whose degrees are all bottom streams no case to decide: the
    tuples hold at the bottom degree and still count, so V1, V2,
    commutativity and the monoid loop hold on n^6, n^4, n^4 and n^7
    tuples rather than turning VACUOUS on none."""
    import itertools

    import fuzznorm.vague as vague_mod
    seen = {}
    original = reports.conclude

    def recording(property_id, *args, instances=None, **kwargs):
        rep = original(property_id, *args, instances=instances, **kwargs)
        seen[property_id] = (rep.verdict, instances)
        return rep

    monkeypatch.setattr(reports, "conclude", recording)
    monkeypatch.setattr(vague_mod, "conclude", recording)
    pts = GridDomain(2).points  # n = 3
    op = vague_op_from_table("bottom", pts, crisp_equality(pts, T_M),
                             dict.fromkeys(itertools.product(pts, repeat=3), F(0)))
    check_vague_binary_op(op)
    op.underlying = T_M
    check_vague_commutativity(op)
    # the monoid check itself stops at V3 (no degree 1): run its core
    monoid = vague_mod._on_degree_order(op, lambda *on: vague_mod._monoid(
        *on, "vague-monoid", op.to_json()))
    assert seen["V1:extensionality"] == (Verdict.HOLDS, 3 ** 6)
    assert seen["V2:functionality"] == (Verdict.HOLDS, 3 ** 4)
    assert seen["vague-commutativity"] == (Verdict.HOLDS, 3 ** 4)
    # the loop finds nothing; the missing identity alone makes it fail
    assert seen["vague-monoid"] == (Verdict.FAILS, 3 ** 7)
    assert [w.inputs for w in monoid.witnesses] == [("no-identity-element",)]
    assert monoid.tags == ()


def test_checks_sharing_a_compiled_order_match_fresh_ones():
    """The degree order an operator compiles when it is built serves all
    its checks; their reports equal those on a fresh operator."""
    pts = GridDomain(6).points
    checks = [
        lambda v: check_vague_strict_monotone(v, "crisp"),
        check_vague_commutativity,
        lambda v: check_vague_cancellation(v, "any-degree"),
        lambda v: check_vague_strict_monotone(v, "any-degree"),
        lambda v: check_vague_cancellation(v, "crisp"),
    ]
    for make_eq, conn in ((crisp_equality, T_P), (linear_equality, T_L),
                          (linear_equality, T_D)):
        shared = induce_vague_tnorm(make_eq(pts, conn), conn)
        for check in checks:
            fresh = induce_vague_tnorm(make_eq(pts, conn), conn)
            assert check(shared).to_json() == check(fresh).to_json()


def test_compiled_degrees_are_the_induced_ones():
    """The one degree table holds E(T(x, y), z) at each carrier triple as a
    Fraction, and the operator reads it by carrier value."""
    for v in _vague_corpus(SuiteConfig(grid=6)):
        pts = v.carrier
        induced = {(x, y, z): v.equality(v.underlying(x, y), z)
                   for x in pts for y in pts for z in pts}
        degrees = degree_values(v)
        assert degrees == induced
        assert {type(d) for d in degrees.values()} == {F}
        assert all(v(*key) == d for key, d in induced.items())


def _half_apart(a, b):
    # 1 on the diagonal, 0 between 0 and 1, 1/2 elsewhere
    return 1 if a == b else 0 if {a, b} == {0, 1} else F(1, 2)


def test_an_int_carrier_reports_as_the_fraction_carrier():
    ints, fractions = (0, F(1, 2), 1), (F(0), F(1, 2), F(1))
    reports = []
    for carrier in (ints, fractions):
        eq = make_fuzzy_equality("half-apart", _half_apart, T_M, carrier)
        degrees = {(x, y, z): eq(T_M(x, y), z)
                   for x in carrier for y in carrier for z in carrier}
        op = vague_op_from_table("half-apart", carrier, eq, degrees)
        v = induce_vague_tnorm(crisp_equality(carrier, T_M), T_M)
        assert {type(p) for p in op.carrier + v.carrier} == {F}
        reports.append([dumps(r) for r in (
            eq.report, check_vague_binary_op(op), check_vague_monoid(v),
            check_vague_strict_monotone(v), check_vague_cancellation(v))])
    assert reports[0] == reports[1]
    transitivity = json.loads(reports[0][0])["children"][2]
    assert [w["inputs"] for w in transitivity["witnesses"]] == [
        ["0", "1/2", "1"], ["1", "1/2", "0"]]


@pytest.mark.parametrize("carrier", [(F(0), F(0), F(1)), ("a", "b")],
                         ids=["repeated-point", "label"])
def test_a_carrier_that_does_not_compile_is_refused(carrier):
    eq = crisp_equality(carrier, T_M)
    table = dict.fromkeys([(x, y, z) for x in carrier for y in carrier
                           for z in carrier], F(0))
    with pytest.raises(DomainError, match="distinct numbers"):
        vague_op_from_table("refused", carrier, eq, table)
    if carrier[0] == 0:
        with pytest.raises(DomainError, match="repeated point"):
            induce_vague_tnorm(eq, T_M)
