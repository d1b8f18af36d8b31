import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzznorm import fuzzy as fuzzy_module
from fuzznorm import lattice as lattice_module
from fuzznorm import reports
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.checker import check_axioms
from fuzznorm.connectives import Connective, Role
from fuzznorm.errors import (BudgetExceededError, DomainError,
                             NotALatticeError, InputFormatError,
                             TotalityError, UnboundedPosetError)
from fuzznorm.fuzzy import (FuzzyProp, KIND_T_SUBNORM, check_fuzzy_property,
                            check_fuzzy_submonoid)
from fuzznorm.lattice import (FiniteLattice, LatticeTNorm, build_lattice,
                              chain_lattice,
                              check_lattice_fuzzy_property,
                              check_lattice_fuzzy_subnorm,
                              check_lattice_tnorm,
                              check_lattice_vague_cancellation,
                              check_lattice_vague_strict_monotone,
                              check_lattice_vague_structures, diamond_lattice,
                              enumerate_lattice_equalities,
                              enumerate_lattice_tnorms,
                              induce_lattice_vague_tnorm,
                              lattice_crisp_equality, lattice_from_json,
                              lsubset_identity, lsubset_table, lsubset_top,
                              meet_tnorm)
from fuzznorm.reports import FinitePoints, Verdict
from fuzznorm.subsets import (enumerate_table_subsets, generate_subnorm_tables,
                              table_subset)
from fuzznorm.tables import (ChainTable, enumerate_chain_tnorm_tables,
                             uniform_chain)
from fuzznorm.vague import (READINGS, check_vague_binary_op,
                            check_vague_cancellation, check_vague_commutativity,
                            check_vague_monoid, check_vague_strict_monotone,
                            crisp_equality, induce_vague_tnorm,
                            validate_fuzzy_equality)

from subset_maps import enumerate_lsubsets


class TestConstruction:
    def test_diamond(self):
        d = diamond_lattice()
        assert d.meet("a", "b") == "0"
        assert d.join("a", "b") == "1"
        assert not d.leq("a", "b") and not d.leq("b", "a")
        assert d.bottom == "0" and d.top == "1"

    def test_chain_meets_are_minima(self):
        c = chain_lattice(5)
        order = {e: i for i, e in enumerate(c.elements)}
        for a in c.elements:
            for b in c.elements:
                assert order[c.meet(a, b)] == min(order[a], order[b])
                assert order[c.join(a, b)] == max(order[a], order[b])

    def test_missing_top_is_unbounded(self):
        with pytest.raises(UnboundedPosetError):
            build_lattice(["0", "a", "b"], [("0", "a"), ("0", "b")])

    def test_benzene_poset_is_not_a_lattice(self):
        elements = ["0", "a", "b", "c", "d", "1"]
        covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                  ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
        with pytest.raises(NotALatticeError) as err:
            build_lattice(elements, covers)
        assert "(" in str(err.value)  # names the offending pair

    def test_cycle_detected(self):
        with pytest.raises(DomainError):
            build_lattice(["a", "b"], [("a", "b"), ("b", "a")])

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["chain2", "chain3", "chain4", "diamond"]),
           st.data())
    def test_absorption_and_idempotence(self, which, data):
        lat = (diamond_lattice() if which == "diamond"
               else chain_lattice(int(which[-1])))
        x = data.draw(st.sampled_from(lat.elements))
        y = data.draw(st.sampled_from(lat.elements))
        assert lat.meet(x, lat.join(x, y)) == x
        assert lat.join(x, lat.meet(x, y)) == x
        assert lat.meet(x, x) == x and lat.join(x, x) == x

    def test_json_format(self):
        obj = {"elements": ["0", "a", "b", "1"],
               "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
        lat = lattice_from_json(obj)
        assert lat.meet("a", "b") == "0"
        with pytest.raises(InputFormatError):
            lattice_from_json({"elements": ["0"]})
        with pytest.raises(InputFormatError):
            lattice_from_json({"elements": ["0", "1"], "covers": [["0"]]})


class TestLatticeTNormCheck:
    def test_meet_always_passes(self):
        for lat in (chain_lattice(4), diamond_lattice()):
            assert check_lattice_tnorm(meet_tnorm(lat), lat).verdict is Verdict.HOLDS

    def test_asymmetric_table_fails_commutativity(self):
        d = diamond_lattice()
        table = dict(d.meet_table)
        table[("a", "b")] = "a"  # leave (b, a) at 0
        rep = check_lattice_tnorm(table, d)
        assert rep.child("L3:commutativity").verdict is Verdict.FAILS

    def test_monotonicity_checks_both_arguments(self):
        # monotone in the second argument; in the first, T(m, 0) = m
        # exceeds T(1, 0) = 0
        c3 = chain_lattice(3)
        table = {("0", "0"): "0", ("0", "m"): "0", ("m", "0"): "m",
                 ("m", "m"): "m"}
        for x in c3.elements:
            table[(x, "1")] = table[("1", x)] = x
        rep = check_lattice_tnorm(table, c3)
        mono = rep.child("L1:monotonicity")
        assert mono.verdict is Verdict.FAILS
        assert [(w.inputs, w.values) for w in mono.witnesses] == [
            (("m", "1", "0"), ("m", "0"))]
        assert rep.child("L3:commutativity").verdict is Verdict.FAILS
        assert rep.verdict is Verdict.FAILS


def brute_force_lattice_tnorms(lat: FiniteLattice) -> list:
    """Independent oracle: every symmetric assignment of the cells (pairs
    of non-top elements, row-major) with each value below the meet of its
    coordinates, in itertools.product order, filtered directly for
    monotonicity and associativity; (name, table) for each survivor."""
    elems = lat.elements
    non_top = [e for e in elems if e != lat.top]
    pairs = [(non_top[i], non_top[j]) for i in range(len(non_top))
             for j in range(i, len(non_top))]
    below = [[v for v in elems if lat.leq(v, lat.meet(x, y))]
             for x, y in pairs]
    found = []
    for values in itertools.product(*below):
        table = {}
        for x in elems:
            table[(x, lat.top)] = x
            table[(lat.top, x)] = x
        for (x, y), v in zip(pairs, values):
            table[(x, y)] = v
            table[(y, x)] = v
        ok = all(lat.leq(table[(x, y)], table[(x, z)])
                 for x in elems for y in elems for z in elems
                 if lat.leq(y, z))
        if ok:
            ok = all(table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
                     for x in elems for y in elems for z in elems)
        if ok:
            found.append((f"T[{','.join(values)}]", table))
    return found


def _oracle_lattices():
    five = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    yield from (chain_lattice(n) for n in (2, 3, 4, 5))
    yield diamond_lattice()
    yield build_lattice(["0", "a", "b", "c", "1"],
                        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
                        name="M3")
    # the widest 6-element lattice: row monotonicity prunes least here
    yield build_lattice(["0", "a", "b", "c", "d", "1"],
                        [("0", x) for x in "abcd"] + [(x, "1") for x in "abcd"],
                        name="M4")
    yield build_lattice(["0", "a", "c", "b", "1"],
                        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"),
                         ("b", "1")], name="N5")
    yield build_lattice(["0", "a", "b", "1", "t"], five + [("1", "t")],
                        name="M2-new-top")
    yield build_lattice(["z", "0", "a", "b", "1"], [("z", "0")] + five,
                        name="M2-new-bottom")
    yield product_lattice_2x3()
    # top first, bottom in the middle: not a linear extension
    yield build_lattice(["1", "m2", "0", "m3", "m1"],
                        [("0", "m1"), ("m1", "m2"), ("m2", "m3"), ("m3", "1")],
                        name="chain5-shuffled")


class TestEnumeration:
    def test_chain_counts(self):
        assert len(enumerate_lattice_tnorms(chain_lattice(2))) == 1
        assert len(enumerate_lattice_tnorms(chain_lattice(3))) == 2

    def test_counts_match_brute_force_oracle(self):
        """Names, tables and order, and cap=k the first k of them."""
        for lat in _oracle_lattices():
            expected = brute_force_lattice_tnorms(lat)
            tnorms = enumerate_lattice_tnorms(lat)
            assert len(tnorms) == len(expected), lat.name
            assert [(t.name, t.table) for t in tnorms] == expected, lat.name
            for k in (0, 1, 3):
                assert ([t.name for t in enumerate_lattice_tnorms(lat, cap=k)]
                        == [name for name, _ in expected[:k]]), lat.name

    def test_three_chain_tables_differ_at_the_middle(self):
        mids = {t.table[("m", "m")] for t in enumerate_lattice_tnorms(chain_lattice(3))}
        assert mids == {"0", "m"}

    def test_cap_truncates_deterministically(self):
        full = enumerate_lattice_tnorms(chain_lattice(4))
        capped = enumerate_lattice_tnorms(chain_lattice(4), cap=3)
        assert [t.name for t in capped] == [t.name for t in full][:3]

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_lattice_tnorms(chain_lattice(7))
        assert err.value.size_estimate > 0

    def test_chain_table_counts(self, monkeypatch):
        # the 7-chain is past the default budget, so lift it here
        monkeypatch.setattr(lattice_module, "MAX_ENUMERATION_SIZE", 7)
        assert [len(enumerate_chain_tnorm_tables(uniform_chain(n)))
                for n in range(2, 8)] == [1, 2, 6, 22, 94, 451]

    def test_four_chain_table_names(self):
        # suite counterexample labels and scripts/classify_chain_tables.py
        # print these names, in this order
        assert [t.name for t in enumerate_chain_tnorm_tables(uniform_chain(4))] == [
            "table[0,0,0,0,0,0,1/3,0,2/3,1]",
            "table[0,0,0,0,0,0,1/3,1/3,2/3,1]",
            "table[0,0,0,0,0,0,1/3,2/3,2/3,1]",
            "table[0,0,0,0,0,1/3,1/3,2/3,2/3,1]",
            "table[0,0,0,0,1/3,1/3,1/3,1/3,2/3,1]",
            "table[0,0,0,0,1/3,1/3,1/3,2/3,2/3,1]",
        ]

    def test_chain_table_reads_its_points(self):
        pts = uniform_chain(3)
        t = enumerate_chain_tnorm_tables(pts)[0]
        # an int or float point equal to a chain point hashes alike
        assert ([t.index(p) for p in pts] == [t.index(p) for p in (0, 0.5, 1)]
                == [0, 1, 2])
        with pytest.raises(DomainError, match="1/3 is not a chain point"):
            t(Fraction(1, 3), 1)
        assert ChainTable(t.points, t.matrix, name="given").name == "given"

    def test_bad_chain_rejected(self):
        with pytest.raises(DomainError):
            enumerate_chain_tnorm_tables((Fraction(0), Fraction(1, 2)))

    def test_long_chain_refused_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a lattice was built")
        monkeypatch.setattr(lattice_module, "build_lattice", refuse)
        with pytest.raises(BudgetExceededError):
            enumerate_chain_tnorm_tables(uniform_chain(400))


class TestLatticeFuzzySubnorm:
    def test_top_subset_passes_any_tnorm(self):
        for lat in (chain_lattice(3), diamond_lattice()):
            for t in enumerate_lattice_tnorms(lat):
                assert check_lattice_fuzzy_subnorm(lsubset_top(lat), t).holds

    def test_identity_with_meet_mirrors_min(self):
        c3 = chain_lattice(3)
        assert check_lattice_fuzzy_subnorm(lsubset_identity(c3),
                                           meet_tnorm(c3)).holds

    def test_identity_fails_when_middle_squares_to_zero(self):
        c3 = chain_lattice(3)
        drop = [t for t in enumerate_lattice_tnorms(c3)
                if t.table[("m", "m")] == "0"][0]
        rep = check_lattice_fuzzy_subnorm(lsubset_identity(c3), drop)
        assert rep.fails
        assert ("m", "m") in {w.inputs for w in rep.witnesses}

    def test_partial_table_is_not_total(self):
        with pytest.raises(TotalityError, match="no value at m"):
            lsubset_table(chain_lattice(3), {"0": "0"})


def product_lattice_2x3() -> FiniteLattice:
    """The 2-chain times the 3-chain, as the benchmark's lattice input."""
    elements = [f"{i}{j}" for i in range(2) for j in range(3)]
    covers = ([(f"0{j}", f"1{j}") for j in range(3)]
              + [(f"{i}{j}", f"{i}{j + 1}") for i in range(2) for j in range(2)])
    return build_lattice(elements, covers, name="chain2xchain3")


def _subnorm_tnorm_sets():
    for size in (2, 3, 4, 5):
        lat = chain_lattice(size)
        yield pytest.param(enumerate_lattice_tnorms(lat), id=f"chain{size}")
    yield pytest.param(enumerate_lattice_tnorms(diamond_lattice()),
                       id="diamond")
    # 6^6 maps a t-norm: the gate takes seconds for each of the 43, so
    # the first and the last stand for them
    tnorms = enumerate_lattice_tnorms(product_lattice_2x3())
    yield pytest.param([tnorms[0], tnorms[-1]], id="2x3-first-last")


class TestGeneratedLatticeSubnorms:
    """generate_subnorm_tables in a lattice against the gate it stands in
    for: every lattice-valued map, filtered by the t-subnorm check."""

    @pytest.mark.parametrize("tnorms", _subnorm_tnorm_sets())
    def test_same_maps_names_and_order_as_the_gate(self, tnorms):
        for t in tnorms:
            lat = t.lattice
            gated = [mu for mu in enumerate_lsubsets(lat)
                     if check_lattice_fuzzy_subnorm(mu, t).holds]
            generated = list(generate_subnorm_tables(lat.elements, t, lat.top,
                                                     lat.elements, lat))
            assert [mu.name for mu in generated] == [mu.name for mu in gated]
            assert ([[mu(x) for x in lat.elements] for mu in generated]
                    == [[mu(x) for x in lat.elements] for mu in gated])
            assert generated  # the constant-top map at least

    def test_product_leaving_the_lattice_raises_like_the_gate(self):
        lat = chain_lattice(3)
        table = dict(meet_tnorm(lat).table)
        table[("m", "m")] = "x"
        t = LatticeTNorm(lat, table, name="leaky")
        with pytest.raises(TotalityError) as gated:
            [mu for mu in enumerate_lsubsets(lat)
             if check_lattice_fuzzy_subnorm(mu, t).holds]
        with pytest.raises(TotalityError) as generated:
            list(generate_subnorm_tables(lat.elements, t, lat.top,
                                                     lat.elements, lat))
        assert str(generated.value) == str(gated.value)


class TestLatticeFuzzyProperties:
    def test_fcancel_meet_saturates(self):
        c3 = chain_lattice(3)
        rep = check_lattice_fuzzy_property(lsubset_identity(c3),
                                           meet_tnorm(c3), FuzzyProp.FCANCEL)
        assert rep.fails
        assert ("m", "m", "1") in {w.inputs for w in rep.witnesses}

    def test_farch_gated_and_ungated(self):
        c3 = chain_lattice(3)
        drop = [t for t in enumerate_lattice_tnorms(c3)
                if t.table[("m", "m")] == "0"][0]
        mu = lsubset_identity(c3)
        gated = check_lattice_fuzzy_property(mu, drop, FuzzyProp.FARCH)
        assert gated.verdict is Verdict.VACUOUS
        assert "NOT_A_SUBNORM" in gated.tags
        # the bare quantified statement: m drops to 0 in two steps
        bare = check_lattice_fuzzy_property(mu, drop, FuzzyProp.FARCH,
                                            gate=False)
        assert bare.holds

    def test_flimit_top_subset(self):
        c3 = chain_lattice(3)
        for t in enumerate_lattice_tnorms(c3):
            rep = check_lattice_fuzzy_property(lsubset_top(c3), t,
                                               FuzzyProp.FLIMIT)
            assert rep.holds

    def test_incomparable_pairs_are_counted(self):
        d = diamond_lattice()
        mu = lsubset_top(d)
        rep = check_lattice_fuzzy_property(mu, meet_tnorm(d), FuzzyProp.FSTRICT)
        assert rep.details["excluded_incomparable_pairs"] == 1

    def test_fstrict_pairs_points_listed_top_first(self):
        # the strict pairs come from the order, not the listing
        up = chain_lattice(3)
        down = build_lattice(["1", "m", "0"], [("0", "m"), ("m", "1")])
        for t in enumerate_lattice_tnorms(up):
            t_down = LatticeTNorm(down, t.table, t.name)
            for mu in enumerate_lsubsets(up):
                reps = [check_lattice_fuzzy_property(mu, tn, FuzzyProp.FSTRICT,
                                                     gate=False)
                        for tn in (t, t_down)]
                assert reps[0].verdict is reps[1].verdict
                assert reps[0].details == reps[1].details
                assert ({(w.inputs, w.values) for w in reps[0].witnesses}
                        == {(w.inputs, w.values) for w in reps[1].witnesses})

    def test_prop13_sweep_small(self):
        for lat in (chain_lattice(2), chain_lattice(3), diamond_lattice()):
            for t in enumerate_lattice_tnorms(lat):
                for values in itertools.product(lat.elements,
                                                repeat=len(lat.elements)):
                    mu = lsubset_table(lat, dict(zip(lat.elements, values)))
                    if not check_lattice_fuzzy_subnorm(mu, t).holds:
                        continue
                    if check_lattice_fuzzy_property(mu, t, FuzzyProp.FSTRICT).holds:
                        assert check_lattice_fuzzy_property(
                            mu, t, FuzzyProp.FCANCEL).holds


class TestLatticeVague:
    def test_crisp_equality_composite(self):
        c3 = chain_lattice(3)
        rep = check_lattice_vague_structures(lattice_crisp_equality(c3),
                                             meet_tnorm(c3), c3)
        assert rep.verdict is Verdict.HOLDS
        monoid = rep.child("lattice-vague-monoid")
        assert monoid.details["identity"] == "1"

    def test_equality_enumeration_includes_crisp(self):
        c3 = chain_lattice(3)
        t = meet_tnorm(c3)
        tables = enumerate_lattice_equalities(c3, t)
        crisp = {(x, y): ("1" if x == y else "0")
                 for x in c3.elements for y in c3.elements}
        assert crisp in tables

    def test_prop15_sweep(self):
        c3 = chain_lattice(3)
        for t in enumerate_lattice_tnorms(c3):
            for eq in enumerate_lattice_equalities(c3, t):
                mu = induce_lattice_vague_tnorm(eq, t)
                for reading in ("any-degree", "crisp"):
                    strict = check_lattice_vague_strict_monotone(mu, c3, reading)
                    if strict.holds:
                        assert check_lattice_vague_cancellation(
                            mu, c3, reading).holds

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(reports, "MAX_TUPLES", 1000)
        c = chain_lattice(6)
        extended = build_lattice(
            [str(i) for i in range(8)],
            [(str(i), str(i + 1)) for i in range(7)])
        with pytest.raises(BudgetExceededError):
            check_lattice_vague_structures(lattice_crisp_equality(extended),
                                           meet_tnorm(extended), extended)
        assert c is not None

    def test_four_and_five_tuple_loops_are_budgeted(self, monkeypatch):
        # the unit interval's cores: 3^4 = 81 tuples fit in 100, 3^5 = 243
        # and 4^4 = 256 do not
        monkeypatch.setattr(reports, "MAX_TUPLES", 100)
        c3, c4 = chain_lattice(3), chain_lattice(4)
        mu3, mu4 = (induce_lattice_vague_tnorm(
            {(x, y): c.top if x == y else c.bottom
             for x in c.elements for y in c.elements}, meet_tnorm(c))
            for c in (c3, c4))
        assert check_lattice_vague_cancellation(mu3, c3).fails
        with pytest.raises(BudgetExceededError, match="strict monotonicity"):
            check_lattice_vague_strict_monotone(mu3, c3)
        with pytest.raises(BudgetExceededError, match="cancellation"):
            check_lattice_vague_cancellation(mu4, c4)

    def test_unknown_reading_rejected(self):
        c3 = chain_lattice(3)
        eq = {(x, y): ("1" if x == y else "0") for x in c3.elements for y in c3.elements}
        mu = induce_lattice_vague_tnorm(eq, meet_tnorm(c3))
        for check in (check_lattice_vague_strict_monotone,
                      check_lattice_vague_cancellation):
            with pytest.raises(DomainError):
                check(mu, c3, "bogus")


def _vague_leaves(structures, strict_and_cancel):
    """E1-E3, V1-V3, monoid, commutativity, strict monotonicity and
    cancellation, in that order."""
    equality, op, monoid, commutativity = structures
    return [*equality.children, *op.children, monoid, commutativity,
            *strict_and_cancel]


def _counting(conclude, instances):
    """``conclude``, recording the instance count of every report."""
    def recording(*args, **kwargs):
        instances.append(kwargs.get("instances"))
        return conclude(*args, **kwargs)
    return recording


def _relabelled(report, point):
    """(inputs, values) of each witness, lattice labels read as points."""
    return [(tuple(point.get(x, x) for x in w.inputs),
             tuple(point.get(x, x) for x in w.values)) for w in report.witnesses]


def _random_chain_tables(size, count, seed):
    """Seeded label tables on chain_lattice(size), commutative and not;
    every third one keeps the top as identity."""
    rng = random.Random(seed)
    elems = chain_lattice(size).elements
    for k in range(count):
        table = {}
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                table[(x, y)] = (table[(y, x)] if k % 2 == 0 and j < i
                                 else rng.choice(elems))
        if k % 3 == 0:
            for x in elems:
                table[(x, "1")] = table[("1", x)] = x
        yield table


_AXIOM_PAIRS = (("L1:monotonicity", "T3:monotonicity"),
                ("L2:associativity", "T2:associativity"),
                ("L3:commutativity", "T1:commutativity"),
                ("L4:boundary", "T4:boundary"))


def _chain_table_sets():
    for size in (2, 3, 4, 5):
        tables = [t.table for t in enumerate_lattice_tnorms(chain_lattice(size))]
        yield pytest.param(size, tables, True, id=f"tnorms-chain{size}")
    for size in (3, 4):
        tables = list(_random_chain_tables(size, 60, seed=size))
        yield pytest.param(size, tables, False, id=f"random-chain{size}")


@pytest.mark.parametrize("size,tables,tnorms", _chain_table_sets())
def test_tnorm_axioms_agree_across_layers(size, tables, tnorms):
    """A table on chain_lattice(size) and the same table on the points
    of uniform_chain(size) run the same axiom cores, child by child."""
    lat, pts = chain_lattice(size), uniform_chain(size)
    point = dict(zip(lat.elements, pts))
    label = dict(zip(pts, lat.elements))
    failed = set()
    for table in tables:
        conn = Connective("tnorm:table", Role.TNORM,
                          lambda x, y, t=table: point[t[(label[x], label[y])]],
                          identity=Fraction(1))
        lrep = check_lattice_tnorm(table, lat)
        urep = check_axioms(conn, FinitePoints(pts))
        assert lrep.verdict is urep.verdict
        for lid, uid in _AXIOM_PAIRS:
            l, u = lrep.child(lid), urep.child(uid)
            assert l.verdict is u.verdict, (table, lid)
            assert ([(w.inputs, w.values) for w in u.witnesses]
                    == _relabelled(l, point)), (table, lid)
            if l.fails:
                failed.add(lid)
    # t-norms pass every axiom; the random tables fail each of them
    assert failed == (set() if tnorms else {lid for lid, _ in _AXIOM_PAIRS})


class TestGridIsAChain:
    """uniform_chain(4) with a chain t-norm table is chain_lattice(4) with
    the same table, relabelled; both layers must agree on every report."""

    lat = chain_lattice(4)
    pts = uniform_chain(4)
    point = dict(zip(lat.elements, pts))
    label = dict(zip(pts, lat.elements))

    def _tnorms(self):
        """(table, its connective, the same table as a LatticeTNorm)."""
        lat, point, label = self.lat, self.point, self.label
        for table in enumerate_chain_tnorm_tables(self.pts):
            yield table, table.as_connective(), LatticeTNorm(
                lat, {(a, b): label[table(point[a], point[b])]
                      for a in lat.elements for b in lat.elements})

    def test_vague_conditions_agree_across_layers(self):
        lat, pts, point = self.lat, self.pts, self.point
        lattice_tnorms = []
        for table, conn, t in self._tnorms():
            lattice_tnorms.append(t)
            eq = crisp_equality(pts, conn)
            v = induce_vague_tnorm(eq, conn)
            crisp = lattice_crisp_equality(lat)
            mu = induce_lattice_vague_tnorm(
                {(a, b): crisp(a, b) for a in lat.elements for b in lat.elements}, t)
            for reading in READINGS:
                unit = _vague_leaves(
                    [validate_fuzzy_equality(eq.fn, conn, pts),
                     check_vague_binary_op(v), check_vague_monoid(v),
                     check_vague_commutativity(v)],
                    [check_vague_strict_monotone(v, reading),
                     check_vague_cancellation(v, reading)])
                lattice = _vague_leaves(
                    check_lattice_vague_structures(crisp, t, lat).children,
                    [check_lattice_vague_strict_monotone(mu, lat, reading),
                     check_lattice_vague_cancellation(mu, lat, reading)])
                assert len(unit) == len(lattice) == 10
                for u, l in zip(unit, lattice):
                    assert u.verdict is l.verdict, (table.name, u.property_id)
                    assert ([(w.inputs, w.values) for w in u.witnesses]
                            == _relabelled(l, point))
                identity = lattice[6].details["identity"]
                assert unit[6].details["identity"] == (
                    None if identity is None else str(point[identity]))
        assert ({tuple(sorted(t.table.items())) for t in lattice_tnorms}
                == {tuple(sorted(t.table.items())) for t in enumerate_lattice_tnorms(lat)})

    def test_fuzzy_properties_agree_across_layers(self, monkeypatch):
        lat, pts, point, label = self.lat, self.pts, self.point, self.label
        dom = FinitePoints(pts)
        # names, and what only a budgeted power search reports
        names = ("mu", "operator", "tnorm", "max_witness_n", "convergence")
        instances = []
        for module in (fuzzy_module, lattice_module):
            monkeypatch.setattr(module, "conclude",
                                _counting(module.conclude, instances))
        subnorms = 0
        for table, conn, t in self._tnorms():
            carrier = CarrierMonoid.from_connective(conn, dom)
            for mu in enumerate_table_subsets(pts, pts):
                lmu = lsubset_table(lat, {label[p]: label[mu(p)] for p in pts})
                constant = len({mu(p) for p in pts}) == 1
                instances.clear()
                u = check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM)
                l = check_lattice_fuzzy_subnorm(lmu, t)
                assert u.verdict is l.verdict, (table.name, mu.name)
                assert instances == [len(pts) ** 2 + 1] * 2
                assert ([(w.inputs, w.values) for w in u.witnesses]
                        == _relabelled(l, point)), (table.name, mu.name)
                subnorms += u.holds
                for prop in FuzzyProp:
                    if u.holds:
                        break
                    gu = check_fuzzy_property(mu, conn, prop, dom)
                    gl = check_lattice_fuzzy_property(lmu, t, prop)
                    for g in (gu, gl):
                        assert g.verdict is Verdict.VACUOUS
                        assert g.tags == ("NOT_A_SUBNORM",)
                    assert ([(w.inputs, w.values) for w in gu.witnesses]
                            == _relabelled(gl, point)
                            == [(w.inputs, w.values) for w in u.witnesses])
                    assert {k: v for k, v in gu.details.items() if k not in names} \
                        == {k: v for k, v in gl.details.items() if k not in names} == {}
                for prop in FuzzyProp:
                    if prop is FuzzyProp.FARCH and constant:
                        continue
                    u = check_fuzzy_property(mu, conn, prop, dom, gate=False)
                    l = check_lattice_fuzzy_property(lmu, t, prop, gate=False)
                    case = (table.name, mu.name, prop.value)
                    assert u.verdict is l.verdict, case
                    assert ([(w.inputs, w.values) for w in u.witnesses]
                            == _relabelled(l, point)), case
                    assert ({k: v for k, v in u.details.items() if k not in names}
                            == {k: v for k, v in l.details.items()
                                if k not in names}), case
                    assert "max_witness_n" not in l.details
                    assert "convergence" not in l.details
        # both verdicts occur
        assert 0 < subnorms < 6 * len(pts) ** len(pts)

    def test_constant_map_archimedean_differs_by_layer(self):
        # the unit layer refuses a constant map up front; the lattice layer
        # evaluates it, and no value lies strictly below another
        lat, pts, label = self.lat, self.pts, self.label
        table, conn, t = next(self._tnorms())
        mu = table_subset(dict.fromkeys(pts, pts[1]))
        u = check_fuzzy_property(mu, conn, FuzzyProp.FARCH, FinitePoints(pts),
                                 gate=False)
        assert u.verdict is Verdict.VACUOUS
        assert "VACUOUS-BY-CONSTANCY" in u.tags
        lmu = lsubset_table(lat, dict.fromkeys(lat.elements, label[pts[1]]))
        assert check_lattice_fuzzy_property(lmu, t, FuzzyProp.FARCH,
                                            gate=False).fails
