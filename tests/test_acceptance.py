"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with ``pytest -s`` or
``-v`` to see them); stated runtime ceilings are asserted, not just
observed.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from fuzznorm.carriers import CarrierMonoid
from fuzznorm.checker import (check_archimedean, check_axioms,
                              check_limit_property, classify_uninorm)
from fuzznorm.connectives import (BUILTIN_TCONORMS, BUILTIN_TNORMS, S_L, S_M,
                                  S_P, T_L, T_M, T_P, construct_nullnorm,
                                  construct_uninorm_max, construct_uninorm_min)
from fuzznorm.fuzzy import (FuzzyProp, KIND_T_SUBNORM, check_discrete_subalgebra,
                            check_fuzzy_property, check_fuzzy_submonoid,
                            f_submonoid_kind, refute_uninorm_existence,
                            u_submonoid_kind, uninorm_family)
from fuzznorm.lattice import (chain_lattice, check_lattice_fuzzy_property,
                              check_lattice_fuzzy_subnorm,
                              check_lattice_vague_cancellation,
                              check_lattice_vague_strict_monotone,
                              diamond_lattice, enumerate_lattice_equalities,
                              enumerate_lattice_tnorms,
                              induce_lattice_vague_tnorm)
from fuzznorm.reports import FinitePoints, GridDomain, SearchBudget, Verdict
from fuzznorm.subsets import (MU_COMPLEMENT, MU_ID, MU_ONE,
                              enumerate_table_subsets)
from fuzznorm.tables import (enumerate_chain_tnorm_tables, mixed_grid_points,
                             uniform_chain)
from fuzznorm.vague import (check_vague_binary_op, check_vague_cancellation,
                            check_vague_commutativity, check_vague_monoid,
                            check_vague_strict_monotone, crisp_equality,
                            induce_vague_tnorm, linear_equality,
                            validate_fuzzy_equality)

from subset_maps import enumerate_lsubsets

F = Fraction
HALF = F(1, 2)
ALPHABET = (F(0), HALF, F(1))


def ok(cid, detail=""):
    print(f"ACCEPTANCE {cid}: PASS {detail}".rstrip())


def test_c01_axiom_suite_exact_on_11_points():
    start = time.monotonic()
    dom = GridDomain(10)  # 11 points including 0 and 1
    assert len(dom.points) == 11
    for conn in BUILTIN_TNORMS + BUILTIN_TCONORMS:
        rep = check_axioms(conn, dom)
        assert rep.verdict is Verdict.HOLDS, conn.name
        for child in rep.children:
            assert child.verdict is Verdict.HOLDS, (conn.name, child.property_id)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    ok("C1", f"(8 operators, all axioms exact, {elapsed:.2f}s)")


def test_c02_archimedean_and_limit_classification():
    dom = GridDomain(10)
    budget = SearchBudget(n_max=64, iter_cap=128)
    assert check_archimedean(T_L, dom, budget).verdict is Verdict.HOLDS
    assert check_archimedean(T_P, dom, budget).verdict is Verdict.HOLDS
    arch_min = check_archimedean(T_M, dom, budget)
    assert arch_min.verdict is Verdict.FAILS
    assert arch_min.witnesses
    for w in arch_min.witnesses:
        assert w.values[0] == w.inputs[0]  # trajectory stationary at x itself
    limit_min = check_limit_property(T_M, dom, budget)
    assert limit_min.verdict is Verdict.FAILS
    assert {w.inputs[0] for w in limit_min.witnesses} == set(dom.interior)
    ok("C2", "(T_L/T_P pass, T_M stationary witness, limit fails at all 9 interior points)")


def test_c03_uninorm_structure_and_classification():
    dom = GridDomain(10)
    e = HALF
    u_min = construct_uninorm_min(e, T_P, S_P)
    rep = check_axioms(u_min, dom)
    assert rep.verdict is Verdict.HOLDS
    pairs = 0
    for x in dom.points:
        for y in dom.points:
            if min(x, y) < e < max(x, y):
                pairs += 1
                assert min(x, y) <= u_min(x, y) <= max(x, y)
    assert pairs > 0
    cls = classify_uninorm(u_min, dom)
    assert cls.verdict is Verdict.HOLDS and cls.details["conjunctive"] is True
    u_max = construct_uninorm_max(e, T_P, S_P)
    assert check_axioms(u_max, dom).verdict is Verdict.HOLDS
    assert classify_uninorm(u_max, dom).details["disjunctive"] is True
    ok("C3", f"(axioms hold, {pairs} mixed-region pairs bounded, conjunctive/disjunctive flags)")


def test_c04_canonical_t_subnorm_examples():
    dom = GridDomain(10)
    assert check_fuzzy_submonoid(
        MU_ID, CarrierMonoid.from_connective(T_M, dom), KIND_T_SUBNORM).holds
    rep = check_fuzzy_submonoid(
        MU_ID, CarrierMonoid.from_connective(T_P, dom), KIND_T_SUBNORM)
    assert rep.fails
    assert (HALF, HALF) in {w.inputs for w in rep.witnesses}
    assert min(MU_ID(HALF), MU_ID(HALF)) > MU_ID(T_P(HALF, HALF))
    for conn in BUILTIN_TNORMS:
        assert check_fuzzy_submonoid(
            MU_ONE, CarrierMonoid.from_connective(conn, dom),
            KIND_T_SUBNORM).holds, conn.name
    ok("C4", "(identity map: min only; witness (1/2,1/2); full subset universal)")


def test_c05_fuzzy_implication_sweeps():
    start = time.monotonic()
    chain = uniform_chain(4)
    dom = FinitePoints(chain)
    tables = enumerate_chain_tnorm_tables(chain)
    mus = list(enumerate_table_subsets(chain, ALPHABET))
    assert len(mus) == 81
    strict_to_cancel = 0
    cancel_to_cond = 0
    for tbl in tables:
        conn = tbl.as_connective()
        carrier = CarrierMonoid.from_connective(conn, dom)
        for mu in mus:
            if not check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds:
                continue
            if check_fuzzy_property(mu, conn, FuzzyProp.FSTRICT, dom).holds:
                if not check_fuzzy_property(mu, conn, FuzzyProp.FCANCEL, dom).holds:
                    strict_to_cancel += 1
            if check_fuzzy_property(mu, conn, FuzzyProp.FCANCEL, dom).holds:
                if not check_fuzzy_property(mu, conn, FuzzyProp.FCONDCANCEL,
                                            dom).holds:
                    cancel_to_cond += 1
    elapsed = time.monotonic() - start
    assert strict_to_cancel == 0 and cancel_to_cond == 0
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    ok("C5", f"({len(tables)} tables x 81 maps, 0 counterexamples, {elapsed:.2f}s)")


def test_c06_disjunctive_theorem_sweep():
    u = construct_uninorm_max(HALF, T_P, S_P)
    pts = uniform_chain(3)
    carrier = CarrierMonoid.from_connective(T_M, FinitePoints(pts))
    kind = u_submonoid_kind(u)
    passing = [mu for mu in enumerate_table_subsets(pts, ALPHABET)
               if check_fuzzy_submonoid(mu, carrier, kind).holds]
    assert len(passing) == 1
    assert all(passing[0](p) == 1 for p in pts)
    ok("C6", "(only the constant-one table passes the disjunctive submonoid check)")


def test_c07_nullnorm_floor_sweep():
    f = construct_nullnorm(S_L, HALF, T_L)
    pts = uniform_chain(3)
    carrier = CarrierMonoid.from_connective(T_M, FinitePoints(pts))
    kind = f_submonoid_kind(f)
    passing = 0
    for mu in enumerate_table_subsets(pts, ALPHABET):
        if check_fuzzy_submonoid(mu, carrier, kind).holds:
            passing += 1
            assert min(mu(p) for p in pts) >= HALF
    assert passing > 0
    ok("C7", f"({passing} passing tables, all with membership floor >= 1/2)")


def test_c08_refutation_families():
    dom = GridDomain(8)
    family = uninorm_family((F(1, 4), HALF, F(3, 4)), (T_P, T_L), (S_P, S_L))
    assert len(family) == 24
    for carrier_conn in (T_P, T_L, T_M):
        rep = refute_uninorm_existence(MU_ID, carrier_conn, family, dom)
        assert rep.verdict is Verdict.HOLDS, carrier_conn.name
        assert len(rep.witnesses) == len(family)
        for w in rep.witnesses:
            name, x, y = w.inputs
            e = next(m for m in family if m.name == name).identity
            assert x == e and y > e
    for carrier_conn in (S_P, S_L, S_M):
        rep = refute_uninorm_existence(MU_COMPLEMENT, carrier_conn, family, dom)
        assert rep.verdict is Verdict.HOLDS, carrier_conn.name
        for w in rep.witnesses:
            name, x, y = w.inputs
            e = next(m for m in family if m.name == name).identity
            assert x == 1 - e and y < 1 - e
    ok("C8", "(24-member family refuted on 3 t-norm and 3 t-conorm carriers)")


def _crisp_strict_oracle(conn, pts):
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            for z in pts:
                for a in pts:
                    for b in pts:
                        if ((conn(x, z) == a) == (conn(y, z) == b)) and not a < b:
                            return False
    return True


def _crisp_cancel_oracle(conn, pts):
    for a in pts:
        for b in pts:
            for x in pts:
                for c in pts:
                    if ((conn(a, x) == c) == (conn(b, x) == c)) and a != b:
                        return False
    return True


def test_c09_vague_layer():
    pts7 = GridDomain(6).points
    assert len(pts7) == 7
    eq_rep = validate_fuzzy_equality(lambda a, b: 1 - abs(a - b), T_L, pts7)
    assert eq_rep.verdict is Verdict.HOLDS
    linear = linear_equality(pts7, T_L)
    v = induce_vague_tnorm(linear, T_L)
    assert check_vague_binary_op(v.base).verdict is Verdict.HOLDS
    assert check_vague_commutativity(v).verdict is Verdict.HOLDS
    pts5 = GridDomain(4).points
    v4 = induce_vague_tnorm(linear_equality(pts5, T_L), T_L)
    assert check_vague_monoid(v4.base).verdict is Verdict.HOLDS

    # degeneration: crisp equality reduces each vague verdict to a crisp
    # statement about the operator, recomputed here independently
    dom4 = GridDomain(4)
    for conn in (T_M, T_L):  # grid-closed, so the totality gate is faithful
        vc = induce_vague_tnorm(crisp_equality(dom4.points, conn), conn)
        axioms = check_axioms(conn, dom4)
        assert check_vague_monoid(vc.base).holds == (
            axioms.child("T2:associativity").holds
            and axioms.child("T4:boundary").holds)
        assert check_vague_commutativity(vc).holds == \
            axioms.child("T1:commutativity").holds
    for conn in (T_M, T_P, T_L):
        vc = induce_vague_tnorm(crisp_equality(dom4.points, conn), conn)
        assert check_vague_strict_monotone(vc).holds == \
            _crisp_strict_oracle(conn, dom4.points)
        assert check_vague_cancellation(vc).holds == \
            _crisp_cancel_oracle(conn, dom4.points)

    # no member of the corpus is strictly monotone yet non-cancellative
    corpus = [induce_vague_tnorm(crisp_equality(pts7, t), t)
              for t in (T_M, T_P, T_L)]
    corpus.append(v)
    counterexamples = 0
    for member in corpus:
        for reading in ("any-degree", "crisp"):
            if check_vague_strict_monotone(member, reading).holds and \
                    check_vague_cancellation(member, reading).fails:
                counterexamples += 1
    assert counterexamples == 0
    ok("C9", "(equality valid, induced operator sound, degeneration exact, 0 counterexamples)")


def test_c10_lattice_layer():
    c2, c3 = chain_lattice(2), chain_lattice(3)

    def brute(lat):
        elems = lat.elements
        non_top = [e for e in elems if e != lat.top]
        pairs = [(non_top[i], non_top[j]) for i in range(len(non_top))
                 for j in range(i, len(non_top))]
        count = 0
        for values in itertools.product(elems, repeat=len(pairs)):
            table = {}
            for x in elems:
                table[(x, lat.top)] = x
                table[(lat.top, x)] = x
            for (x, y), v in zip(pairs, values):
                table[(x, y)] = v
                table[(y, x)] = v
            if not all(lat.leq(table[(x, y)], table[(x, z)])
                       for x in elems for y in elems for z in elems
                       if lat.leq(y, z)):
                continue
            if all(table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
                   for x in elems for y in elems for z in elems):
                count += 1
        return count

    assert len(enumerate_lattice_tnorms(c2)) == brute(c2) == 1
    assert len(enumerate_lattice_tnorms(c3)) == brute(c3) == 2

    cx13 = cx14 = 0
    for lat in (c2, c3, chain_lattice(4), diamond_lattice()):
        for t in enumerate_lattice_tnorms(lat):
            for mu in enumerate_lsubsets(lat):
                if not check_lattice_fuzzy_subnorm(mu, t).holds:
                    continue
                if check_lattice_fuzzy_property(mu, t, FuzzyProp.FSTRICT).holds \
                        and not check_lattice_fuzzy_property(
                            mu, t, FuzzyProp.FCANCEL).holds:
                    cx13 += 1
                if check_lattice_fuzzy_property(mu, t, FuzzyProp.FCANCEL).holds \
                        and not check_lattice_fuzzy_property(
                            mu, t, FuzzyProp.FCONDCANCEL).holds:
                    cx14 += 1
    assert cx13 == 0 and cx14 == 0

    cx15 = 0
    for t in enumerate_lattice_tnorms(c3):
        for eq in enumerate_lattice_equalities(c3, t):
            mu = induce_lattice_vague_tnorm(eq, t)
            for reading in ("any-degree", "crisp"):
                if check_lattice_vague_strict_monotone(mu, c3, reading).holds \
                        and check_lattice_vague_cancellation(
                            mu, c3, reading).fails:
                    cx15 += 1
    assert cx15 == 0
    ok("C10", "(counts 1 and 2 match the oracle; sweeps for the three lattice claims clean)")


def test_c11_discrete_subalgebras():
    pts = mixed_grid_points(HALF, 2, 2)
    u_l = construct_uninorm_min(HALF, T_L, S_L)
    f_l = construct_nullnorm(S_L, HALF, T_L)
    assert check_discrete_subalgebra(pts, u_l).verdict is Verdict.HOLDS
    assert check_discrete_subalgebra(pts, f_l).verdict is Verdict.HOLDS
    ok("C11", "(the 5-point mixed grid is closed under both constructions)")


def test_c12_cli_suite_determinism():
    cmd = [sys.executable, "-m", "fuzznorm", "suite", "--all", "--grid", "6",
           "--format", "json"]
    outputs = []
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 300.0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1], "suite output is not byte-identical"
    obj = json.loads(outputs[0])
    assert obj["total_counterexamples"] == 0
    assert all(not row["skipped"] for row in obj["rows"])
    ok("C12", f"(two runs byte-identical, {len(obj['rows'])} rows, 0 counterexamples)")
