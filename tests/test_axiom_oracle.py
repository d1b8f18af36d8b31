"""The operator axioms, re-derived from their definitions.

Commutativity, associativity, monotonicity in each argument and the
boundary law (the neutral element on both sides) are written out again
in plain loops over ``itertools``, and no axiom core of
``fuzznorm.checker`` is imported. Each child of ``check_axioms`` (T1-T4,
S1-S4) and of ``check_lattice_tnorm`` (L1-L4) must then FAIL exactly
when its axiom has a violation here, with those violations as its
witnesses, each carrying the two sides it violates with.

The operators: the four builtin t-norms and t-conorms at grid 4, every
t-norm table of the 4-chain and every diamond t-norm, which satisfy the
axioms, and every table that differs from one of those tables in one
cell, which break them in every way one cell can.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from fuzznorm.checker import check_axioms
from fuzznorm.connectives import BUILTIN_TCONORMS, BUILTIN_TNORMS, Role
from fuzznorm.lattice import (check_lattice_tnorm, diamond_lattice,
                              enumerate_lattice_tnorms)
from fuzznorm.reports import FinitePoints, GridDomain, Verdict
from fuzznorm.tables import (ChainTable, enumerate_chain_tnorm_tables,
                             uniform_chain)

F = Fraction
CHAIN = uniform_chain(4)
DIAMOND = diamond_lattice()


def oracle(op, pts, leq, e) -> dict:
    """Axiom name -> the multiset of its (inputs, values) violations for
    the operator ``op`` on the points ``pts`` ordered by ``leq``, with
    ``e`` the claimed neutral element."""
    comm, assoc, mono, bound = Counter(), Counter(), Counter(), Counter()
    for x, y in combinations(pts, 2):
        if op(x, y) != op(y, x):
            comm[((x, y), (op(x, y), op(y, x)))] += 1
    for x, y, z in product(pts, repeat=3):
        left, right = op(op(x, y), z), op(x, op(y, z))
        if left != right:
            assoc[((x, y, z), (left, right))] += 1
    for x, y, z in product(pts, repeat=3):
        if y == z or not leq(y, z):
            continue
        if not leq(op(x, y), op(x, z)):
            mono[((x, y, z), (op(x, y), op(x, z)))] += 1
        if not leq(op(y, x), op(z, x)):
            mono[((y, z, x), (op(y, x), op(z, x)))] += 1
    for x in pts:
        if op(x, e) != x:
            bound[((x, e), (op(x, e), x))] += 1
        if op(e, x) != x:
            bound[((e, x), (op(e, x), x))] += 1
    return {"commutativity": comm, "associativity": assoc,
            "monotonicity": mono, "boundary": bound}


def assert_children_match(report, prefix, axioms, expected):
    assert [c.property_id for c in report.children] == [
        f"{prefix}{k}:{name}" for k, name in enumerate(axioms, 1)]
    for child, name in zip(report.children, axioms):
        want = expected[name]
        assert child.verdict is (Verdict.FAILS if want else Verdict.HOLDS), \
            child.property_id
        got = Counter((w.inputs, w.values) for w in child.witnesses)
        assert got == want, child.property_id


TNORM_AXIOMS = ("commutativity", "associativity", "monotonicity", "boundary")
LATTICE_AXIOMS = ("monotonicity", "associativity", "commutativity", "boundary")


def chain_leq(a, b):
    return a <= b


def diamond_leq(a, b):
    # bottom, two incomparable atoms, top
    return a == b or a == DIAMOND.bottom or b == DIAMOND.top


def one_cell_away(cells: dict, values) -> list:
    """Every table that differs from ``cells`` in exactly one cell."""
    return [{**cells, key: v} for key in cells for v in values
            if v != cells[key]]


@pytest.mark.parametrize("conn", BUILTIN_TNORMS + BUILTIN_TCONORMS,
                         ids=lambda c: c.name)
def test_builtins_at_grid_4(conn):
    dom = GridDomain(4)
    prefix = "T" if conn.role is Role.TNORM else "S"
    assert_children_match(check_axioms(conn, dom), prefix, TNORM_AXIOMS,
                          oracle(conn, dom.points, chain_leq, conn.identity))


def chain_tables() -> list:
    tnorms = [{(x, y): t(x, y) for x in CHAIN for y in CHAIN}
              for t in enumerate_chain_tnorm_tables(CHAIN)]
    assert len(tnorms) == 6
    return tnorms + [c for t in tnorms for c in one_cell_away(t, CHAIN)]


def test_every_4_chain_table_and_its_one_cell_changes():
    dom = FinitePoints(CHAIN)
    seen = set()
    for cells in chain_tables():
        matrix = tuple(tuple(cells[(x, y)] for y in CHAIN) for x in CHAIN)
        conn = ChainTable(CHAIN, matrix).as_connective()
        report = check_axioms(conn, dom)
        expected = oracle(lambda x, y: cells[(x, y)], CHAIN, chain_leq, F(1))
        assert_children_match(report, "T", TNORM_AXIOMS, expected)
        seen.update(name for name, found in expected.items() if found)
    # each axiom is broken by some table, so each child is tested to fail
    assert set(seen) == set(TNORM_AXIOMS)


def test_every_diamond_tnorm_and_its_one_cell_changes():
    tnorms = [dict(t.table) for t in enumerate_lattice_tnorms(DIAMOND)]
    seen = set()
    for cells in tnorms + [c for t in tnorms
                           for c in one_cell_away(t, DIAMOND.elements)]:
        report = check_lattice_tnorm(cells, DIAMOND)
        expected = oracle(lambda x, y: cells[(x, y)], DIAMOND.elements,
                          diamond_leq, DIAMOND.top)
        assert_children_match(report, "L", LATTICE_AXIOMS, expected)
        seen.update(name for name, found in expected.items() if found)
    assert set(seen) == set(LATTICE_AXIOMS)
