"""The operator axioms, re-derived from their definitions.

Commutativity, associativity, monotonicity in each argument and the
boundary law (the neutral element on both sides) are written out again
in plain loops over ``itertools``, and no axiom core of
``fuzznorm.checker`` is imported (only ``_light_associative``, the
associativity test of lattice enumeration, which is tested against the
same oracle on every commutative table of three points). Each child of ``check_axioms`` (T1-T4,
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

from fuzznorm.checker import _light_associative, check_axioms
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


def test_lights_test_on_every_commutative_table_of_three_points():
    """``enumerate_lattice_tnorms`` keeps a table, symmetric and closed by
    construction, when ``checker._light_associative`` passes; on each of
    the 3^6 such tables on three points it must pass exactly when the
    oracle finds no associativity violation."""
    pts = (F(0), F(1, 2), F(1))
    pairs = list(combinations(pts, 2)) + [(x, x) for x in pts]
    kept = Counter()
    for values in product(pts, repeat=len(pairs)):
        cells = {}
        for (x, y), v in zip(pairs, values):
            cells[(x, y)] = cells[(y, x)] = v

        def op(x, y):
            return cells[(x, y)]
        expected = not oracle(op, pts, chain_leq, F(1))["associativity"]
        assert _light_associative(op, pts) is expected, cells
        # the enumerator's form: positions in a range
        assert _light_associative(
            lambda i, j: pts.index(op(pts[i], pts[j])), range(3)) is expected
        kept[expected] += 1
    assert kept[True] and kept[False]


def symmetric_neighbours(cells: dict, values) -> list:
    """Every table that differs from the symmetric ``cells`` in one cell
    of the diagonal or in two mirrored cells, so it still commutes."""
    return [{**cells, (x, y): v, (y, x): v} for (x, y) in cells
            if (x, y) <= (y, x) for v in values if v != cells[(x, y)]]


def test_lights_test_on_commutative_neighbours_of_tnorms():
    """Light's test against the oracle on every 4-chain and diamond t-norm
    and its commutative neighbours; a test that compares only two of the
    three arrangements passes some of these non-associative tables."""
    tables = [({(x, y): t(x, y) for x in CHAIN for y in CHAIN}, CHAIN)
              for t in enumerate_chain_tnorm_tables(CHAIN)]
    tables += [(dict(t.table), DIAMOND.elements)
               for t in enumerate_lattice_tnorms(DIAMOND)]
    kept = Counter()
    for cells, pts in tables:
        for table in [cells] + symmetric_neighbours(cells, pts):
            def op(x, y):
                return table[(x, y)]
            expected = not oracle(op, pts, chain_leq, pts[-1])["associativity"]
            assert _light_associative(op, pts) is expected, table
            kept[expected] += 1
    assert kept[True] > len(tables) and kept[False]
