"""Floats stop at the boundary where a user callable's value enters.

A connective, a membership map, an equality or a vague table may hand
back a float. It is read as the rational it is (``scalars.exact``), so a
callable that returns ``float(v)`` and one that returns
``Fraction(float(v))`` are the same input: every check must give the
same bytes for both, and no report may hold a float.

The callables here are small rational tables on the grid ``k/n``. The
float of a non-dyadic point is a nearby binary rational, so each table
reads its arguments back to the grid with ``limit_denominator(n)``. Each
twin runs on the compiled orders, where every value it returns must get
an id, and again on the value reference (``value_reference.on_values``).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzznorm import checker, scalars
from fuzznorm.checker import FuzzyProp
from fuzznorm.connectives import (S_P, T_L, Connective, Role, construct_nullnorm,
                                  construct_uninorm_min, dualize)
from fuzznorm.fuzzy import check_fuzzy_property
from fuzznorm.reports import GridDomain, SearchBudget, dumps
from fuzznorm.subsets import FuzzySubset
from fuzznorm.scalars import unit
from fuzznorm.vague import (READINGS, check_vague_binary_op,
                            check_vague_cancellation, check_vague_commutativity,
                            check_vague_monoid, check_vague_strict_monotone,
                            induce_vague_tnorm, linear_equality, make_fuzzy_equality,
                            validate_fuzzy_equality, vague_op_from_table,
                            vague_table_from_json)
from value_reference import degree_values, on_values

F = Fraction
TWINS = (float, lambda v: F(float(v)))  # what the twin callables return


def _floats_in(report) -> list:
    """The floats anywhere in ``report``: witnesses, details, children."""
    found = []

    def walk(v):
        if isinstance(v, float):
            found.append(v)
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)
        elif isinstance(v, dict):
            for x in v.values():
                walk(x)

    walk([(w.inputs, w.values) for w in report.witnesses])
    walk(report.details)
    for child in report.children:
        found += _floats_in(child)
    return found


@st.composite
def tables(draw):
    """A grid resolution and rational tables on its points: a binary
    operator, a membership map, an equality and a ternary degree map."""
    n = draw(st.sampled_from((2, 3)))
    pts = GridDomain(n).points
    value = st.sampled_from(pts)
    op = {(x, y): draw(value) for x in pts for y in pts}
    mu = {x: draw(value) for x in pts}
    eq = {(x, y): draw(value) for x in pts for y in pts}
    deg = {(x, y, z): draw(value) for x in pts for y in pts for z in pts}
    return n, op, mu, eq, deg


def _inputs(n, op, mu, eq, deg, out):
    """The operator, map, equality and vague operator of the tables, each
    callable returning ``out`` of its rational value."""
    def grid(x):
        return F(x).limit_denominator(n)

    conn = Connective("table-op", Role.TNORM,
                      lambda x, y: out(op[(grid(x), grid(y))]), identity=F(1))
    subset = FuzzySubset("table-mu", lambda x: out(mu[grid(x)]))
    equality = make_fuzzy_equality(
        "table-eq", lambda a, b: out(eq[(grid(a), grid(b))]), conn,
        GridDomain(n).points)
    vop = vague_op_from_table("table-vague", equality.carrier, equality,
                              {k: out(v) for k, v in deg.items()})
    vop.underlying = conn
    return conn, subset, equality, vop


def _reports(n, conn, subset, equality, vague) -> list:
    domain = GridDomain(n)
    budget = SearchBudget(n_max=8, iter_cap=8)
    reports = [checker.check_axioms(conn, domain),
               validate_fuzzy_equality(equality.fn, conn, domain.points)]
    for prop in FuzzyProp:
        for gate in (True, False):
            reports.append(check_fuzzy_property(subset, conn, prop, domain,
                                                budget, gate))
    reports += [check_vague_binary_op(vague), check_vague_monoid(vague),
                check_vague_commutativity(vague)]
    for reading in READINGS:
        reports += [check_vague_strict_monotone(vague, reading),
                    check_vague_cancellation(vague, reading)]
    return reports


_THIRDS = GridDomain(3).points


@settings(max_examples=10, deadline=None)
@given(tables())
@example((3, {(x, y): min(x, y) for x in _THIRDS for y in _THIRDS},
          {x: 1 - x for x in _THIRDS},
          {(a, b): 1 - abs(a - b) for a in _THIRDS for b in _THIRDS},
          {(x, y, z): F(int(min(x, y) == z)) for x in _THIRDS for y in _THIRDS
           for z in _THIRDS}))
def test_float_and_fraction_twins_report_alike(drawn):
    runs = [_reports(drawn[0], *_inputs(*drawn, out)) for out in TWINS]
    with pytest.MonkeyPatch.context() as m:
        on_values(m)
        runs += [_reports(drawn[0], *_inputs(*drawn, out)) for out in TWINS]
    as_float = [dumps(r) for r in runs[0]]
    for run in runs:
        assert [dumps(r) for r in run] == as_float
        for report in run:
            assert _floats_in(report) == [], report.property_id


FLOAT_PRODUCT = Connective("float-product", Role.TNORM,
                           lambda x, y: float(x) * float(y), identity=F(1))


def test_splices_read_each_part_at_its_own_boundary():
    # the part's float is read as the rational it is before the splice
    # combines it with an exact parameter
    dual = dualize(FLOAT_PRODUCT)(F(9, 10), F(9, 10))
    assert dual == 1 - FLOAT_PRODUCT(F(1, 10), F(1, 10))
    assert dual == F(142674036195097313, 144115188075855872)
    third = F(1, 3)
    uninorm = construct_uninorm_min(third, FLOAT_PRODUCT, S_P)
    assert uninorm(F(1, 5), F(1, 4)) == third * FLOAT_PRODUCT(F(3, 5), F(3, 4))
    nullnorm = construct_nullnorm(S_P, third, FLOAT_PRODUCT)
    assert nullnorm(F(3, 5), F(4, 5)) == (
        2 * third * FLOAT_PRODUCT(F(2, 5), F(7, 10)) + third)


def test_unit_returns_an_in_range_fraction_as_it_is():
    x = F(3, 7)
    assert unit(x) is x
    for outside in (F(-1, 7), F(8, 7)):
        with pytest.raises(ValueError):
            unit(outside)


def test_a_vague_table_file_parses_each_degree_once(monkeypatch):
    pts = GridDomain(6).points
    equality = linear_equality(pts, T_L)
    induced = degree_values(induce_vague_tnorm(equality, T_L))
    obj = {"form": "table", "entries": [[str(x), str(y), str(z), str(d)]
                                        for (x, y, z), d in induced.items()]}
    parse, parsed = scalars.parse_rational, []

    def counted(text):
        parsed.append(text)
        return parse(text)

    # the keys are read by the vague module's own name for it
    monkeypatch.setattr(scalars, "parse_rational", counted)
    op = vague_table_from_json(obj, equality)
    assert len(parsed) == len(obj["entries"]) == 343
    assert degree_values(op) == induced
