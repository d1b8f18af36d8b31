"""Degree-valued equalities and vague operations.

A T-fuzzy equality assigns each pair a degree of sameness, transitive
through the chosen conjunction. A vague binary operation assigns each
triple (x, y, z) the degree to which x combined with y "is" z; the
canonical instance sets that degree to the equality between the
operator value and z. All checks here quantify over full Cartesian
powers of the carrier, so carriers are kept small and the tuple count
is budget-guarded.

Each condition is implemented once, over a degree order. The checks
here run it on the degree order a vague operator compiles when it is
built (``kernel.compile_degrees``: points and degrees as ids), its only
degree table; the lattice-valued ones in ``fuzznorm.lattice`` run it on
a ``FiniteLattice``, and the same cores on the unit interval
(``scalars.UNIT_INTERVAL``) are the tests' reference.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Sequence

from . import kernel, reports
from .connectives import T_M, Connective, Role
from .errors import (BudgetExceededError, DomainError, InputFormatError,
                     TotalityError, read_entries, read_name)
from .reports import (READINGS, PropertyReport, Verdict, Witness, collect,
                      combine, conclude, decide)
from .scalars import (ONE, UNIT_INTERVAL, ZERO, Scalar, exact, format_scalar,
                      parse_rational, unit)


def _carrier_label(carrier) -> str:
    return "{" + ",".join(format_scalar(x) for x in carrier) + "}"


class TFuzzyEquality:
    """A degree-valued equality, kept callable rather than tabulated so
    induced operators can ask about values the carrier grid does not
    contain (products under non-grid-closed operators); a float ``fn``
    returns is read as the rational it is. ``report`` is its
    ``validate_fuzzy_equality`` report."""

    def __init__(self, label: str, carrier: tuple, tnorm: Connective,
                 fn: Callable, report: PropertyReport):
        self.label, self.carrier, self.tnorm, self.fn = label, carrier, tnorm, fn
        self.report = report

    def __call__(self, a, b) -> Scalar:
        return exact(self.fn(a, b))

    @property
    def validated(self) -> bool:
        return self.report.holds


def _validate_equality(order, fn, tnorm, carrier, rid, dom) -> PropertyReport:
    _tuple_budget(len(carrier), 3, "transitivity")
    leq, top, n = order.leq, order.top, len(carrier)
    e = [[fn(x, y) for y in carrier] for x in carrier]  # one call a pair
    refl_w = [Witness((x, x), (e[i][i],)) for i, x in enumerate(carrier)
              if e[i][i] != top]
    transitivity = (((x, y, z), tnorm(exy, eyz), exz)
                    for x, ex in zip(carrier, e) for y, ey, exy in zip(carrier, e, ex)
                    for z, eyz, exz in zip(carrier, ey, ex))
    symmetry = (((x, carrier[j]), e[i][j], e[j][i])
                for i, x in enumerate(carrier) for j in range(i + 1, n))
    children = [
        conclude("E1:reflexivity", dom, refl_w, instances=n),
        decide("E2:symmetry", dom, operator.eq, symmetry, instances=n ** 2),
        decide("E3:transitivity", dom, leq, transitivity),
    ]
    separates = all(x == y or v != top
                    for x, ex in zip(carrier, e) for y, v in zip(carrier, ex))
    return combine(rid, children, dom,
                   details={"tnorm": tnorm.name, "separates_points": separates})


def validate_fuzzy_equality(fn: Callable, tnorm: Connective, carrier: Sequence) -> PropertyReport:
    """Reflexivity, symmetry, and transitivity through the conjunction,
    each as a child verdict; point separation is reported as a detail. A
    float ``fn`` returns is read as the rational it is, and so is a
    carrier point that is a number (a label stays)."""
    carrier = tuple(map(exact, carrier))
    dom = {"kind": "carrier", "label": _carrier_label(carrier), "size": len(carrier)}
    return _validate_equality(UNIT_INTERVAL, lambda a, b: exact(fn(a, b)),
                              tnorm, carrier, "fuzzy-equality", dom)


def make_fuzzy_equality(label: str, fn: Callable, tnorm: Connective,
                        carrier: Sequence) -> TFuzzyEquality:
    """The equality ``fn`` on ``carrier``, each point a number read as the
    ``Fraction`` it is (a label stays), with its validation report."""
    carrier = tuple(map(exact, carrier))
    return TFuzzyEquality(label, carrier, tnorm, fn,
                          validate_fuzzy_equality(fn, tnorm, carrier))


def _crisp_fn(a, b):
    return ONE if a == b else ZERO


def crisp_equality(carrier: Sequence, tnorm: Connective) -> TFuzzyEquality:
    return make_fuzzy_equality("crisp", _crisp_fn, tnorm, carrier)


def _linear_fn(a, b):
    return 1 - abs(a - b)


def linear_equality(carrier: Sequence, tnorm: Connective) -> TFuzzyEquality:
    """1 - |a - b|; transitive for conjunctions below the Lukasiewicz one."""
    return make_fuzzy_equality("linear", _linear_fn, tnorm, carrier)


class VagueBinaryOp:
    """``order`` is the ``kernel.compile_degrees`` order, the one table of
    the degrees: ``order.deg`` keyed by carrier-id triples. ``underlying``
    is the t-norm the operator is induced from or stands for (None for a
    bare table), which the vague t-norm checks name."""

    def __init__(self, label: str, carrier: tuple, equality: TFuzzyEquality,
                 order: kernel.IdOrder, underlying: Connective | None = None):
        self.label, self.carrier, self.equality = label, carrier, equality
        self.order, self.underlying = order, underlying

    def __call__(self, x, y, z) -> Scalar:
        # carrier points are interned first: a point's id is its position
        order = self.order
        ids = order.ids
        return order.vals[order.deg[(ids[x], ids[y], ids[z])]]

    @property
    def tnorm(self) -> Connective:
        return self.equality.tnorm

    def to_json(self) -> dict:
        return {"kind": "vague-op", "label": self.label,
                "tnorm": self.tnorm.name, "size": len(self.carrier)}


def _tnorm_dom(op: VagueBinaryOp) -> dict:
    """The domain of a vague t-norm check; a bare table names no t-norm."""
    if op.underlying is None:
        raise DomainError(f"{op.label} stands for no t-norm")
    return {"kind": "vague-tnorm", "label": op.label,
            "underlying": op.underlying.name, "size": len(op.carrier)}


def vague_op_from_table(label: str, carrier: Sequence, equality: TFuzzyEquality,
                        table: Mapping) -> VagueBinaryOp:
    """The vague operation of ``table``: a float degree read as the
    rational it is, and every degree by ``unit``, which refuses one
    outside [0, 1]; carrier points are read as ``make_fuzzy_equality``
    reads them."""
    carrier = tuple(map(exact, carrier))
    for x in carrier:
        for y in carrier:
            for z in carrier:
                if (x, y, z) not in table:
                    raise DomainError(f"vague table missing entry ({x}, {y}, {z})")
    degrees = {k: unit(exact(v)) for k, v in table.items()}
    return VagueBinaryOp(label, carrier, equality, kernel.compile_degrees(
        carrier, lambda x, y: [degrees[(x, y, z)] for z in carrier],
        equality.tnorm, equality))


def _table_entries_from_json(obj: dict, arity: int, *, path=None) -> dict:
    if obj.get("form") != "table":
        raise InputFormatError("expected a table form", path=path, field="form")
    return read_entries(
        obj, arity, parse_rational, unit,
        lambda key: f"key ({', '.join(format_scalar(k) for k in key)})",
        path=path)


def equality_from_json(obj: dict, tnorm: Connective, *,
                       path=None) -> TFuzzyEquality:
    """Arity-2 rational-table schema:
    {"form": "table", "entries": [["x", "y", "degree"], ...]}."""
    mapping = _table_entries_from_json(obj, 2, path=path)
    carrier = tuple(sorted({k[0] for k in mapping} | {k[1] for k in mapping}))

    def fn(a, b):
        try:
            return mapping[(a, b)]
        except KeyError:
            raise TotalityError(
                f"equality table has no value at ({format_scalar(a)}, "
                f"{format_scalar(b)})") from None

    label = read_name(obj, "name", "table-equality", path=path)
    return make_fuzzy_equality(label, fn, tnorm, carrier)


def vague_table_from_json(obj: dict, equality: TFuzzyEquality, *,
                          path=None) -> VagueBinaryOp:
    """Arity-3 rational-table schema for ternary degree maps."""
    mapping = _table_entries_from_json(obj, 3, path=path)
    return vague_op_from_table(read_name(obj, "name", "table-op", path=path),
                               equality.carrier, equality, mapping)


def induce_vague_tnorm(equality: TFuzzyEquality, conn: Connective) -> VagueBinaryOp:
    """Canonical vague operator: the degree that conn(x, y) equals z.

    Totality is witnessed by z = conn(x, y) itself, where the degree is
    the reflexive 1.
    """
    if not equality.validated:
        raise DomainError("the fuzzy equality must be validated first")
    if conn.role is not Role.TNORM:
        raise DomainError(f"expected a t-norm, got {conn.name}")
    return _induced(f"induced({equality.label},{conn.name})", equality, conn, conn)


def _induced(label: str, equality: TFuzzyEquality, op: Callable,
             underlying: Connective | None) -> VagueBinaryOp:
    """The vague operation ``op`` induces through ``equality``: the degree
    at (x, y, z) is the equality of op(x, y) and z."""
    carrier = equality.carrier

    def rows(x, y):
        v = op(x, y)
        return [equality(v, z) for z in carrier]
    return VagueBinaryOp(label, carrier, equality, kernel.compile_degrees(
        carrier, rows, equality.tnorm, equality), underlying)


def _tuple_budget(size: int, power: int, what: str) -> None:
    total, cap = size ** power, reports.MAX_TUPLES
    if total > cap:
        raise BudgetExceededError(
            f"{what} needs {total} tuples on a carrier of size {size}; "
            f"budget allows {cap}", size_estimate=total)


def _on_degree_order(op: VagueBinaryOp, run: Callable) -> PropertyReport:
    """``run(order, t, deg, eq, carrier)`` on the degree order of ``op``,
    its ids turned back into values."""
    order = op.order
    return kernel.values_of(
        run(order, order.t, order.deg, order.eq, order.points), order.vals)


def _op_conditions(order, t, deg, eq, carrier, rid, dom) -> PropertyReport:
    """V1-V3 for the degree map ``deg`` keyed by carrier triples, with
    equality ``eq`` and conjunction ``t`` on the degrees of ``order``.
    Tuples whose conjunction bottoms out at the bottom degree hold."""
    bottom, top, leq = order.bottom, order.top, order.leq

    def extensionality():
        for x in carrier:
            for y in carrier:
                for z in carrier:
                    m = deg[(x, y, z)]
                    if m == bottom:
                        continue
                    for x2 in carrier:
                        f1 = t(m, eq(x, x2))
                        if f1 == bottom:
                            continue
                        for y2 in carrier:
                            f2 = t(f1, eq(y, y2))
                            if f2 == bottom:
                                continue
                            for z2 in carrier:
                                yield ((x, y, z, x2, y2, z2), t(f2, eq(z, z2)),
                                       deg[(x2, y2, z2)])

    def functionality():
        for x in carrier:
            for y in carrier:
                for z in carrier:
                    m = deg[(x, y, z)]
                    if m == bottom:
                        continue
                    for z2 in carrier:
                        yield (x, y, z, z2), t(m, deg[(x, y, z2)]), eq(z, z2)

    n = len(carrier)
    ext = decide("V1:extensionality", dom, leq, extensionality(), instances=n ** 6)
    fun = decide("V2:functionality", dom, leq, functionality(), instances=n ** 4)
    tot_w = [Witness((x, y), ()) for x in carrier for y in carrier
             if not any(deg[(x, y, z)] == top for z in carrier)]
    tot = conclude("V3:totality", dom, tot_w, instances=n ** 2)
    return combine(rid, [ext, fun, tot], dom)


def check_vague_binary_op(op: VagueBinaryOp) -> PropertyReport:
    """The three defining conditions: extensionality through the
    equality, functionality of the result degree, and totality."""
    _tuple_budget(len(op.carrier), 6, "extensionality")
    return _on_degree_order(op, lambda *on: _op_conditions(
        *on, "vague-binary-op", op.to_json()))


def _monoid(order, t, deg, eq, carrier, rid, dom) -> PropertyReport:
    """The associativity inequality over all seven-tuples plus an
    identity element search."""
    bottom, top = order.bottom, order.top

    def associativity():
        for y in carrier:
            for z in carrier:
                for d in carrier:
                    f1 = deg[(y, z, d)]
                    if f1 == bottom:
                        continue
                    for x in carrier:
                        for m in carrier:
                            f2 = t(f1, deg[(x, d, m)])
                            if f2 == bottom:
                                continue
                            for q in carrier:
                                f3 = t(f2, deg[(x, y, q)])
                                if f3 == bottom:
                                    continue
                                for w in carrier:
                                    yield ((x, y, z, d, m, q, w),
                                           t(f3, deg[(q, z, w)]), eq(m, w))

    identity = next((e for e in carrier
                     if all(t(deg[(e, a, a)], deg[(a, e, a)]) == top
                            for a in carrier)), None)
    missing = [] if identity is not None else [Witness(("no-identity-element",), ())]
    return decide(rid, dom, order.leq, associativity(),
                  instances=len(carrier) ** 7, then=missing,
                  details={"identity": None if identity is None
                           else format_scalar(identity)})


def check_vague_monoid(op: VagueBinaryOp) -> PropertyReport:
    """The seven-tuple associativity inequality and an identity element.

    Tables that are not vague binary operations in the first place fail
    here up front, tagged NOT_VAGUE_OP.
    """
    _tuple_budget(len(op.carrier), 6, "extensionality")
    dom = op.to_json()

    def gated_monoid(*on):
        gate = _op_conditions(*on, "vague-binary-op", dom)
        if gate.verdict is Verdict.FAILS:
            return PropertyReport("vague-monoid", Verdict.FAILS, dom,
                                  witnesses=[w for c in gate.children
                                             for w in c.witnesses],
                                  tags=("NOT_VAGUE_OP",))
        _tuple_budget(len(op.carrier), 7, "the vague associativity loop")
        return _monoid(*on, "vague-monoid", dom)
    return _on_degree_order(op, gated_monoid)


def _commutativity(order, t, deg, eq, carrier, rid, dom) -> PropertyReport:
    _tuple_budget(len(carrier), 4, "commutativity")
    bottom = order.bottom

    def cases():
        for a in carrier:
            for b in carrier:
                for m in carrier:
                    f1 = deg[(a, b, m)]
                    if f1 == bottom:
                        continue
                    for w in carrier:
                        yield (a, b, m, w), t(f1, deg[(b, a, w)]), eq(m, w)

    return decide(rid, dom, order.leq, cases(), instances=len(carrier) ** 4)


def check_vague_commutativity(op: VagueBinaryOp) -> PropertyReport:
    """T(degree(a,b,m), degree(b,a,w)) never exceeds the equality of m
    and w."""
    dom = _tnorm_dom(op)
    return _on_degree_order(op, lambda *on: _commutativity(
        *on, "vague-commutativity", dom))


def _degrees_match(order, reading: str) -> Callable:
    """The premise test on two degrees under ``reading``."""
    top = order.top
    if reading == "crisp":
        return lambda da, db: da == top and db == top
    if reading == "any-degree":
        return operator.eq
    raise DomainError(f"unknown premise reading {reading!r}; use one of {READINGS}")


def _strict_monotone(order, t, deg, eq, carrier, reading, rid,
                     dom) -> PropertyReport:
    _tuple_budget(len(carrier), 5, "strict monotonicity")
    lt, match = order.lt, _degrees_match(order, reading)
    instances = 0

    def found():
        nonlocal instances
        for x in carrier:
            for y in carrier:
                if not lt(x, y):
                    continue
                for z in carrier:
                    for a in carrier:
                        da = deg[(x, z, a)]
                        for b in carrier:
                            db = deg[(y, z, b)]
                            if not match(da, db):
                                continue
                            instances += 1
                            if not lt(a, b):
                                yield Witness((x, y, z, a, b), (da, db))
    witnesses = collect(found())
    return conclude(rid, dom, witnesses, instances=instances,
                    details={"reading": reading})


def check_vague_strict_monotone(op: VagueBinaryOp,
                                reading: str = "any-degree") -> PropertyReport:
    """x < y with matching degrees at (x,z,a) and (y,z,b) must force
    a < b. The premise reading (any common degree, or degree 1 only) is
    configurable and recorded in the report."""
    dom = _tnorm_dom(op)
    return _on_degree_order(op, lambda *on: _strict_monotone(
        *on, reading, "vague-strict-monotonicity", dom))


def _cancellation(order, t, deg, eq, carrier, reading, rid,
                  dom) -> PropertyReport:
    _tuple_budget(len(carrier), 4, "cancellation")
    match = _degrees_match(order, reading)
    witnesses = []
    instances = 0
    for a in carrier:
        for b in carrier:
            for x in carrier:
                for c in carrier:
                    da, db = deg[(a, x, c)], deg[(b, x, c)]
                    if not match(da, db):
                        continue
                    instances += 1
                    if a != b:
                        witnesses.append(Witness((a, b, x, c), (da, db)))
    return conclude(rid, dom, witnesses, instances=instances,
                    details={"reading": reading})


def check_vague_cancellation(op: VagueBinaryOp, reading: str = "any-degree") -> PropertyReport:
    """Matching degrees at (a,x,c) and (b,x,c) must force a = b."""
    dom = _tnorm_dom(op)
    return _on_degree_order(op, lambda *on: _cancellation(
        *on, reading, "vague-cancellation", dom))


# --- vague groups over finite carriers ---

def crisp_vague_group(group) -> VagueBinaryOp:
    """The vague operation a ``carriers.FiniteGroup``'s product induces
    under the crisp equality: degree 1 on exact products, 0 elsewhere."""
    return _induced(group.monoid.label, crisp_equality(group.elements, T_M),
                    group.op, None)


def check_vague_group_cancellation(op: VagueBinaryOp, group) -> PropertyReport:
    """Both one-sided generalized cancellation inequalities of ``op`` on
    the elements of the ``carriers.FiniteGroup`` ``group``.

    ``op`` must be a genuine vague group: identity and inverse degrees
    of 1 are preconditions, not check outcomes.
    """
    elements = group.elements
    if op.carrier != elements:
        raise DomainError(f"{op.label} is not on the elements of {group.monoid.label}")
    e = group.identity
    for a in elements:
        inv = group.inverse[a]
        if not op(inv, a, e) == op(a, inv, e) == ONE:
            raise DomainError(
                f"inverse degree below 1 at element {a}; not a vague group")
        if not op(e, a, a) == op(a, e, a) == ONE:
            raise DomainError(
                f"identity degree below 1 at element {a}; not a vague group")
    dom = {"kind": "vague-group", "label": group.monoid.label,
           "size": len(elements)}

    def cases(order, t, deg, eq, carrier):
        meet = order.meet
        for a in carrier:
            for b in carrier:
                for c in carrier:
                    ebc = eq(b, c)
                    for u in carrier:
                        yield ("L", a, b, c, u), meet(deg[(a, b, u)], deg[(a, c, u)]), ebc
                        yield ("R", a, b, c, u), meet(deg[(b, a, u)], deg[(c, a, u)]), ebc
    return _on_degree_order(op, lambda order, *on: decide(
        "vague-group-cancellation", dom, order.leq, cases(order, *on)))
