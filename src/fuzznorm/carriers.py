"""Carrier monoids and finite groups that fuzzy subsets live on.

A carrier is either grid-backed (the unit interval under a connective,
sampled at grid points) or a finite table. Table carriers are validated
on construction: identity law always, associativity and closure for
finite tables. Grid carriers inherit the connective's own axiom report
instead of re-proving associativity here, and carry the connective's
value-id table over their points, so checks that sweep many membership
maps evaluate the operation once per pair.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import kernel
from .checker import _associativity, _identity
from .connectives import Connective
from .errors import DomainError, InputFormatError, read_json_object, read_name
from .scalars import parse_label


class CarrierMonoid:
    def __init__(self, label: str, elements: tuple, op: Callable, identity,
                 table: Optional[kernel.Kernel] = None):
        self.label, self.elements, self.op = label, elements, op
        self.identity = identity
        # op over elements as a kernel.Kernel, built by from_connective;
        # None for table carriers
        self.table = table

    def to_json(self) -> dict:
        return {"kind": "carrier", "label": self.label, "size": len(self.elements)}

    @staticmethod
    def from_connective(conn: Connective, domain) -> "CarrierMonoid":
        """Unit-interval monoid under ``conn`` sampled at domain points."""
        if conn.identity is None:
            raise DomainError(
                f"{conn.name} declares no identity element; not a monoid carrier")
        label = f"([0,1],{conn.name})@{domain.label()}"
        points = tuple(domain.points)
        return CarrierMonoid(label, points, conn, conn.identity,
                             table=kernel.Kernel(conn, points))

    @staticmethod
    def from_table(elements: Sequence, table: Mapping, identity,
                   label: str = "") -> "CarrierMonoid":
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise DomainError("carrier elements must be distinct")
        if identity not in elems:
            raise DomainError("identity element is not a carrier element")
        elem_set = set(elems)

        def op(a, b):
            return table[(a, b)]

        for a in elems:
            for b in elems:
                if (a, b) not in table:
                    raise DomainError(f"operation table missing entry ({a}, {b})")
                if table[(a, b)] not in elem_set:
                    raise DomainError(f"operation table leaves the carrier at ({a}, {b})")
        for _, lhs, a in _identity(op, elems, identity):
            if lhs != a:
                raise DomainError(f"identity law fails at {a}")
        for (a, b, c), lhs, rhs in _associativity(op, elems):
            if lhs != rhs:
                raise DomainError(f"associativity fails at ({a}, {b}, {c})")
        return CarrierMonoid(label or f"table-monoid(size={len(elems)})",
                             elems, op, identity)


class FiniteGroup(NamedTuple):
    monoid: CarrierMonoid
    inverse: Mapping

    @property
    def elements(self) -> tuple:
        return self.monoid.elements

    @property
    def identity(self):
        return self.monoid.identity

    def op(self, a, b):
        return self.monoid.op(a, b)

    def to_json(self) -> dict:
        return {"kind": "group", "label": self.monoid.label,
                "size": len(self.elements)}

    @staticmethod
    def from_table(elements: Sequence, table: Mapping, identity,
                   label: str = "") -> "FiniteGroup":
        return FiniteGroup.of(
            CarrierMonoid.from_table(elements, table, identity, label))

    @staticmethod
    def of(monoid: CarrierMonoid) -> "FiniteGroup":
        """``monoid`` as a group: every element needs a two-sided inverse."""
        op, e, inverse = monoid.op, monoid.identity, {}
        for a in monoid.elements:
            for b in monoid.elements:
                if op(a, b) == e and op(b, a) == e:
                    inverse[a] = b
                    break
            else:
                raise DomainError(f"element {a} has no two-sided inverse")
        return FiniteGroup(monoid, inverse)


def cyclic_group(n: int) -> FiniteGroup:
    """Integers mod n under addition."""
    if n < 1:
        raise DomainError("cyclic group order must be positive")
    elements = tuple(range(n))
    table = {(a, b): (a + b) % n for a in elements for b in elements}
    return FiniteGroup.from_table(elements, table, 0, label=f"Z{n}")


def carrier_from_json(obj: dict, *, path: Optional[str] = None) -> CarrierMonoid:
    """Parse the finite-carrier file format:
    {"elements": [...], "op": [[...]], "identity": "e"}."""
    for key in ("elements", "op", "identity"):
        if key not in obj:
            raise InputFormatError("missing key", path=path, field=key)
    raw_elems = obj["elements"]
    if not isinstance(raw_elems, list) or not raw_elems:
        raise InputFormatError("elements must be a non-empty list",
                              path=path, field="elements")
    elems = tuple(parse_label(e) for e in raw_elems)
    rows = obj["op"]
    if not (isinstance(rows, list) and len(rows) == len(elems) and all(
            isinstance(row, list) and len(row) == len(elems) for row in rows)):
        raise InputFormatError("op must be a square matrix over elements",
                              path=path, field="op")
    table = {(a, b): parse_label(cell)
             for a, row in zip(elems, rows) for b, cell in zip(elems, row)}
    identity = parse_label(obj["identity"])
    label = read_name(obj, "label", "", path=path)
    # the refusals from_table makes before it reads the op table
    field = ("elements" if len(set(elems)) != len(elems)
             else "identity" if identity not in elems else "op")
    try:
        return CarrierMonoid.from_table(elems, table, identity, label=label)
    except DomainError as exc:
        raise InputFormatError(str(exc), path=path, field=field) from None


def load_carrier(path: str) -> CarrierMonoid:
    return carrier_from_json(read_json_object(path), path=path)
