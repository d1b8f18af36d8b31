"""Membership maps from a carrier into [0, 1].

A subset is total on its carrier: the builtin forms are closed-form
expressions defined on all of [0, 1], while table forms raise
``TotalityError`` at any point they do not cover (grid carriers whose
operation leaves the grid surface this as a totality failure, which the
CLI maps to its own exit code); lattice-valued maps are table maps too.
The t-subnorm condition is implemented once, over a degree order
(``scalars.UNIT_INTERVAL`` or a ``FiniteLattice``), as a check of one
map and as a generator of every t-subnorm table of a finite operator.
The table maps a sweep enumerates or generates carry their values as
ids of the sweep's compiled alphabet (``kernel.compile_alphabet``) too,
and the closure loop runs on those ids where it can.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import kernel
from .errors import (InputFormatError, TotalityError, UnknownOperatorError,
                     read_entries, read_json_object, read_name)
from .reports import Witness, collect
from .scalars import (ONE, ZERO, Scalar, exact, format_scalar, parse_label,
                      parse_rational, unit)


class FuzzySubset(NamedTuple):
    name: str
    fn: Callable[[object], Scalar]

    def __call__(self, x) -> Scalar:
        v = self.fn(x)
        if v is None:  # a number or a lattice label passes
            raise _no_value(x, f"membership map {self.name}")
        return exact(v)


def _id_fn(x):
    return x


def _one_fn(x):
    return ONE


def _zero_fn(x):
    return ZERO


def _complement_fn(x):
    return 1 - x


class _StepFn:
    # identity below the threshold, full membership from it on
    def __init__(self, e: Fraction):
        self.e = e

    def __call__(self, x):
        return x if x < self.e else ONE


def _no_value(x, what: str = "membership table") -> TotalityError:
    return TotalityError(f"{what} has no value at {format_scalar(x)}")


class _TableFn:
    """``values[index[x]]``, where ``index`` maps each element to its
    position (an element listed twice to its last) and may be shared by
    the tables of one sweep; ``ids[i]``, when given, is the id of
    ``values[i]`` in the alphabet order ``order``."""

    def __init__(self, elements, values: list, index: Optional[dict] = None,
                 order=None, ids=None):
        self.elements, self.values = tuple(elements), values
        self.index = index or {e: i for i, e in enumerate(self.elements)}
        self.order, self.ids = order, ids

    def __call__(self, x):
        try:
            return self.values[self.index[x]]
        except (KeyError, TypeError):
            raise _no_value(x) from None


MU_ID = FuzzySubset("builtin:identity", _id_fn)
MU_ONE = FuzzySubset("builtin:one", _one_fn)
MU_ZERO = FuzzySubset("builtin:zero", _zero_fn)
MU_COMPLEMENT = FuzzySubset("builtin:complement", _complement_fn)


def step_subset(e) -> FuzzySubset:
    e = unit(e)
    return FuzzySubset(f"builtin:step({e})", _StepFn(e))


def table_subset(entries: Mapping, name: str = "") -> FuzzySubset:
    """The table map of ``entries``, each value read by ``unit``, which
    refuses one outside [0, 1]."""
    clean = {key: unit(value) for key, value in entries.items()}
    if not name:
        body = ",".join(f"{format_scalar(k)}:{format_scalar(v)}"
                        for k, v in sorted(clean.items(), key=lambda kv: str(kv[0])))
        name = "table{" + body + "}"
    return FuzzySubset(name, _TableFn(clean, list(clean.values())))


_BUILTINS = {
    "identity": lambda: MU_ID,
    "one": lambda: MU_ONE,
    "zero": lambda: MU_ZERO,
    "complement": lambda: MU_COMPLEMENT,
}

_STEP_RE = re.compile(r"^step\((.+)\)$")


def parse_builtin_subset(spec: str) -> FuzzySubset:
    body = spec[len("builtin:"):] if spec.startswith("builtin:") else spec
    if body in _BUILTINS:
        return _BUILTINS[body]()
    m = _STEP_RE.match(body)
    if m:
        try:
            return step_subset(parse_rational(m.group(1)))
        except ValueError as exc:
            raise UnknownOperatorError(str(exc)) from None
    raise UnknownOperatorError(f"unknown builtin membership form: {spec!r}")


def subset_from_json(obj: dict, *, path: Optional[str] = None) -> FuzzySubset:
    """Parse the membership file format: {"form": "builtin:identity"} or
    {"form": "table", "entries": [["1/2", "3/4"], ...]}."""
    if "form" not in obj:
        raise InputFormatError("missing key", path=path, field="form")
    form = obj["form"]
    if form == "table":
        mapping = read_entries(
            obj, 1, parse_label, unit,
            lambda key: f"point {format_scalar(key[0])}", path=path)
        return table_subset({k: v for (k,), v in mapping.items()},
                            name=read_name(obj, "name", "", path=path))
    if isinstance(form, str):
        try:
            return parse_builtin_subset(form)
        except UnknownOperatorError as exc:
            raise InputFormatError(str(exc), path=path, field="form") from None
    raise InputFormatError("form must be a string", path=path, field="form")


def load_subset(path: str) -> FuzzySubset:
    return subset_from_json(read_json_object(path), path=path)


def parse_subset_spec(spec: str) -> FuzzySubset:
    """CLI entry point: builtin:<form> or a path to a JSON file."""
    if spec.startswith("builtin:"):
        return parse_builtin_subset(spec)
    return load_subset(spec)


def intersect_fuzzy_subsets(subsets: Sequence[FuzzySubset]) -> FuzzySubset:
    """Pointwise infimum; the empty intersection is the full subset."""
    if not subsets:
        return MU_ONE
    name = "intersect(" + ",".join(s.name for s in subsets) + ")"

    def fn(x):
        return min(s(x) for s in subsets)

    return FuzzySubset(name, fn)


def named_table(elements: tuple, index: dict, alphabet: Sequence,
                positions: Sequence,
                order: Optional[kernel.IdOrder] = None) -> FuzzySubset:
    """The table map sending ``elements[i]`` to ``alphabet[positions[i]]``,
    named by the values in element order; ``index`` is its element
    positions. With the alphabet's compiled ``order`` it carries the
    values' ids too."""
    values = [alphabet[k] for k in positions]
    name = "mu(" + ",".join(format_scalar(v) for v in values) + ")"
    ids = None if order is None else tuple([order.letters[k] for k in positions])
    return FuzzySubset(name, _TableFn(elements, values, index, order, ids))


def _sweep(elements: Sequence, alphabet: Sequence) -> tuple:
    """What every table map of one sweep shares: its elements, their
    positions, the alphabet and the alphabet's compiled order."""
    elements, alphabet = tuple(elements), tuple(alphabet)
    index = {e: i for i, e in enumerate(elements)}
    return elements, index, alphabet, kernel.compile_alphabet(alphabet)


def enumerate_table_subsets(elements: Sequence, alphabet: Sequence[Fraction]) -> Iterator[FuzzySubset]:
    """Every membership table over the alphabet, in product order."""
    elements, index, alphabet, order = _sweep(elements, alphabet)
    for positions in itertools.product(range(len(alphabet)), repeat=len(elements)):
        yield named_table(elements, index, alphabet, positions, order)


def _closure_witnesses(mu, elems: Sequence, op: Callable, combine: Callable,
                       leq: Callable, arities: Sequence = (2,),
                       table=None) -> list:
    """The closure condition of a fuzzy submonoid: a witness for every
    tuple of ``elems`` where ``leq(combine(mu x, ..), mu(x o ..))`` is
    False. ``combine`` is the order's meet or a combiner replacing it,
    ``leq`` the order's.
    ``table``, a ``kernel.Kernel`` of ``op`` over ``elems``, serves the
    pairs when given, as one scan over its ``triples``; when it keeps
    every product among ``elems`` and ``mu`` is a table map with ids over
    ``elems``, the scan runs on ids (carrier positions and the map's
    alphabet order). A map with no value at a product raises
    ``TotalityError``: before any witness at a product of two served by
    ``table``, else when the loop reaches it, so in the verdict-only mode
    (``reports.collect``) a witness met earlier makes a FAILS."""
    fn = getattr(mu, "fn", None)
    order = getattr(fn, "order", None)
    if (order is not None and table is not None and table.closed
            and fn.elements == elems):
        found = _closure_loop(fn.ids.__getitem__, range(len(elems)), table.op,
                              order.lifted(combine), order.lifted(leq, bool),
                              arities, table)
        return kernel.witness_values(collect(found), elems, order.vals)
    return collect(_closure_loop(mu, elems, op, combine, leq, arities, table))


def _closure_loop(mu, elems, op, combine, leq, arities,
                  table) -> Iterator[Witness]:
    vals = {a: mu(a) for a in elems}
    for arity in arities:
        if arity == 2 and table is not None:
            # mu at each product id, up front: products take their ids in
            # the pairs' row-major order, so a map that is not total is
            # refused at the first product a pair reaches
            at = ([vals[x] for x in elems]
                  + [mu(p) for p in table.vals[len(elems):]])
            yield from _scan(at, elems, table.triples, combine, leq)
        else:
            for combo in itertools.product(elems, repeat=arity):
                lhs = combine(*[vals[c] for c in combo])
                rhs = mu(functools.reduce(op, combo))
                if not leq(lhs, rhs):
                    yield Witness(combo, (lhs, rhs))


def _scan(at, elems, triples, combine, leq) -> Iterator[Witness]:
    """A witness at each ``(i, j, k)`` of ``triples`` where
    ``leq(combine(at[i], at[j]), at[k])`` is False."""
    for i, j, k in triples:
        lhs = combine(at[i], at[j])
        if not leq(lhs, at[k]):
            yield Witness((elems[i], elems[j]), (lhs, at[k]))


def closure_holds(ids: Sequence, table: kernel.Kernel, order) -> bool:
    """Whether the ids ``ids`` of ``order`` at the points of the closed
    kernel ``table`` make a fuzzy subgroupoid: the closure scan on ids,
    stopped at its first witness."""
    found = _scan(ids, table.vals, table.triples, order.meet, order.leq)
    return next(found, None) is None


def _identity_witnesses(mu, identity, top) -> list:
    """The identity condition of a fuzzy submonoid: no witness when
    ``mu(identity)`` is the top degree, else the one that shows it."""
    v = mu(identity)
    return [] if v == top else [Witness((identity,), (v, top))]


def generate_subnorm_tables(elements: Sequence, op: Callable, identity,
                            alphabet: Sequence, order, combine=None,
                            arities: Sequence = (2,)) -> Iterator[FuzzySubset]:
    """The maps of ``enumerate_table_subsets(elements, alphabet)``, in its
    order, that are t-subnorms of ``op`` in ``order``: ``mu(identity)`` is
    ``order.top`` and ``order.leq(combine(mu x, ..), mu(x o ..))`` holds on
    the tuples of each of ``arities`` (2 first), the comparisons
    ``_identity_witnesses`` and ``_closure_witnesses`` make. ``combine``
    is ``order.meet`` unless given; a given one, over a numeric alphabet,
    compares on the alphabet's ids, as the closure loop does.

    The product of the alphabet positions, with the identity's limited
    to the top, is filtered through the inequalities on positions, the
    pairs first. A product or an identity outside ``elements`` raises the
    ``TotalityError`` a table map raises.
    """
    # as in a table map, an element listed twice keeps its last value
    elements, index, alphabet, compiled = _sweep(elements, alphabet)
    if not alphabet:
        return
    position = _TableFn(elements, list(range(len(elements))), index)
    letters, combine, leq = ((alphabet, order.meet, order.leq) if combine is None
                             else (compiled.letters, compiled.lifted(combine),
                                   compiled.lifted(order.leq, bool)))
    (cube, triples), *rest = [(_holds(combine, leq, letters, arity), [
        (*map(index.__getitem__, xs), position(functools.reduce(op, xs)))
        for xs in itertools.product(elements, repeat=arity)])
        for arity in arities]
    pinned = position(identity)
    tops = [v for v, a in enumerate(alphabet) if a == order.top]
    choices = [tops if k == pinned else range(len(alphabet))
               for k in range(len(elements))]
    for at in itertools.product(*choices):
        if all(cube[at[i]][at[j]][at[p]] for i, j, p in triples) and all(
                functools.reduce(list.__getitem__, map(at.__getitem__, tup), table)
                for table, tuples in rest for tup in tuples):
            yield named_table(elements, index, alphabet, at, compiled)


def _holds(combine, leq, letters, arity, prefix=()) -> list:
    """``leq(combine(a, ..), c)`` nested by the positions of a, .. and c."""
    if len(prefix) < arity:
        return [_holds(combine, leq, letters, arity, prefix + (a,))
                for a in letters]
    lhs = combine(*prefix)
    return [leq(lhs, c) for c in letters]
