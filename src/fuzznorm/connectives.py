"""Connectives on the unit interval.

Holds the four classic conjunction and disjunction families, duality,
n-ary power iterates, and the two parametric constructions that splice
a conjunction and a disjunction around an interior identity element
(the min/max uninorm families) or an interior absorbing element (the
nullnorm family). Every builtin maps exact rationals to exact
rationals, so downstream checks can compare results bit for bit.

Connectives carry a canonical string id in ``name``; constructed
operators render their parameters into the id (for example
``uninorm:umin(e=1/2,T=product,S=probsum)``) and ``parse_operator``
turns such ids back into operators.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import DegenerateParameterError, DomainError, UnknownOperatorError
from .scalars import ONE, ZERO, Scalar, exact, unit


class Role(Enum):
    TNORM = "tnorm"
    TCONORM = "tconorm"
    UNINORM = "uninorm"
    NULLNORM = "nullnorm"
    AGGREGATION = "aggregation"


class Connective(NamedTuple):
    """A named operation on [0, 1] with its declared special elements.

    ``identity`` and ``absorber`` are claims; the checker engine
    validates them rather than assuming them. ``fn`` is binary for all
    roles except AGGREGATION, which is variadic; a number it returns is
    read as the ``Fraction`` it is (``scalars.exact``), also where a
    splice or a dual calls it as a part.
    """

    name: str
    role: Role
    fn: Callable[..., Scalar]
    identity: Optional[Fraction] = None
    absorber: Optional[Fraction] = None

    def __call__(self, *args: Scalar) -> Scalar:
        v = exact(self.fn(*args))
        if not isinstance(v, Fraction):
            raise DomainError(f"{self.name} returned {v!r}, not a number")
        return v

    @property
    def short_name(self) -> str:
        return self.name.split(":", 1)[-1]


# --- builtin evaluators (module level so partial application pickles) ---

def _t_min(x, y):
    return x if x <= y else y


def _t_product(x, y):
    return x * y


def _t_lukasiewicz(x, y):
    s = x + y - 1
    return s if s > 0 else ZERO


def _t_drastic(x, y):
    # branch condition is exact: min only when an argument equals 1
    if x == 1 or y == 1:
        return x if x <= y else y
    return ZERO


def _s_max(x, y):
    return x if x >= y else y


def _s_probsum(x, y):
    return x + y - x * y


def _s_lukasiewicz(x, y):
    s = x + y
    return s if s < 1 else ONE


def _s_drastic(x, y):
    if x == 0 or y == 0:
        return x if x >= y else y
    return ONE


def _agg_min(*xs):
    return min(xs)


T_M = Connective("tnorm:min", Role.TNORM, _t_min, identity=ONE)
T_P = Connective("tnorm:product", Role.TNORM, _t_product, identity=ONE)
T_L = Connective("tnorm:lukasiewicz", Role.TNORM, _t_lukasiewicz, identity=ONE)
T_D = Connective("tnorm:drastic", Role.TNORM, _t_drastic, identity=ONE)

S_M = Connective("tconorm:max", Role.TCONORM, _s_max, identity=ZERO)
S_P = Connective("tconorm:probsum", Role.TCONORM, _s_probsum, identity=ZERO)
S_L = Connective("tconorm:lukasiewicz", Role.TCONORM, _s_lukasiewicz, identity=ZERO)
S_D = Connective("tconorm:drastic", Role.TCONORM, _s_drastic, identity=ZERO)

A_MIN = Connective("agg:min", Role.AGGREGATION, _agg_min)

BUILTIN_TNORMS = (T_M, T_P, T_L, T_D)
BUILTIN_TCONORMS = (S_M, S_P, S_L, S_D)

_TNORM_ALIASES = {
    "min": T_M, "product": T_P, "lukasiewicz": T_L, "drastic": T_D,
    "T_M": T_M, "T_P": T_P, "T_L": T_L, "T_D": T_D,
}
_TCONORM_ALIASES = {
    "max": S_M, "probsum": S_P, "lukasiewicz": S_L, "drastic": S_D,
    "S_M": S_M, "S_P": S_P, "S_L": S_L, "S_D": S_D,
}
_AGG_ALIASES = {"min": A_MIN, "A_min": A_MIN}


def _lookup(aliases: dict, key: str, what: str) -> Connective:
    try:
        return aliases[key]
    except KeyError:
        raise UnknownOperatorError(f"unknown {what}: {key!r}") from None


def power_iterate(conn: Connective, x: Scalar, n: int) -> Scalar:
    """n-th power of ``x`` under ``conn``, folding on the left.

    The zeroth power is the operator's declared identity (1 for a
    conjunction); asking for it on an operator without one is an error.
    """
    if n < 0:
        raise DomainError(f"power exponent must be >= 0, got {n}")
    if n == 0:
        if conn.identity is None:
            raise DomainError(
                f"{conn.name} declares no identity; the zeroth power is undefined")
        return conn.identity
    acc = x
    for _ in range(n - 1):
        acc = conn(acc, x)
    return acc


# --- parametric constructions ---

def _uninorm_eval(e, t_conn, s_conn, mixed, x, y):
    if x <= e and y <= e:
        return e * t_conn(x / e, y / e)
    if x >= e and y >= e:
        c = 1 - e
        return e + c * s_conn((x - e) / c, (y - e) / c)
    return mixed(x, y)


def _nullnorm_eval(k, s_conn, t_conn, x, y):
    # the upper square is strict: at x = k < y the value is k, not y
    if x <= k and y <= k:
        return k * s_conn(x / k, y / k)
    if x > k and y > k:
        c = 1 - k
        return c * t_conn((x - k) / c, (y - k) / c) + k
    return k


def _splice_point(p, what: str, t_conn: Connective, s_conn: Connective):
    """The interior point of a splice of ``t_conn`` and ``s_conn``;
    ``what`` names it (``identity e`` or ``absorber k``) when it is 0 or 1."""
    p = unit(p)
    if p == 0 or p == 1:
        raise DegenerateParameterError(
            f"{what}={p} is degenerate; use a plain t-norm or t-conorm instead")
    if t_conn.role is not Role.TNORM:
        raise DomainError(f"expected a t-norm, got {t_conn.name}")
    if s_conn.role is not Role.TCONORM:
        raise DomainError(f"expected a t-conorm, got {s_conn.name}")
    return p


def _uninorm(kind: str, mixed, e, t_conn: Connective, s_conn: Connective) -> Connective:
    e = _splice_point(e, "identity e", t_conn, s_conn)
    name = f"uninorm:{kind}(e={e},T={t_conn.short_name},S={s_conn.short_name})"
    return Connective(name, Role.UNINORM,
                      partial(_uninorm_eval, e, t_conn, s_conn, mixed),
                      identity=e)


def construct_uninorm_min(e, t_conn: Connective, s_conn: Connective) -> Connective:
    """Uninorm acting as ``t_conn`` below e, ``s_conn`` above e, and
    minimum on the mixed region; its value at (0, 1) is 0."""
    return _uninorm("umin", _t_min, e, t_conn, s_conn)


def construct_uninorm_max(e, t_conn: Connective, s_conn: Connective) -> Connective:
    """As ``construct_uninorm_min`` but with maximum on the mixed
    region; its value at (0, 1) is 1."""
    return _uninorm("umax", _s_max, e, t_conn, s_conn)


def construct_nullnorm(s_conn: Connective, k, t_conn: Connective) -> Connective:
    """Nullnorm acting as ``s_conn`` below k, ``t_conn`` above k, and
    constantly k on the mixed region."""
    k = _splice_point(k, "absorber k", t_conn, s_conn)
    name = f"nullnorm:<{s_conn.short_name}-S,{k},{t_conn.short_name}-T>"
    return Connective(name, Role.NULLNORM,
                      partial(_nullnorm_eval, k, s_conn, t_conn),
                      absorber=k)


def _dual_eval(conn, x, y):
    return 1 - conn(1 - x, 1 - y)


def dualize(conn: Connective) -> Connective:
    """Reflect a conjunction into a disjunction (or back) through
    x -> 1 - x. Applying it twice gives the original values."""
    if conn.role is Role.TNORM:
        role = Role.TCONORM
    elif conn.role is Role.TCONORM:
        role = Role.TNORM
    else:
        raise DomainError(f"dualize expects a t-norm or t-conorm, got {conn.name}")
    ident = None if conn.identity is None else ONE - conn.identity
    return Connective(f"dual({conn.name})", role,
                      partial(_dual_eval, conn), identity=ident)


# --- canonical id parsing ---

_UNINORM_RE = re.compile(r"^uninorm:(umin|umax)\((.*)\)$")
_NULLNORM_RE = re.compile(r"^nullnorm:<(.*)>$")


def _parse_uninorm_args(body: str):
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 3:
        raise UnknownOperatorError(
            f"uninorm id needs three arguments (e, T, S), got {body!r}")
    named = {}
    positional = []
    for part in parts:
        if "=" in part:
            key, _, value = part.partition("=")
            named[key.strip()] = value.strip()
        else:
            positional.append(part)
    if named and positional:
        raise UnknownOperatorError(
            f"mixed named and positional uninorm arguments: {body!r}")
    if named:
        missing = {"e", "T", "S"} - set(named)
        if missing:
            raise UnknownOperatorError(
                f"uninorm id missing arguments {sorted(missing)}: {body!r}")
        e_text, t_text, s_text = named["e"], named["T"], named["S"]
    else:
        e_text, t_text, s_text = positional
    try:
        e = unit(e_text)
    except ValueError as exc:
        raise UnknownOperatorError(f"bad identity element in uninorm id: {exc}") from None
    t_conn = _lookup(_TNORM_ALIASES, t_text, "t-norm")
    s_conn = _lookup(_TCONORM_ALIASES, s_text, "t-conorm")
    return e, t_conn, s_conn


def parse_operator(op_id: str) -> Connective:
    """Resolve a canonical operator id to a connective.

    Recognized forms: ``tnorm:<family>``, ``tconorm:<family>``,
    ``agg:min``, ``uninorm:umin(e,T,S)`` / ``uninorm:umax(...)`` with
    positional or ``k=v`` arguments, and ``nullnorm:<S,k,T>`` where the
    S and T entries may carry ``-S`` / ``-T`` suffixes.
    """
    s = op_id.strip()
    if s.startswith("tnorm:"):
        return _lookup(_TNORM_ALIASES, s[len("tnorm:"):], "t-norm")
    if s.startswith("tconorm:"):
        return _lookup(_TCONORM_ALIASES, s[len("tconorm:"):], "t-conorm")
    if s.startswith("agg:") or s.startswith("aggregation:"):
        return _lookup(_AGG_ALIASES, s.split(":", 1)[1], "aggregation operator")
    m = _UNINORM_RE.match(s)
    if m:
        kind, body = m.groups()
        e, t_conn, s_conn = _parse_uninorm_args(body)
        try:
            build = construct_uninorm_min if kind == "umin" else construct_uninorm_max
            return build(e, t_conn, s_conn)
        except DegenerateParameterError as exc:
            raise UnknownOperatorError(str(exc)) from None
    m = _NULLNORM_RE.match(s)
    if m:
        parts = [p.strip() for p in m.group(1).split(",")]
        if len(parts) != 3:
            raise UnknownOperatorError(
                f"nullnorm id needs three entries (S, k, T): {op_id!r}")
        s_text = parts[0][:-2] if parts[0].endswith("-S") else parts[0]
        t_text = parts[2][:-2] if parts[2].endswith("-T") else parts[2]
        s_conn = _lookup(_TCONORM_ALIASES, s_text, "t-conorm")
        t_conn = _lookup(_TNORM_ALIASES, t_text, "t-norm")
        try:
            k = unit(parts[1])
            return construct_nullnorm(s_conn, k, t_conn)
        except (ValueError, DegenerateParameterError) as exc:
            raise UnknownOperatorError(str(exc)) from None
    raise UnknownOperatorError(f"unknown operator id: {op_id!r}")
