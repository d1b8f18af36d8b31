"""Exact unit-interval scalars.

Every value a check compares is an exact ``fractions.Fraction``, so
order and equality are two-valued and need no tolerance. A number is
read as a rational in one of two ways, each at the place it enters:
``unit`` reads a typed value (a parameter, a table entry) by its
shortest decimal, and ``exact`` reads a number a user callable computed
as the ``Fraction`` it is (a float by its binary value).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from numbers import Number
from typing import Union

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def unit(value: Union[Fraction, int, str, float]) -> Fraction:
    """Coerce ``value`` to an exact rational in [0, 1].

    Strings use Fraction syntax ("1/2", "0.3"). Floats are read through
    their shortest decimal literal, not their binary expansion, so
    ``unit(0.1)`` is exactly 1/10. Anything that does not read as a
    rational, "1/0" included, raises ``ValueError``. A ``Fraction`` is
    returned as it is.
    """
    frac = value if isinstance(value, Fraction) else parse_rational(value)
    if not ZERO <= frac <= ONE:
        raise ValueError(f"expected a value in [0, 1], got {frac}")
    return frac


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' or decimal string into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def exact(v):
    """A value a user callable returned, as the check compares it: a
    number as the ``Fraction`` it is (a float by its binary value), a
    ``Fraction`` or a value that is not a number (a label) unchanged."""
    plain = isinstance(v, (Fraction, str)) or not isinstance(v, Number)
    return v if plain else Fraction(v)


def parse_label(value):
    """A label read from a file: an exact rational when it reads as one,
    else its text."""
    try:
        return parse_rational(value)
    except ValueError:
        return str(value)


class UnitInterval:
    """[0, 1] as a degree order; ``FiniteLattice`` offers the same five
    members. ``leq`` and ``lt`` are the exact comparisons and order
    points and degrees alike, which compare with ``==``; ``meet`` is
    min."""

    # int bounds compare equal to ZERO and ONE and keep Fraction.__eq__
    # on its int fast path in the pruning tests
    bottom = 0
    top = 1
    leq = staticmethod(operator.le)
    lt = staticmethod(operator.lt)
    meet = staticmethod(min)


UNIT_INTERVAL = UnitInterval()


def format_scalar(v: Scalar) -> str:
    """Canonical report form: 'p/q' for rationals."""
    return str(v)


def format_scalar_text(v) -> str:
    """Decimal form when it terminates, else 'p/q' (text reports only)."""
    if not isinstance(v, Fraction):
        return str(v)
    den = v.denominator
    exp2 = 0
    while den % 2 == 0:
        den //= 2
        exp2 += 1
    exp5 = 0
    while den % 5 == 0:
        den //= 5
        exp5 += 1
    if den != 1:
        return str(v)
    k = max(exp2, exp5)
    if k == 0:
        return str(v.numerator)
    scaled = v.numerator * 10 ** k // v.denominator
    digits = str(scaled).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"
