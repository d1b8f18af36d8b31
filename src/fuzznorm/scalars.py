"""Exact unit-interval scalars and tolerance-aware comparisons.

Grid evaluation runs on ``fractions.Fraction`` end to end, so order and
equality checks on the builtin operators are bit-exact and need no
tolerance tuning. User-supplied closed-form operators may return
floats; every comparison that touches a float falls back to an absolute
tolerance, and certifying comparisons that land inside the tolerance
band return ``None`` (undecidable) so callers can report the instance
as VACUOUS instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

Scalar = Union[Fraction, float]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Absolute tolerance used whenever a float enters a comparison.
FLOAT_TOL = 1e-9


def unit(value: Union[Fraction, int, str, float]) -> Fraction:
    """Coerce ``value`` to an exact rational in [0, 1].

    Strings use Fraction syntax ("1/2", "0.3"). Floats are read through
    their shortest decimal literal, not their binary expansion, so
    ``unit(0.1)`` is exactly 1/10. Anything that does not read as a
    rational, "1/0" included, raises ``ValueError``.
    """
    frac = parse_rational(value)
    if not ZERO <= frac <= ONE:
        raise ValueError(f"expected a value in [0, 1], got {frac}")
    return frac


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' or decimal string into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_label(value):
    """A label read from a file: an exact rational when it reads as one,
    else its text."""
    try:
        return parse_rational(value)
    except ValueError:
        return str(value)


def eq_approx(a: Scalar, b: Scalar) -> bool:
    """Equality for premise matching: within-tolerance counts as equal."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= FLOAT_TOL
    return a == b


def le_approx(a: Scalar, b: Scalar) -> bool:
    """Non-strict order for premise matching."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a) <= float(b) + FLOAT_TOL
    return a <= b


def eq3(a: Scalar, b: Scalar) -> Optional[bool]:
    """Certifying equality: None when floats differ by at most ``FLOAT_TOL``
    without being bit-identical."""
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if fa == fb:
            return True
        if abs(fa - fb) > FLOAT_TOL:
            return False
        return None
    return a == b


def le3(a: Scalar, b: Scalar) -> Optional[bool]:
    """Certifying non-strict order; None inside the float tolerance band."""
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if fa <= fb:
            return True
        if fa > fb + FLOAT_TOL:
            return False
        return None
    return a <= b


def lt3(a: Scalar, b: Scalar) -> Optional[bool]:
    """Certifying strict order; None inside the float tolerance band."""
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if fa < fb - FLOAT_TOL:
            return True
        if fa > fb + FLOAT_TOL:
            return False
        return None
    return a < b


def _equal3(leq, a, b):
    """Certifying degree equality from a three-valued order: None when
    neither order refutes it but one cannot certify it."""
    if a == b:
        return True
    ab, ba = leq(a, b), leq(b, a)
    if ab is False or ba is False:
        return False
    return True if ab and ba else None


class UnitInterval:
    """[0, 1] as a degree order; ``FiniteLattice`` offers the same six
    members. ``leq`` and ``lt`` certify (``None`` inside the float band)
    and order points and degrees alike; ``same`` matches premises within
    the tolerance; ``meet`` is min."""

    # int bounds compare equal to ZERO and ONE and keep Fraction.__eq__
    # on its int fast path in the pruning tests
    bottom = 0
    top = 1
    leq = staticmethod(le3)
    same = staticmethod(eq_approx)
    lt = staticmethod(lt3)
    meet = staticmethod(min)


UNIT_INTERVAL = UnitInterval()


def format_scalar(v: Scalar) -> str:
    """Canonical report form: 'p/q' for rationals, repr for floats."""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_scalar_text(v) -> str:
    """Decimal form when it terminates, else 'p/q' (text reports only)."""
    if isinstance(v, float):
        return repr(v)
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
