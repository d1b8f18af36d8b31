"""Verdicts, witnesses, domains, budgets, and report rendering.

Every check in the package returns a ``PropertyReport``. A HOLDS
verdict is always domain-qualified: it asserts the property on the
exact finite domain recorded in the report, never on the continuum.
FAILS verdicts carry witnesses that re-evaluate to violations; VACUOUS
covers budget-limited outcomes and empty quantifications. Reports
serialize to a stable JSON shape and a human-readable text form.
"""

from __future__ import annotations

import itertools
import json
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, DomainError
from .scalars import ONE, ZERO, format_scalar, format_scalar_text, unit


class Verdict(Enum):
    HOLDS = "HOLDS_ON_DOMAIN"
    FAILS = "FAILS"
    VACUOUS = "VACUOUS"


_VERDICT_RANK = {Verdict.FAILS: 0, Verdict.VACUOUS: 1, Verdict.HOLDS: 2}


def verdict_meet(verdicts: Iterable[Verdict]) -> Verdict:
    """FAILS dominates, then VACUOUS; all-HOLDS stays HOLDS."""
    vs = list(verdicts)
    if not vs:
        return Verdict.HOLDS
    return min(vs, key=_VERDICT_RANK.__getitem__)


def _json_value(v):
    if isinstance(v, Fraction):
        return format_scalar(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    return str(v)


class Witness(NamedTuple):
    """One input tuple plus the evaluated values that expose a violation."""

    inputs: tuple
    values: tuple = ()

    def to_json(self) -> dict:
        return {"inputs": _json_value(self.inputs), "values": _json_value(self.values)}

    def render_text(self) -> str:
        ins = ", ".join(format_scalar_text(v) for v in self.inputs)
        if not self.values:
            return f"({ins})"
        vals = ", ".join(format_scalar_text(v) for v in self.values)
        return f"({ins}) -> [{vals}]"


# finer grids are refused before a point is built
MAX_GRID_RESOLUTION = 1000

# the tuples one loop may visit (the vague 4- to 7-tuple loops, an
# aggregation kind's closure loop), refused before the loop starts
MAX_TUPLES = 2_000_000

# a text report prints this many witnesses and counts the rest
MAX_WITNESSES_SHOWN = 3


@lru_cache(maxsize=None)
def _grid_points(resolution: int) -> tuple:
    return tuple(Fraction(i, resolution) for i in range(resolution + 1))


class GridDomain:
    """The rationals 0, 1/n, ..., 1 as a desk-scale stand-in for [0, 1]."""

    def __init__(self, resolution: int):
        if resolution < 2:
            raise DomainError(f"grid resolution must be at least 2, got {resolution}")
        if resolution > MAX_GRID_RESOLUTION:
            raise BudgetExceededError(
                f"grid resolution {resolution} exceeds the grid budget "
                f"of {MAX_GRID_RESOLUTION}", size_estimate=resolution + 1)
        self.resolution = resolution

    @property
    def points(self) -> tuple:
        return _grid_points(self.resolution)

    @property
    def interior(self) -> tuple:
        return self.points[1:-1]

    def to_json(self) -> dict:
        return {"kind": "grid", "resolution": self.resolution}

    def label(self) -> str:
        return f"grid(n={self.resolution})"


class FinitePoints:
    """An explicit finite set of rationals in [0, 1], sorted, with 0 and 1,
    each point read by ``scalars.unit``."""

    def __init__(self, points: Sequence):
        try:
            pts = tuple(map(unit, points))
        except ValueError as exc:
            raise DomainError(str(exc)) from None
        if len(pts) < 2 or sorted(set(pts)) != list(pts):
            raise DomainError("finite domain points must be sorted and distinct")
        if pts[0] != ZERO or pts[-1] != ONE:
            raise DomainError("finite domain must contain 0 and 1")
        self.points = pts

    @property
    def interior(self) -> tuple:
        return self.points[1:-1]

    def to_json(self) -> dict:
        return {"kind": "finite", "size": len(self.points),
                "points": [format_scalar(p) for p in self.points]}

    def label(self) -> str:
        return "chain{" + ",".join(format_scalar(p) for p in self.points) + "}"


#: Readings of the equality-of-degrees premise in the vague monotonicity
#: and cancellation laws: "any-degree" matches any common degree, "crisp"
#: demands the common degree be 1.
READINGS = ("any-degree", "crisp")


class SearchBudget:
    """Caps for the existential searches.

    ``n_max`` bounds the power exponent search, ``iter_cap`` bounds
    limit iterations, and ``epsilon`` is the threshold below which a
    decreasing trajectory counts as converged on exact grids. The class
    attributes are the defaults, which the CLI's parser reads too.
    """

    n_max = 64
    iter_cap = 128
    epsilon = Fraction(1, 1024)

    def __init__(self, n_max: int = n_max, iter_cap: int = iter_cap,
                 epsilon: Fraction = epsilon):
        if n_max < 1 or iter_cap < 1:
            raise DomainError("budget caps must be at least 1")
        if epsilon <= 0:
            raise DomainError("epsilon must be positive")
        self.n_max, self.iter_cap, self.epsilon = n_max, iter_cap, epsilon

    def to_json(self) -> dict:
        return {"n_max": self.n_max, "iter_cap": self.iter_cap,
                "epsilon": format_scalar(self.epsilon)}


class PropertyReport:
    def __init__(self, property_id: str, verdict: Verdict, domain: dict,
                 witnesses: Optional[list] = None, budget: Optional[dict] = None,
                 tags: tuple = (), details: Optional[dict] = None,
                 children: tuple = ()):
        self.property_id, self.verdict, self.domain = property_id, verdict, domain
        self.witnesses = [] if witnesses is None else witnesses
        self.budget = {} if budget is None else budget
        self.tags = tags
        self.details = {} if details is None else details
        self.children = children

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    @property
    def fails(self) -> bool:
        return self.verdict is Verdict.FAILS

    def child(self, property_id: str) -> "PropertyReport":
        for c in self.children:
            if c.property_id == property_id:
                return c
        raise KeyError(property_id)

    def to_json(self) -> dict:
        obj = {
            "property_id": self.property_id,
            "verdict": self.verdict.value,
            "domain": _json_value(self.domain),
            "witnesses": [w.to_json() for w in self.witnesses],
            "budget": _json_value(self.budget),
        }
        if self.tags:
            obj["tags"] = list(self.tags)
        if self.details:
            obj["details"] = _json_value(self.details)
        if self.children:
            obj["children"] = [c.to_json() for c in self.children]
        return obj

    def render_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = f"{pad}[{self.verdict.value}] {self.property_id}"
        if self.tags:
            line += "  tags=" + ",".join(self.tags)
        lines = [line]
        if self.witnesses:
            shown = self.witnesses[:MAX_WITNESSES_SHOWN]
            extra = len(self.witnesses) - len(shown)
            for w in shown:
                lines.append(f"{pad}  witness {w.render_text()}")
            if extra > 0:
                head = f"{pad}  ... {extra} more witness"
                lines.append(head + ("es" if extra != 1 else ""))
        for key in sorted(self.details):
            lines.append(f"{pad}  {key}: {_json_value(self.details[key])}")
        for c in self.children:
            lines.append(c.render_text(indent + 1))
        return "\n".join(lines)


def conclude(property_id: str, domain: dict, witnesses: Sequence[Witness], *,
             inconclusive: int = 0, instances: Optional[int] = None,
             budget: Optional[dict] = None,
             details: Optional[dict] = None) -> PropertyReport:
    """Standard verdict assembly.

    Witnesses mean FAILS. Otherwise the verdict is VACUOUS when a search
    budget ran out before a decision or when the quantification was
    empty; each source carries its own tag. Anything else HOLDS on the
    domain.
    """
    extra_tags = []
    if inconclusive > 0:
        extra_tags.append("budget-exhausted")
    if witnesses:
        verdict = Verdict.FAILS
    elif inconclusive > 0:
        verdict = Verdict.VACUOUS
    elif instances == 0:
        verdict = Verdict.VACUOUS
        extra_tags.append("empty-quantification")
    else:
        verdict = Verdict.HOLDS
    return PropertyReport(property_id, verdict, domain, list(witnesses),
                          dict(budget or {}), tuple(extra_tags),
                          dict(details or {}))


# the verdict-only mode: set only by ``suite._run_row``, around one row
verdict_only = False


def collect(witnesses: Iterable[Witness]) -> list:
    """The witnesses a loop yields, or in the verdict-only mode its first
    one alone: one witness is enough for ``conclude`` to make a FAILS,
    and a loop without one still runs to its end."""
    return list(itertools.islice(witnesses, 1 if verdict_only else None))


def decide(property_id: str, domain: dict, holds, cases, instances=None,
           details=None, then=()) -> PropertyReport:
    """``conclude`` on the witnesses ``collect`` gathers from the
    ``(inputs, lhs, rhs)`` cases, one for each case where ``holds(lhs,
    rhs)`` is False (it is reflexive: equal sides hold without a call),
    then the witnesses ``then``. A stream that leaves out tuples holding
    at the bottom degree passes the full count as ``instances``."""
    count = 0

    def found():
        nonlocal count
        for count, (inputs, lhs, rhs) in enumerate(cases, 1):
            if lhs != rhs and not holds(lhs, rhs):
                yield Witness(inputs, (lhs, rhs))
        yield from then
    return conclude(property_id, domain, collect(found()),
                    instances=count if instances is None else instances,
                    details=details)


def combine(property_id: str, children: Sequence[PropertyReport], domain: dict,
            details: Optional[dict] = None) -> PropertyReport:
    """Parent report whose verdict is the meet of its children."""
    return PropertyReport(property_id, verdict_meet(c.verdict for c in children),
                          domain, details=dict(details or {}),
                          children=tuple(children))


def dumps(obj) -> str:
    """Deterministic JSON rendering, as one string, for library callers."""
    if isinstance(obj, PropertyReport):
        obj = obj.to_json()
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def dump(obj, fh) -> None:
    """``dumps(obj)`` of the JSON value ``obj``, written to the text stream
    ``fh`` in batches of 8,192 chunks of the same encoder, never whole."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=True).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 8192)):
        fh.write(batch)
    fh.write("\n")
