"""Finite operation tables on rational chains inside [0, 1].

These back the exhaustive sweeps: every conjunction table on a small
chain, every membership table over a small value alphabet. Enumeration
order is deterministic (row-major over the chain, candidate values in
chain order) so reports and counts are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .connectives import Connective, Role
from .errors import DomainError
from .scalars import ONE, ZERO, format_scalar


class ChainTable:
    """A commutative table on a sorted rational chain, identity at 1."""

    def __init__(self, points: tuple, matrix: tuple, name: str = ""):
        self.points = points
        # row-major, matrix[i][j] = value at (points[i], points[j])
        self.matrix = matrix
        self._index = {p: i for i, p in enumerate(points)}
        if not name:
            cells = []
            for i in range(len(points)):
                for j in range(i, len(points)):
                    cells.append(format_scalar(matrix[i][j]))
            name = "table[" + ",".join(cells) + "]"
        self.name = name

    def index(self, x) -> int:
        # Fraction, int and float keys that are equal hash alike
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise DomainError(f"{format_scalar(x)} is not a chain point") from None

    def __call__(self, x, y):
        return self.matrix[self.index(x)][self.index(y)]

    def as_connective(self) -> Connective:
        return Connective(self.name, Role.TNORM, self, identity=ONE)


def enumerate_chain_tnorm_tables(points: Sequence[Fraction]) -> list[ChainTable]:
    """All conjunction tables on the chain: commutative, associative,
    monotone, with the top point as identity.

    These are the t-norms of the chain lattice with as many elements,
    relabelled onto the points, in the lattice enumeration's order.
    """
    from . import lattice
    pts = tuple(points)
    if pts[0] != ZERO or pts[-1] != ONE or list(pts) != sorted(set(pts)):
        raise DomainError("chain must be sorted, distinct, and span 0..1")
    lattice.check_enumeration_size(len(pts), "chain")
    lat = lattice.chain_lattice(len(pts))
    point = dict(zip(lat.elements, pts))
    return [ChainTable(pts, tuple(tuple(point[t(x, y)] for y in lat.elements)
                                  for x in lat.elements))
            for t in lattice.enumerate_lattice_tnorms(lat)]


def uniform_chain(size: int) -> tuple:
    """size equally spaced points from 0 to 1."""
    if size < 2:
        raise DomainError("a chain needs at least 2 points")
    return tuple(Fraction(i, size - 1) for i in range(size))


def mixed_grid_points(e: Fraction, n: int, m: int) -> tuple:
    """The points 0, e/n, ..., e, e + (1-e)/m, ..., 1."""
    lower = [e * i / n for i in range(n + 1)]
    upper = [e + (ONE - e) * j / m for j in range(1, m + 1)]
    return tuple(lower + upper)
