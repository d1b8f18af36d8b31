"""Finite operation tables on rational chains inside [0, 1].

These back the exhaustive sweeps: every conjunction table on a small
chain, every membership table over a small value alphabet. Enumeration
order is deterministic (row-major over the chain, candidate values in
chain order) so reports and counts are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .connectives import Connective, Role
from .errors import BudgetExceededError, DomainError
from .reports import FinitePoints
from .scalars import ONE, ZERO, format_scalar


@dataclass(frozen=True)
class ChainTable:
    """A commutative table on a sorted rational chain, identity at 1."""

    points: tuple
    matrix: tuple  # row-major, matrix[i][j] = value at (points[i], points[j])
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})
        if not self.name:
            cells = []
            for i in range(len(self.points)):
                for j in range(i, len(self.points)):
                    cells.append(format_scalar(self.matrix[i][j]))
            object.__setattr__(self, "name", "table[" + ",".join(cells) + "]")

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

    def domain(self) -> FinitePoints:
        return FinitePoints(self.points)


def _is_monotone(points, matrix) -> bool:
    n = len(points)
    for i in range(n):
        for j in range(n - 1):
            if matrix[i][j] > matrix[i][j + 1]:
                return False
    return True


def _is_associative(points, matrix, index) -> bool:
    n = len(points)
    for i in range(n):
        for j in range(n):
            ij = index[matrix[i][j]]
            for k in range(n):
                if matrix[ij][k] != matrix[i][index[matrix[j][k]]]:
                    return False
    return True


def enumerate_chain_tnorm_tables(points: Sequence[Fraction]) -> list[ChainTable]:
    """All conjunction tables on the chain: commutative, associative,
    monotone, with the top point as identity.

    Brute-force filter over the free cells; the boundary forces the top
    row/column to the other argument and the bottom row/column to 0.
    """
    pts = tuple(points)
    if pts[0] != ZERO or pts[-1] != ONE or list(pts) != sorted(set(pts)):
        raise DomainError("chain must be sorted, distinct, and span 0..1")
    n = len(pts)
    if n > 6:
        raise BudgetExceededError(
            f"chain of size {n} exceeds the enumeration budget",
            size_estimate=n ** ((n - 2) * (n - 1) // 2))
    interior = list(range(1, n - 1))
    free = [(i, j) for i in interior for j in interior if i <= j]
    index = {p: i for i, p in enumerate(pts)}
    candidates = [[pts[k] for k in range(min(i, j) + 1)] for (i, j) in free]
    out = []
    for choice in itertools.product(*candidates):
        matrix = [[None] * n for _ in range(n)]
        for k in range(n):
            matrix[0][k] = matrix[k][0] = ZERO
            matrix[n - 1][k] = matrix[k][n - 1] = pts[k]
        for (i, j), v in zip(free, choice):
            matrix[i][j] = matrix[j][i] = v
        if not _is_monotone(pts, matrix):
            continue
        if not _is_associative(pts, matrix, index):
            continue
        out.append(ChainTable(pts, tuple(tuple(row) for row in matrix)))
    return out


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
