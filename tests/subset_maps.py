"""Membership maps the tests build and no check in ``fuzznorm`` needs:
the crisp indicator of a set of points, and every L-subset of a finite
lattice."""

from fuzznorm.scalars import ONE, ZERO, format_scalar
from fuzznorm.subsets import FuzzySubset, enumerate_table_subsets


class _IndicatorFn:
    def __init__(self, members: frozenset):
        self.members = members

    def __call__(self, x):
        return ONE if x in self.members else ZERO


def indicator_subset(members) -> FuzzySubset:
    members = frozenset(members)
    name = "indicator{" + ",".join(sorted(format_scalar(m) for m in members)) + "}"
    return FuzzySubset(name, _IndicatorFn(members))


def enumerate_lsubsets(lat):
    """Every map from the lattice's elements to its elements, in product
    order."""
    return enumerate_table_subsets(lat.elements, lat.elements)
