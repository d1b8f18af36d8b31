#!/usr/bin/env python3
"""Enumerate every conjunction table on a small chain and classify it.

Prints, for each table, the verdicts of the five classical properties.
Useful for eyeballing which tables drive the implication sweeps (for
example, no finite chain of three or more points carries a strictly
monotone table, which is why the fuzzy strict-monotonicity sweeps are
dominated by failures of the premise).
"""

import argparse

from fuzznorm import lattice
from fuzznorm.checker import (check_archimedean, check_cancellation,
                              check_limit_property, check_strict_monotonicity)
from fuzznorm.reports import FinitePoints, SearchBudget
from fuzznorm.tables import enumerate_chain_tnorm_tables, uniform_chain


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=4, choices=range(2, 8),
                        help="number of chain points (2..7)")
    args = parser.parse_args()
    # the library refuses chains above 6 points; this run takes 7 (451 tables)
    lattice.MAX_ENUMERATION_SIZE = max(lattice.MAX_ENUMERATION_SIZE, args.size)
    chain = uniform_chain(args.size)
    dom = FinitePoints(chain)
    budget = SearchBudget(n_max=16)
    tables = enumerate_chain_tnorm_tables(chain)
    print(f"{len(tables)} conjunction tables on the {args.size}-point chain\n")
    for table in tables:
        conn = table.as_connective()
        verdicts = {
            "strict": check_strict_monotonicity(conn, dom).verdict.value,
            "cancel": check_cancellation(conn, dom).verdict.value,
            "cond-cancel": check_cancellation(conn, dom, True).verdict.value,
            "archimedean": check_archimedean(conn, dom, budget).verdict.value,
            "limit": check_limit_property(conn, dom, budget).verdict.value,
        }
        print(table.name)
        for key, value in verdicts.items():
            print(f"  {key:12s} {value}")
        print()


if __name__ == "__main__":
    main()
