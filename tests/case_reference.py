"""The per-map characterization rows, kept as the reference the generated
rows are compared with: every membership table on the 3-point grid is
gated through ``check_fuzzy_submonoid``, and each map gets its own
characterization report.
"""

import fuzznorm.fuzzy as fuzzy_mod
import fuzznorm.suite as suite_mod
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.reports import Witness, conclude
from fuzznorm.subsets import enumerate_table_subsets


def case_checker(case_id, conn, domain):
    """The named characterization for ``conn`` as a function of the map,
    with ``conn`` validated for the case once."""
    check, kind_of, carrier_conn, closed_form, relation = fuzzy_mod._CASES[case_id]
    kind = kind_of(conn)
    if check is not None:
        check(conn, domain)
    carrier = CarrierMonoid.from_connective(carrier_conn, domain)

    def characterize(mu):
        lhs = fuzzy_mod.check_fuzzy_submonoid(mu, carrier, kind).holds
        rhs = closed_form(mu, conn, carrier)
        details = {
            "case": case_id, "mu": mu.name, "operator": conn.name,
            "lhs_submonoid_check": lhs, "rhs_closed_form": rhs,
            "relation": relation,
        }
        witnesses = []
        if not (lhs == rhs if relation == "iff" else not lhs or rhs):
            details["failed_side"] = "rhs" if lhs else "lhs"
            witnesses.append(Witness((mu.name,), ()))
        return conclude(f"characterization:{case_id}", carrier.to_json(),
                        witnesses, details=details)
    return characterize


def case_row(row_id, cfg):
    """The row's case for each of its operators and each membership
    table on the 3-point grid, one report per map."""
    case_id, operators, universe, label = suite_mod._CASE_ROWS[row_id]
    dom = suite_mod._grid3()
    conns = operators()
    checkers = [(conn, case_checker(case_id, conn, dom)) for conn in conns]
    cases = ((label.format(op=conn.name, mu=mu.name), not characterize(mu).fails)
             for conn, characterize in checkers
             for mu in enumerate_table_subsets(dom.points, cfg.alphabet))
    return suite_mod._count(
        row_id, f"{len(cfg.alphabet) ** 3} membership tables on the "
        f"3-point {universe.format(op=conns[0].name)}", cases)
