"""The value reference of the compiled checks, for the differential tests.

``on_values(monkeypatch)`` sends every check that runs on ids to the
same cores on values: the operator axioms run on the unit interval with
the operator itself, each vague check runs its core on the unit
interval with the operator's degrees in a dict keyed by carrier triples,
and finite carriers and membership alphabets get no ids, so the closure
loops run on values. Check the axioms through ``checker.check_axioms``
for the patch to reach them.
"""

from fuzznorm import checker, kernel, vague
from fuzznorm.scalars import UNIT_INTERVAL


def degree_values(op) -> dict:
    """The degrees of the vague operation ``op``, keyed by carrier triples."""
    order, pts = op.order, op.carrier
    return {(pts[i], pts[j], pts[k]): order.vals[d]
            for (i, j, k), d in order.deg.items()}


def value_axioms(conn, domain):
    """``check_axioms`` of a t-norm, t-conorm, uninorm or nullnorm, on the
    unit interval with the operator itself."""
    return checker._role_axioms(UNIT_INTERVAL, conn, lambda v: v, conn,
                                domain.points, domain.to_json())


def _on_degree_values(op, run):
    return run(UNIT_INTERVAL, op.tnorm, degree_values(op), op.equality,
               op.carrier)


def on_values(monkeypatch):
    monkeypatch.setattr(checker, "check_axioms", value_axioms)
    monkeypatch.setattr(vague, "_on_degree_order", _on_degree_values)
    monkeypatch.setattr(kernel, "compile_operator", lambda fn, points: None)
    monkeypatch.setattr(kernel, "compile_alphabet", lambda alphabet: None)
