"""The closure scan over a kernel's product triples, on ids and on values.

A table map of a sweep carries the ids of the sweep's alphabet, and on a
closed carrier its closure loop scans the kernel's triples on those ids.
The same map built as a plain value table takes the value path, and a
carrier without a kernel takes the plain loop over pairs. All of them
must give the same reports, witness order included, in the full mode
and in the verdict-only mode, and must refuse a map that is not total
with the same ``TotalityError``. ``subsets.closure_holds``, which
decides the ``prop-intersection`` row on id tuples, must agree with the
value reference (``intersect_fuzzy_subsets`` and
``check_fuzzy_subgroupoid``) on carriers where closure can fail.
"""

from fractions import Fraction
from itertools import islice

import pytest

from fuzznorm import kernel, reports
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.connectives import (A_MIN, S_D, S_L, S_M, S_P, T_D, T_L, T_M,
                                  T_P, construct_nullnorm,
                                  construct_uninorm_min)
from fuzznorm.errors import TotalityError
from fuzznorm.fuzzy import (KIND_SUBMONOID, KIND_T_SUBCONORM, KIND_T_SUBNORM,
                            a_submonoid_kind, check_fuzzy_subgroupoid,
                            check_fuzzy_submonoid, f_submonoid_kind,
                            u_submonoid_kind)
from fuzznorm.reports import FinitePoints, GridDomain, dumps
from fuzznorm.subsets import (MU_COMPLEMENT, MU_ID, MU_ONE, closure_holds,
                              enumerate_table_subsets, intersect_fuzzy_subsets,
                              step_subset, table_subset)
from fuzznorm.suite import DEFAULT_ALPHABET

F = Fraction
HALF = F(1, 2)
POINTS = (F(0), HALF, F(1))
FIVE = (F(0), F(1, 4), HALF, F(3, 4), F(1))
CLOSED = (T_M, T_L, T_D, S_M, S_L, S_D)
KINDS = (KIND_SUBMONOID, KIND_T_SUBNORM, KIND_T_SUBCONORM,
         a_submonoid_kind(A_MIN, 3),
         u_submonoid_kind(construct_uninorm_min(HALF, T_P, S_P)),
         f_submonoid_kind(construct_nullnorm(S_L, HALF, T_L)))


def _reports(mu, carrier):
    return [check_fuzzy_subgroupoid(mu, carrier)] + [
        check_fuzzy_submonoid(mu, carrier, kind) for kind in KINDS]


def _as_values(mu, points):
    """``mu`` again as a plain value table: same name, no ids."""
    values = table_subset({x: mu(x) for x in points}, name=mu.name)
    assert getattr(values.fn, "ids", None) is None
    return values


def _on_ids_and_values(carrier, maps):
    """The reports of each map with its ids, and of it as a value table;
    the number of closure loops that ran on ids."""
    runs = []
    translate = kernel.witness_values

    def counted(*args):
        runs.append(args)
        return translate(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "witness_values", counted)
        on_ids = [_reports(mu, carrier) for mu in maps]
        id_runs = len(runs)
        on_values = [_reports(_as_values(mu, carrier.elements), carrier)
                     for mu in maps]
    assert len(runs) == id_runs
    return on_ids, on_values, id_runs


@pytest.mark.parametrize("conn", CLOSED, ids=lambda c: c.name)
def test_id_scan_matches_the_value_scan(conn):
    carrier = CarrierMonoid.from_connective(conn, FinitePoints(POINTS))
    assert carrier.table.closed
    maps = list(enumerate_table_subsets(POINTS, FIVE))
    on_ids, on_values, id_runs = _on_ids_and_values(carrier, maps)
    assert id_runs == len(maps) * (1 + len(KINDS))
    for mu, got, want in zip(maps, on_ids, on_values):
        assert [r.witnesses for r in got] == [r.witnesses for r in want], mu.name
        assert [dumps(r) for r in got] == [dumps(r) for r in want], mu.name
    assert any(r.fails for rs in on_ids for r in rs)


@pytest.mark.parametrize("conn", CLOSED, ids=lambda c: c.name)
def test_verdict_only_scans_stop_at_the_same_first_witness(monkeypatch, conn):
    carrier = CarrierMonoid.from_connective(conn, FinitePoints(POINTS))
    maps = list(enumerate_table_subsets(POINTS, FIVE))
    full = [_reports(mu, carrier) for mu in maps]
    monkeypatch.setattr(reports, "verdict_only", True)
    on_ids, on_values, _ = _on_ids_and_values(carrier, maps)
    for mu, whole, got, want in zip(maps, full, on_ids, on_values):
        assert [r.witnesses for r in got] == [r.witnesses for r in want], mu.name
        assert [r.witnesses for r in got] == [r.witnesses[:1] for r in whole]


@pytest.mark.parametrize("conn, first_product", [(T_P, "1/16"), (S_P, "7/16")],
                         ids=["product", "probsum"])
@pytest.mark.parametrize("verdict_only", [False, True], ids=["full", "first"])
def test_open_kernel_refuses_a_map_without_a_value_at_a_product(
        monkeypatch, conn, first_product, verdict_only):
    carrier = CarrierMonoid.from_connective(conn, GridDomain(4))
    assert not carrier.table.closed
    monkeypatch.setattr(reports, "verdict_only", verdict_only)
    maps = islice(enumerate_table_subsets(carrier.elements, FIVE), 0, None, 97)
    for mu in maps:
        for each in (mu, _as_values(mu, carrier.elements)):
            for kind in KINDS:
                with pytest.raises(TotalityError) as refused:
                    check_fuzzy_submonoid(each, carrier, kind)
                assert str(refused.value) == (
                    f"membership table has no value at {first_product}")


@pytest.mark.parametrize("conn", [T_P, S_P, T_L], ids=lambda c: c.name)
def test_value_scan_on_an_open_kernel_matches_the_pair_loop(monkeypatch, conn):
    """Total maps on a carrier whose products leave the grid: the scan on
    values reads each map at the kernel's product ids, and a carrier
    built without a kernel runs the plain loop over pairs."""
    maps = (MU_ID, MU_ONE, MU_COMPLEMENT, step_subset(HALF))

    def render():
        carrier = CarrierMonoid.from_connective(conn, GridDomain(4))
        return carrier.table, [dumps(r) for mu in maps
                               for r in _reports(mu, carrier)]

    table, scanned = render()
    monkeypatch.setattr(kernel, "Kernel", lambda fn, points: None)
    no_table, looped = render()
    assert table is not None and no_table is None
    assert scanned == looped and any('"FAILS"' in r for r in scanned)


def test_triples_are_built_on_first_use():
    carrier = CarrierMonoid.from_connective(T_L, FinitePoints(POINTS))
    table = carrier.table
    assert "triples" not in vars(table)
    check_fuzzy_subgroupoid(MU_ID, carrier)
    assert table.triples == [(i, j, table.table[i][j])
                             for i in range(3) for j in range(3)]
    assert table.triples is table.triples


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, FIVE],
                         ids=["default", "five"])
@pytest.mark.parametrize("conn", [T_L, T_D], ids=lambda c: c.name)
def test_intersection_decided_on_ids_matches_the_value_reference(conn, alphabet):
    """Every pair of table maps, subgroupoids or not, as the
    ``prop-intersection`` row decides a pair: the meet of the two id
    tuples, scanned by ``closure_holds``."""
    carrier = CarrierMonoid.from_connective(conn, FinitePoints(POINTS))
    maps = list(enumerate_table_subsets(POINTS, alphabet))
    order = maps[0].fn.order
    subgroupoids = sum(check_fuzzy_subgroupoid(mu, carrier).holds for mu in maps)
    decided = []
    for i, a in enumerate(maps):
        for b in maps[i:]:
            holds = closure_holds(tuple(map(order.meet, a.fn.ids, b.fn.ids)),
                                  carrier.table, order)
            assert holds == check_fuzzy_subgroupoid(
                intersect_fuzzy_subsets([a, b]), carrier).holds, (a.name, b.name)
            decided.append(holds)
    assert len(decided) == len(maps) * (len(maps) + 1) // 2
    assert 0 < sum(decided) < len(decided)
    if conn is T_L and alphabet == DEFAULT_ALPHABET:
        assert subgroupoids == 18
