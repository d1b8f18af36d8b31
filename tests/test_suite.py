from fractions import Fraction
from types import SimpleNamespace

import pytest

import fuzznorm.fuzzy as fuzzy_mod
import fuzznorm.lattice as lattice_mod
import fuzznorm.suite as suite_mod
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.connectives import A_MIN
from fuzznorm.errors import DomainError
from fuzznorm.fuzzy import FuzzyProp, KIND_T_SUBNORM, check_fuzzy_submonoid
from fuzznorm.lattice import (chain_lattice, check_lattice_fuzzy_subnorm,
                              diamond_lattice, enumerate_lattice_tnorms)
from fuzznorm.reports import FinitePoints, dumps
from fuzznorm.subsets import enumerate_table_subsets
from fuzznorm.suite import ROWS, RowResult, SuiteConfig, run_suite
from fuzznorm.tables import enumerate_chain_tnorm_tables, uniform_chain

from subset_maps import enumerate_lsubsets


def test_row_registry_covers_the_propositions():
    expected = {"prop3.6", "prop3.7", "prop12", "prop13", "prop14", "prop15",
                "prop16", "prop17", "prop18", "prop19", "prop20", "prop21",
                "prop22", "prop23", "prop24", "prop25",
                "thm-disjunctive-uninorm", "thm-uninorm-structure"}
    assert expected <= set(ROWS)


def test_selected_rows_run_clean():
    result = run_suite(SuiteConfig(grid=4),
                       only=["prop16", "prop19", "prop23", "prop24",
                             "example-L22-uninorm", "example-L22-nullnorm"])
    assert result.total_counterexamples == 0
    assert not result.any_skipped
    assert [r.row_id for r in result.rows] == [
        "prop16", "prop19", "prop23", "prop24",
        "example-L22-uninorm", "example-L22-nullnorm"]


def test_unknown_row_rejected():
    with pytest.raises(DomainError):
        run_suite(only=["prop99"])


def test_empty_row_list_rejected_before_any_row_runs(monkeypatch):
    """``only=[]`` would check nothing, so it is refused, as the CLI
    refuses an empty ``--only``; ``only=None`` runs every row."""
    ran = []

    def stub(row_id, cfg):
        ran.append(row_id)
        return RowResult(row_id, "", 0, [])

    monkeypatch.setattr(suite_mod, "_run_row", stub)
    with pytest.raises(DomainError, match="no suite rows"):
        run_suite(only=[])
    assert ran == []
    assert len(run_suite(only=None).rows) == len(ROWS) == 28
    assert ran == list(ROWS)


def test_parallel_rows_match_serial():
    only = ["prop17", "prop18", "prop20", "thm-disjunctive-uninorm"]
    serial = run_suite(SuiteConfig(grid=4), only=only, jobs=1)
    parallel = run_suite(SuiteConfig(grid=4), only=only, jobs=3)
    assert dumps(serial.to_json()) == dumps(parallel.to_json())


def test_jobs_above_the_row_count_start_one_worker_a_row(monkeypatch):
    """A pool asked for more workers than rows would start every one of
    them up front; run_suite asks for at most one a selected row. The
    stand-in pool maps in this process and starts none."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    only = ["prop-vague-group-cancellation", "example-L22-uninorm",
            "example-L22-nullnorm"]
    for jobs, workers in ((5000, 3), (3, 3), (2, 2)):
        result = run_suite(SuiteConfig(), only=only, jobs=jobs)
        assert asked.pop() == workers
        assert [r.row_id for r in result.rows] == only
    assert asked == []


def test_json_omits_wall_clock():
    row = RowResult("x", "u", 1, [], elapsed=1.25)
    assert "elapsed" not in row.to_json()


def test_budget_refusal_marks_the_row_skipped(monkeypatch):
    from fuzznorm.errors import BudgetExceededError

    def exploding_row(cfg):
        raise BudgetExceededError("too big", size_estimate=10 ** 9)

    monkeypatch.setitem(suite_mod.ROWS, "prop16", exploding_row)
    result = run_suite(SuiteConfig(grid=4), only=["prop16", "prop17"])
    skipped = result.rows[0]
    assert skipped.row_id == "prop16" and skipped.skipped
    assert "too big" in skipped.skip_reason
    assert result.any_skipped
    assert result.rows[1].counterexamples == []
    assert result.rows[0].to_json()["skipped"] is True


def test_note_row_records_observed_relation():
    result = run_suite(SuiteConfig(grid=6), only=["note-archimedean-vs-limit"])
    notes = result.rows[0].notes
    assert notes["tnorm:min"]["archimedean"] == "FAILS"
    assert notes["tnorm:lukasiewicz"]["archimedean"] == "HOLDS_ON_DOMAIN"
    assert notes["tnorm:lukasiewicz"]["limit-property"] == "HOLDS_ON_DOMAIN"


WIDE_ALPHABET = tuple(Fraction(k, 4) for k in range(5))
# sum of |L|^|L| over the t-norms on chains 2-4 (1, 2, 6) and the diamond (4)
LATTICE_MAPS = 1 * 2 ** 2 + 2 * 3 ** 3 + 6 * 4 ** 4 + 4 * 4 ** 4


@pytest.mark.parametrize("alphabet, size", [(SuiteConfig().alphabet, 3),
                                            (WIDE_ALPHABET, 5)],
                         ids=["default", "wide"])
def test_subnorm_rows_count_their_whole_universe(alphabet, size):
    """The t-subnorm rows run their claims on generated t-subnorms only,
    and count every map of their universe: 6 t-norm tables on the
    4-chain x size^4 tables (prop3.9 adds 3 builtins x 5 forms), and
    every lattice-valued map of every small lattice t-norm."""
    rows = ["prop3.6", "prop3.7", "prop3.9", "prop13", "prop14"]
    result = run_suite(SuiteConfig(alphabet=alphabet), only=rows)
    tables = 6 * size ** 4
    assert [r.checked for r in result.rows] == [
        tables, tables, tables + 3 * 5, LATTICE_MAPS, LATTICE_MAPS]
    assert result.total_counterexamples == 0


def _fstrict_without_fcancel(mu, conn, prop, *args, **kwargs):
    return SimpleNamespace(holds=prop is FuzzyProp.FSTRICT)


def test_planted_failure_marks_every_generated_subnorm(monkeypatch):
    """With FSTRICT made to hold and FCANCEL to fail, prop3.6 and prop13
    report exactly the t-subnorms the gate passes, by their labels."""
    monkeypatch.setattr(fuzzy_mod, "check_fuzzy_property",
                        _fstrict_without_fcancel)
    monkeypatch.setattr(lattice_mod, "check_lattice_fuzzy_property",
                        _fstrict_without_fcancel)
    result = run_suite(SuiteConfig(), only=["prop3.6", "prop13"])
    chain = uniform_chain(4)
    expected_unit = []
    for table in enumerate_chain_tnorm_tables(chain):
        conn = table.as_connective()
        carrier = CarrierMonoid.from_connective(conn, FinitePoints(chain))
        expected_unit += [
            f"{conn.name}|{mu.name}"
            for mu in enumerate_table_subsets(chain, SuiteConfig().alphabet)
            if check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds]
    expected_lattice = [
        f"{t.lattice.name}|{t.name}|{mu.name}"
        for lat in (chain_lattice(2), chain_lattice(3), chain_lattice(4),
                    diamond_lattice())
        for t in enumerate_lattice_tnorms(lat)
        for mu in enumerate_lsubsets(lat)
        if check_lattice_fuzzy_subnorm(mu, t).holds]
    prop36, prop13 = result.rows
    assert len(expected_unit) == 105
    assert prop36.counterexamples == expected_unit
    assert prop13.counterexamples == expected_lattice
    assert (prop36.checked, prop13.checked) == (6 * 3 ** 4, LATTICE_MAPS)


HALF = Fraction(1, 2)
UMIN_PP = "uninorm:umin(e=1/2,T=product,S=probsum)"
UMAX_PP = "uninorm:umax(e=1/2,T=product,S=probsum)"
NULL_LL = "nullnorm:<lukasiewicz-S,1/2,lukasiewicz-T>"
NULL_LM = "nullnorm:<lukasiewicz-S,1/2,min-T>"


def _prop20_rhs(v):
    # mu(1) = 1, and mu non-increasing on the points where mu >= 1/2
    region = [m for m in v if m >= HALF]
    return v[2] == 1 and region == sorted(region, reverse=True)


# row -> (universe tail, operator names in labels or None, the closed form
# a map must meet to hold once the submonoid side always holds); maps are
# the values at 0, 1/2, 1
CASE_ROWS = {
    "prop16": ("carrier, min-aggregation combiner", ["agg:min"],
               lambda v: v[2] == 1),
    "prop17": ("grid against agg:min", None, lambda v: v[2] == 1),
    "prop18": ("grid against agg:min", None, lambda v: v[0] == 1),
    "prop19": ("carrier, uninorm combiners", [UMIN_PP, UMAX_PP],
               lambda v: v[2] == 1),
    "prop20": ("grid against uninorm:umin(e=1/2,T=product,S=max)", None,
               _prop20_rhs),
    "prop23": ("carrier, nullnorm combiner", [NULL_LL], lambda v: v[2] == 1),
    "prop24": (f"grid against {NULL_LL}", None, lambda v: min(v) >= HALF),
    "prop25": (f"grid against {NULL_LM}", None,
               lambda v: v[2] == 1 and min(v) >= HALF),
    "prop25-tconorm": (f"grid against {NULL_LM}", None,
                       lambda v: v[0] == 1 and min(v) >= HALF),
    "thm-disjunctive-uninorm": (f"grid against {UMAX_PP}", None,
                                lambda v: min(v) == 1),
}


def test_planted_failure_pins_the_case_rows(monkeypatch):
    """With every map generated as a submonoid (every left side made to
    hold), each characterization row reports exactly the maps whose
    closed form fails (for the core rows: whose core misses the identity
    1 of the min carrier), labelled by operator and map on the core rows
    and by map elsewhere."""
    monkeypatch.setattr(fuzzy_mod, "generate_subnorm_tables",
                        lambda elements, op, identity, alphabet, *rest:
                        enumerate_table_subsets(elements, alphabet))
    result = run_suite(SuiteConfig(), only=list(CASE_ROWS))
    assert [r.row_id for r in result.rows] == list(CASE_ROWS)
    points = uniform_chain(3)
    maps = list(enumerate_table_subsets(points, SuiteConfig().alphabet))
    assert len(maps) == 27
    for row in result.rows:
        tail, ops, rhs = CASE_ROWS[row.row_id]
        failing = [mu.name for mu in maps if not rhs([mu(p) for p in points])]
        expected = (failing if ops is None else
                    [f"{op}|{name}" for op in ops for name in failing])
        assert row.counterexamples == expected, row.row_id
        assert row.universe == f"27 membership tables on the 3-point {tail}"
        assert row.checked == 27 * len(ops or [None])
    assert [len(r.counterexamples) for r in result.rows] == [
        18, 18, 18, 36, 23, 18, 19, 23, 23, 26]


def test_case_rows_validate_each_operator_once(monkeypatch):
    """A case row checks its operator for the case once, not once per
    membership map; the public function still checks on every call."""
    calls = []
    cases = {}
    for case_id, (check, *rest) in fuzzy_mod._CASES.items():
        def counted(conn, domain, _check=check, _case=case_id):
            calls.append(_case)
            if _check is not None:
                _check(conn, domain)
        cases[case_id] = (counted, *rest)
    monkeypatch.setattr(fuzzy_mod, "_CASES", cases)
    result = run_suite(SuiteConfig(), only=["prop17", "prop19", "prop20"])
    assert [r.checked for r in result.rows] == [27, 54, 27]
    assert calls == ["prop17", "prop19", "prop19", "prop20"]
    calls.clear()
    dom = FinitePoints(uniform_chain(3))
    for mu in list(enumerate_table_subsets(dom.points, (0, 1)))[:3]:
        fuzzy_mod.characterize_special_cases("prop17", mu, A_MIN, dom)
    assert calls == ["prop17"] * 3


def test_prop12_compiles_each_operator_once(monkeypatch):
    """prop12 runs four checks on each of its five vague operators; each
    operator's degree order is compiled once and shared by the four, and
    by prop-vague-commutativity, which reuses the process's corpus."""
    from fuzznorm import kernel
    calls = []
    original = kernel.compile_degrees

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "compile_degrees", counting)
    suite_mod._vague_corpus_at.cache_clear()  # as in a fresh process
    row = ROWS["prop12"](SuiteConfig())
    assert (row.checked, row.counterexamples) == (10, [])
    assert len(calls) == 5
    row = ROWS["prop-vague-commutativity"](SuiteConfig())
    assert (row.checked, row.counterexamples) == (5, [])
    assert len(calls) == 5


def _cyclic_garbage(run) -> int:
    """The objects ``run`` leaves to the cycle collector: with it paused,
    anything outside a reference cycle is freed as soon as it is dropped."""
    import gc
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_orders_and_enumerators_leave_no_reference_cycles():
    """A compiled id order, the t-subnorm generator and the t-norm
    enumerator free what they built when it is dropped, without waiting
    for the cycle collector (which a short sweep may never run)."""
    from fuzznorm import kernel
    from fuzznorm.subsets import generate_subnorm_tables
    from fuzznorm.scalars import UNIT_INTERVAL as order
    points = uniform_chain(4)

    def compile_order():
        kernel.Kernel(min, points).lifted(max)

    def generate():
        list(generate_subnorm_tables(points, min, points[-1], points, order))

    assert _cyclic_garbage(compile_order) == 0
    assert _cyclic_garbage(generate) == 0
    assert _cyclic_garbage(lambda: enumerate_lattice_tnorms(diamond_lattice())) == 0
