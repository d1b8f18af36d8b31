"""The verdict-only mode (``reports.verdict_only``) against the full reports.

``suite._run_row`` turns the mode on around one row. A check in the mode
stops its witness loop at the first witness (``reports.collect``). Its
verdict must be the full report's, and its witness list the first
element of the full list (empty when that is empty). Outside a row
every check runs in full.
"""

import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fuzznorm.checker as checker_mod
import fuzznorm.fuzzy as fuzzy_mod
import fuzznorm.lattice as lattice_mod
import fuzznorm.subsets as subsets_mod
import fuzznorm.suite as suite_mod
import fuzznorm.vague as vague_mod
from fuzznorm import reports
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.connectives import (A_MIN, BUILTIN_TNORMS, S_P, T_L, T_M, T_P,
                                  Connective, Role,
                                  construct_uninorm_max, construct_uninorm_min)
from fuzznorm.fuzzy import (FuzzyProp, KIND_T_SUBNORM, SubstructureTag,
                            a_submonoid_kind, check_fuzzy_property,
                            check_fuzzy_subgroupoid, check_fuzzy_submonoid,
                            refute_uninorm_existence, u_submonoid_kind)
from fuzznorm.errors import BudgetExceededError, TotalityError
from fuzznorm.lattice import (chain_lattice, check_lattice_vague_strict_monotone,
                              enumerate_lattice_equalities,
                              enumerate_lattice_tnorms,
                              induce_lattice_vague_tnorm)
from fuzznorm.reports import FinitePoints, GridDomain, Witness, decide
from fuzznorm.subsets import MU_ID, enumerate_table_subsets
from fuzznorm.suite import ROWS, RowResult, SuiteConfig, run_suite
from fuzznorm.vague import READINGS, check_vague_strict_monotone

HALF = Fraction(1, 2)

# module -> the checks that reach the stop from a suite row, each patched
# where it is defined (the rows call through the module) and where
# ``fuzzy`` imported it by name
CHECKS = {
    fuzzy_mod: ("check_fuzzy_property", "check_fuzzy_subgroupoid",
                "check_fuzzy_submonoid", "check_strict_monotonicity"),
    lattice_mod: ("check_lattice_fuzzy_property",
                  "check_lattice_vague_strict_monotone",
                  "validate_lattice_fuzzy_equality"),
    vague_mod: ("check_vague_strict_monotone", "validate_fuzzy_equality",
                "check_vague_commutativity", "check_vague_group_cancellation"),
    checker_mod: ("check_strict_monotonicity", "check_axioms"),
}

# the modules whose witness loops end in ``collect``, ``reports`` for the
# case streams that ``reports.decide`` decides
COLLECTORS = (subsets_mod, checker_mod, vague_mod, fuzzy_mod, reports)

# the rows that reach the stop; the characterization rows generate their
# left side and run no witness loop
VERDICT_ONLY_ROWS = (
    "prop3.6", "prop3.7", "prop3.8", "prop3.9", "prop12", "prop13", "prop14",
    "prop15", "prop21", "prop22", "thm-uninorm-structure",
    "prop-vague-commutativity", "prop-vague-group-cancellation",
    "prop-intersection", "example-unique-mu-id")


def _same_verdict_and_first_witness(fast, full):
    assert fast.verdict is full.verdict
    assert fast.witnesses == full.witnesses[:1]
    for fast_child, full_child in zip(fast.children, full.children, strict=True):
        _same_verdict_and_first_witness(fast_child, full_child)


def _in_full(check, *args, **kwargs):
    """``check`` with the mode off, inside a row that has it on."""
    reports.verdict_only = False
    try:
        return check(*args, **kwargs)
    finally:
        reports.verdict_only = True


def test_every_verdict_only_call_of_the_suite_matches_the_full_report(monkeypatch):
    """Each row runs as ``run_suite`` runs it. Every check that reaches
    the stop there is run again in full, every stop is inside such a
    check, and each row's result is the one it gives in full."""
    calls, stops, depth = Counter(), Counter(), [0]

    def differential(name, check):
        def both(*args, **kwargs):
            if not reports.verdict_only:
                return check(*args, **kwargs)
            depth[0] += 1
            try:
                fast = check(*args, **kwargs)
            finally:
                depth[0] -= 1
            calls[name, fast.fails] += 1
            _same_verdict_and_first_witness(fast, _in_full(check, *args, **kwargs))
            return fast
        return both

    def stop(collect):
        def counted(witnesses):
            if reports.verdict_only:
                assert depth[0] > 0  # the differential covers this stop
                stops["all"] += 1
            return collect(witnesses)
        return counted

    for mod, names in CHECKS.items():
        for name in names:
            monkeypatch.setattr(mod, name, differential(name, getattr(mod, name)))
    for mod in COLLECTORS:
        monkeypatch.setattr(mod, "collect", stop(mod.collect))
    suite_mod._vague_corpus_at.cache_clear()  # its equalities validate in a row
    cfg = SuiteConfig()
    used = []
    for row_id in ROWS:
        before = stops["all"]
        result = suite_mod._run_row(row_id, cfg)
        assert not result.skipped and result.counterexamples == [], row_id
        assert result.to_json() == ROWS[row_id](cfg).to_json(), row_id
        if stops["all"] > before:
            used.append(row_id)
    assert tuple(used) == VERDICT_ONLY_ROWS
    # every check was reached in the mode, on reports that fail and hold
    reached = {name for name, _ in calls}
    assert reached == {name for names in CHECKS.values() for name in names}
    assert calls["check_fuzzy_submonoid", True] > 0
    assert calls["check_fuzzy_submonoid", False] > 0
    assert calls["check_fuzzy_property", True] > 0
    assert reports.verdict_only is False


def _row_that(outcome):
    def row(cfg):
        assert reports.verdict_only is True
        if isinstance(outcome, Exception):
            raise outcome
        return RowResult("probe", "", 0, [])
    return row


@pytest.mark.parametrize("outcome", [None, BudgetExceededError("too many"),
                                     ZeroDivisionError("boom")],
                         ids=["returns", "budget-skipped", "raises"])
def test_run_row_turns_the_mode_off_however_the_row_ends(monkeypatch, outcome):
    monkeypatch.setitem(ROWS, "probe", _row_that(outcome))
    if isinstance(outcome, ZeroDivisionError):
        with pytest.raises(ZeroDivisionError):
            suite_mod._run_row("probe", SuiteConfig())
    else:
        result = suite_mod._run_row("probe", SuiteConfig())
        assert result.skipped == isinstance(outcome, BudgetExceededError)
    assert reports.verdict_only is False


def test_the_axioms_stop_at_their_first_witness(monkeypatch):
    """The axioms are case streams that ``reports.decide`` decides: in
    the mode, a non-associative operator gets the full report's verdicts
    and the first witness of each axiom."""
    skewed = Connective("test:skewed-product", Role.TNORM,
                        lambda x, y: x * y * (1 + x) / 2, identity=Fraction(1))
    dom = GridDomain(4)
    full = checker_mod.check_axioms(skewed, dom)
    assert len(full.child("T2:associativity").witnesses) > 1
    monkeypatch.setattr(reports, "verdict_only", True)
    fast = checker_mod.check_axioms(skewed, dom)
    assert fast.fails
    _same_verdict_and_first_witness(fast, full)
    assert len(fast.child("T2:associativity").witnesses) == 1


@pytest.mark.parametrize("stream", [[((0,), 2, 1)], []], ids=["fails", "holds"])
def test_the_witnesses_after_a_decided_stream_come_last(monkeypatch, stream):
    """``then`` follows the stream's witnesses, so in the mode it is the
    one witness only when the stream has none."""
    missing = Witness(("no-identity-element",), ())
    full = decide("p", {}, operator.le, list(stream), then=[missing])
    monkeypatch.setattr(reports, "verdict_only", True)
    fast = decide("p", {}, operator.le, list(stream), then=[missing])
    assert full.witnesses[-1] == missing and fast.fails
    _same_verdict_and_first_witness(fast, full)


def test_a_check_after_run_suite_keeps_every_witness():
    dom = GridDomain(6)
    carrier = CarrierMonoid.from_connective(T_L, dom)
    before = check_fuzzy_submonoid(MU_ID, carrier, KIND_T_SUBNORM)
    assert len(before.witnesses) > 1
    run_suite(only=["example-unique-mu-id"])
    assert check_fuzzy_submonoid(MU_ID, carrier, KIND_T_SUBNORM) == before


def test_the_vague_rows_do_not_depend_on_their_order():
    """prop12 and prop-vague-commutativity share one vague corpus a
    process; each row gives the same result whichever built it."""
    cfg, ids = SuiteConfig(), ("prop12", "prop-vague-commutativity")
    suite_mod._vague_corpus_at.cache_clear()
    forward = {r: ROWS[r](cfg).to_json() for r in ids}
    suite_mod._vague_corpus_at.cache_clear()
    backward = {r: ROWS[r](cfg).to_json() for r in reversed(ids)}
    assert forward == backward


POINTS = (Fraction(0), HALF, Fraction(1))
UNINORMS = (construct_uninorm_min(HALF, T_P, S_P),
            construct_uninorm_max(HALF, T_P, S_P))
KINDS = (KIND_T_SUBNORM, a_submonoid_kind(A_MIN),
         *(u_submonoid_kind(u) for u in UNINORMS))
# int letters are read as the Fractions they are and take ids like them
ALPHABETS = ((Fraction(0), HALF, Fraction(1)), (0, HALF, 1),
             (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)))


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except TotalityError as exc:
        return exc


def _both_modes(check, *args, **kwargs):
    """``check`` in the verdict-only mode, then in full, both outcomes
    returned. A map with no value at a product the loop reaches is
    refused in full; the verdict-only mode refuses it too, unless a
    witness comes first."""
    assert reports.verdict_only is False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "verdict_only", True)
        fast = _outcome(check, *args, **kwargs)
    full = _outcome(check, *args, **kwargs)
    if isinstance(full, TotalityError):
        assert isinstance(fast, TotalityError) or fast.fails
    else:
        _same_verdict_and_first_witness(fast, full)
    return fast, full


def _refused_alike(fast, full):
    assert isinstance(fast, TotalityError) == isinstance(full, TotalityError)


@settings(max_examples=30, deadline=None)
@given(tnorm=st.sampled_from(BUILTIN_TNORMS),
       alphabet=st.sampled_from(ALPHABETS),
       picks=st.lists(st.integers(0, 124), min_size=1, max_size=4))
@example(tnorm=T_M, alphabet=ALPHABETS[1], picks=[0, 26, 13])
@example(tnorm=T_L, alphabet=ALPHABETS[0], picks=[5, 21])
@example(tnorm=T_P, alphabet=ALPHABETS[2], picks=[124, 0])
def test_verdict_only_matches_the_full_report_on_table_maps(tnorm, alphabet, picks):
    """Table maps of one sweep (sharing its alphabet's ids) on the 3-point
    carrier of each builtin t-norm: the closure checks under the meet,
    the min aggregation (arities 2 and 3) and the prop19 uninorm
    combiners, whose values leave the alphabet, and the three pair
    properties with and without their gate. The product leaves the
    carrier, so its table maps are not total: the pair closure loops and
    the gate refuse them before any witness, in either mode."""
    dom = FinitePoints(POINTS)
    carrier = CarrierMonoid.from_connective(tnorm, dom)
    maps = list(enumerate_table_subsets(POINTS, alphabet))
    for mu in (maps[k % len(maps)] for k in picks):
        for kind in KINDS:
            outcomes = _both_modes(check_fuzzy_submonoid, mu, carrier, kind)
            if kind.tag is not SubstructureTag.A_SUBMONOID:
                _refused_alike(*outcomes)
        _refused_alike(*_both_modes(check_fuzzy_subgroupoid, mu, carrier))
        for prop in (FuzzyProp.FSTRICT, FuzzyProp.FCANCEL,
                     FuzzyProp.FCONDCANCEL):
            for gate in (True, False):
                outcomes = _both_modes(check_fuzzy_property, mu, tnorm, prop,
                                       dom, gate=gate)
                if gate:
                    _refused_alike(*outcomes)


def test_the_report_builders_refuse_a_map_without_a_value_at_a_product(monkeypatch):
    """A table map with no value at a product of the carrier is refused
    by the submonoid check and the uninorm refutation in either mode: the
    closure loop values the map at every product before the witness it
    meets first. (A characterization case runs on its own min or max
    carrier, whose products stay on the grid.)"""
    dom = GridDomain(2)
    mu, = (m for m in enumerate_table_subsets(dom.points, (Fraction(0), Fraction(1)))
           if [m(p) for p in dom.points] == [0, 1, 1])
    umax = UNINORMS[1]
    carrier = CarrierMonoid.from_connective(T_P, dom)  # 1/2 * 1/2 is off the grid
    assert umax(mu(0), mu(HALF)) > mu(T_P(0, HALF))  # the pair before 1/2 * 1/2
    for on in (True, False):
        monkeypatch.setattr(reports, "verdict_only", on)
        with pytest.raises(TotalityError):
            check_fuzzy_submonoid(mu, carrier, u_submonoid_kind(umax))
        with pytest.raises(TotalityError):
            refute_uninorm_existence(mu, T_P, [umax], dom)


@pytest.mark.parametrize("reading", READINGS)
def test_verdict_only_vague_reports(reading):
    """The vague corpus at grid 3 and the induced lattice operators of
    prop15: strict monotonicity in both modes."""
    for v in suite_mod._vague_corpus(SuiteConfig(grid=3)):
        _both_modes(check_vague_strict_monotone, v, reading)
    lat = chain_lattice(3)
    for t in enumerate_lattice_tnorms(lat):
        for equality in enumerate_lattice_equalities(lat, t):
            mu = induce_lattice_vague_tnorm(equality, t)
            _both_modes(check_lattice_vague_strict_monotone, mu, lat, reading)
