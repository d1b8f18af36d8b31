"""The characterization rows generate their left side: the t-subnorm
generator with a kind's combiner against the submonoid gate it stands in
for, and each case row against the per-map rows of ``case_reference``."""

import hashlib
from fractions import Fraction as F

import pytest

import fuzznorm.fuzzy as fuzzy_mod
import fuzznorm.suite as suite_mod
from fuzznorm import reports
from fuzznorm.carriers import CarrierMonoid
from fuzznorm.connectives import A_MIN, T_M, Connective, Role
from fuzznorm.errors import BudgetExceededError
from fuzznorm.fuzzy import a_submonoid_kind, check_fuzzy_submonoid
from fuzznorm.reports import FinitePoints
from fuzznorm.scalars import UNIT_INTERVAL
from fuzznorm.subsets import enumerate_table_subsets, generate_subnorm_tables
from fuzznorm.suite import ROWS, SuiteConfig
from fuzznorm.tables import uniform_chain

import case_reference

CASE_ROWS = list(suite_mod._CASE_ROWS)
ALPHABETS = {n: tuple(F(k, n - 1) for k in range(n)) for n in (3, 5, 9)}


def _generated_and_gated(kind, carrier, alphabet):
    generated = list(generate_subnorm_tables(
        carrier.elements, carrier.op, carrier.identity, alphabet,
        UNIT_INTERVAL, kind.combiner, fuzzy_mod._arities(kind, carrier)[0]))
    gated = [mu for mu in enumerate_table_subsets(carrier.elements, alphabet)
             if check_fuzzy_submonoid(mu, carrier, kind).holds]
    return generated, gated


def _assert_same_maps(generated, gated, points):
    assert [mu.name for mu in generated] == [mu.name for mu in gated]
    assert ([[mu(x) for x in points] for mu in generated]
            == [[mu(x) for x in points] for mu in gated])


@pytest.mark.parametrize("letters", sorted(ALPHABETS))
@pytest.mark.parametrize("row_id", CASE_ROWS)
def test_generator_with_a_combiner_matches_the_gate(row_id, letters):
    """For the kind and carrier of every operator of every case row (the
    A-min aggregation at arity 3 on T_M and S_M, the uninorms and the
    nullnorms), the generator yields exactly the maps, names and order
    the submonoid check lets through."""
    case_id, operators, _, _ = suite_mod._CASE_ROWS[row_id]
    dom = suite_mod._grid3()
    for conn in operators():
        kind, carrier, _, _ = fuzzy_mod._case(case_id, conn, dom)
        generated, gated = _generated_and_gated(kind, carrier,
                                                ALPHABETS[letters])
        _assert_same_maps(generated, gated, dom.points)
        assert 0 < len(gated) < letters ** 3


def _min_then_max(*xs):
    # an aggregation whose triples ask more than its pairs
    return min(xs) if len(xs) == 2 else max(xs)


@pytest.mark.parametrize("arity_cap", [2, 3, 4])
def test_generator_filters_every_arity(arity_cap):
    """Each arity up to the cap filters the maps, as in the gate: under
    this aggregation the triples keep fewer maps than the pairs."""
    agg = Connective("agg:min-then-max", Role.AGGREGATION, _min_then_max)
    dom = suite_mod._grid3()
    carrier = CarrierMonoid.from_connective(T_M, dom)
    kind = a_submonoid_kind(agg, arity_cap)
    generated, gated = _generated_and_gated(kind, carrier, ALPHABETS[5])
    _assert_same_maps(generated, gated, dom.points)
    assert len(gated) == {2: 25, 3: 1, 4: 1}[arity_cap]


def test_case_sweep_refuses_an_aggregation_past_the_tuple_budget():
    dom = FinitePoints(uniform_chain(200))
    with pytest.raises(BudgetExceededError):
        fuzzy_mod.case_sweep("prop17", A_MIN, dom, ALPHABETS[3])


# closed forms planted in every case: as written, always true, always
# false, and negated
PLANTED = {
    "as-written": lambda closed_form: closed_form,
    "true": lambda closed_form: lambda *on: True,
    "false": lambda closed_form: lambda *on: False,
    "negated": lambda closed_form: lambda *on: not closed_form(*on),
}


@pytest.mark.parametrize("planted", PLANTED)
@pytest.mark.parametrize("letters", sorted(ALPHABETS))
def test_case_rows_match_the_per_map_rows(monkeypatch, letters, planted):
    """Each case row reads as the per-map row does, byte for byte, also
    with closed forms planted that disagree with the left side."""
    plant = PLANTED[planted]
    monkeypatch.setattr(fuzzy_mod, "_CASES", {
        case_id: (check, kind_of, conn, plant(closed_form), relation)
        for case_id, (check, kind_of, conn, closed_form, relation)
        in fuzzy_mod._CASES.items()})
    cfg = SuiteConfig(alphabet=ALPHABETS[letters])
    monkeypatch.setattr(reports, "verdict_only", True)
    for row_id in CASE_ROWS:
        got = ROWS[row_id](cfg).to_json()
        want = case_reference.case_row(row_id, cfg).to_json()
        assert got == want, row_id
    if planted != "as-written":
        assert got["counterexamples"]


# sha256 of reports.dumps of the characterization reports of each case,
# over its row's operators and the 27 maps of the 3-letter sweep
CASE_REPORT_SHA256 = {
    "prop16": "ffb41f8cbdc95c9d5d471dd0d95a08223b0de012861db61e0e4dcb9826cb0733",
    "prop17": "1f155dd475c509965b27f7206458a0cef476f16d460779612fca79d75ac17cce",
    "prop18": "ef527d88aa2612e685546110c5a1a9fffbe15ed356266862b72ed60e3e0afa01",
    "prop19": "49569e973c7a23d4d31ddc1f3876af698ae1d74b5dd8bdc161471268fe5e081e",
    "prop20": "c9cee1b4729e193a3847a7fd25e4264cd2c34836a5df2840dcba68319890bf53",
    "prop23": "8ae246fc8de2283afd1049a683c582fa5ebb54067a6be4d70ec6776cd9eda68b",
    "prop24": "96afcc50a64be5aa3453705e3a287093d1427d77475b20037a9436947bcaf3ad",
    "prop25-tnorm": "7331a5de500b468525985f1343187cf56ffebea6f10514703b39e12605692e9e",
    "prop25-tconorm": "2ae13923409c1cd6bd4902d6c5f4fa924f6860d5690dee3d80718102200ae6f0",
    "disjunctive-uninorm": "c7eaf058392fa91b706fbcd70a3631743cf43a90035a933e65b9796ee6012e7a",
}


@pytest.mark.parametrize("row_id", CASE_ROWS)
def test_characterization_reports_are_pinned(row_id):
    """``characterize_special_cases`` reports each map of the 3-letter
    sweep byte for byte as it did when the rows were per-map."""
    case_id, operators, _, _ = suite_mod._CASE_ROWS[row_id]
    dom = suite_mod._grid3()
    reps = [fuzzy_mod.characterize_special_cases(case_id, mu, conn, dom).to_json()
            for conn in operators()
            for mu in enumerate_table_subsets(dom.points, SuiteConfig().alphabet)]
    digest = hashlib.sha256(reports.dumps(reps).encode()).hexdigest()
    assert digest == CASE_REPORT_SHA256[case_id]
