"""The proposition sweep: every claim the checkers mechanize, one row each.

Each row enumerates its universe exhaustively and counts
counterexamples; a clean run reports zero everywhere. Rows are pure
functions of the configuration, so the suite can fan rows out across
processes and still merge deterministically. Wall-clock time is
reported in text output only, keeping the JSON byte-stable across runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .carriers import CarrierMonoid, cyclic_group
from .checker import (check_archimedean, check_axioms, check_limit_property,
                      check_strict_monotonicity, classify_uninorm)
from .connectives import (A_MIN, BUILTIN_TNORMS, S_L, S_M, S_P, T_D, T_L, T_M,
                          T_P, construct_nullnorm, construct_uninorm_max,
                          construct_uninorm_min)
from .errors import BudgetExceededError, DomainError
from .fuzzy import (FuzzyProp, KIND_T_SUBNORM, a_submonoid_kind,
                    characterize_special_cases, check_discrete_subalgebra,
                    check_fuzzy_property, check_fuzzy_submonoid,
                    check_fuzzy_subgroupoid, check_not_strictly_decreasing,
                    core_is_submonoid, extract_core, f_submonoid_kind,
                    refute_uninorm_existence, u_submonoid_kind, uninorm_family)
from .lattice import (chain_lattice, check_lattice_fuzzy_property,
                      check_lattice_fuzzy_subnorm,
                      check_lattice_vague_cancellation,
                      check_lattice_vague_strict_monotone, diamond_lattice,
                      enumerate_lattice_equalities, enumerate_lattice_tnorms,
                      enumerate_lsubsets, induce_lattice_vague_tnorm)
from .reports import FinitePoints, GridDomain, SearchBudget
from .scalars import ONE, ZERO
from .subsets import (MU_COMPLEMENT, MU_ID, MU_ONE, MU_ZERO,
                      enumerate_table_subsets, intersect_fuzzy_subsets,
                      step_subset)
from .tables import enumerate_chain_tnorm_tables, mixed_grid_points, uniform_chain
from .vague import (READINGS, check_vague_cancellation,
                    check_vague_commutativity, check_vague_group_cancellation,
                    check_vague_strict_monotone, crisp_equality,
                    crisp_vague_group, induce_vague_tnorm, linear_equality)

HALF = Fraction(1, 2)
DEFAULT_ALPHABET = (ZERO, HALF, ONE)


@dataclass(frozen=True)
class SuiteConfig:
    grid: int = 6
    budget: SearchBudget = field(default_factory=SearchBudget)
    alphabet: tuple = DEFAULT_ALPHABET


@dataclass
class RowResult:
    row_id: str
    universe: str
    checked: int
    counterexamples: list
    skipped: bool = False
    skip_reason: str = ""
    notes: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        # elapsed stays out of the JSON so identical configs give
        # byte-identical output
        obj = {
            "row_id": self.row_id,
            "universe": self.universe,
            "checked": self.checked,
            "counterexamples": sorted(self.counterexamples),
            "skipped": self.skipped,
        }
        if self.skip_reason:
            obj["skip_reason"] = self.skip_reason
        if self.notes:
            obj["notes"] = self.notes
        return obj


def _grid3() -> FinitePoints:
    return FinitePoints(uniform_chain(3))


def _table_sweep(cfg: SuiteConfig, points) -> list:
    return list(enumerate_table_subsets(points, cfg.alphabet))


def _fuzzy_implication_row(cfg: SuiteConfig, row_id: str, first: FuzzyProp,
                           second: FuzzyProp) -> RowResult:
    chain = uniform_chain(4)
    dom = FinitePoints(chain)
    tables = enumerate_chain_tnorm_tables(chain)
    counter = []
    checked = 0
    for tbl in tables:
        conn = tbl.as_connective()
        carrier = CarrierMonoid.from_connective(conn, dom)
        for mu in _table_sweep(cfg, chain):
            checked += 1
            if not check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds:
                continue
            if not check_fuzzy_property(mu, conn, first, dom, cfg.budget,
                                        gate=False).holds:
                continue
            if not check_fuzzy_property(mu, conn, second, dom, cfg.budget,
                                        gate=False).holds:
                counter.append(f"{conn.name}|{mu.name}")
    universe = (f"{len(tables)} t-norm tables on the 4-chain x "
                f"{len(cfg.alphabet) ** 4} membership tables")
    return RowResult(row_id, universe, checked, counter)


def _row_prop36(cfg):
    return _fuzzy_implication_row(cfg, "prop3.6", FuzzyProp.FSTRICT,
                                  FuzzyProp.FCANCEL)


def _row_prop37(cfg):
    return _fuzzy_implication_row(cfg, "prop3.7", FuzzyProp.FCANCEL,
                                  FuzzyProp.FCONDCANCEL)


def _builtin_mu_forms():
    return (MU_ID, MU_ONE, MU_ZERO, MU_COMPLEMENT, step_subset(HALF))


def _row_prop38(cfg):
    # strictly monotone operator: no strictly decreasing t-subnorm
    dom = GridDomain(cfg.grid)
    counter = []
    checked = 0
    for conn in (T_P,):
        for mu in _builtin_mu_forms():
            checked += 1
            if check_not_strictly_decreasing(mu, conn, dom).fails:
                counter.append(f"{conn.name}|{mu.name}")
    universe = f"strictly monotone builtins x builtin membership forms (grid n={cfg.grid})"
    return RowResult("prop3.8", universe, checked, counter)


def _row_prop39(cfg):
    # non-strict operator: no fuzzy strictly monotone t-subnorm at all
    chain = uniform_chain(4)
    dom = FinitePoints(chain)
    counter = []
    checked = 0
    for tbl in enumerate_chain_tnorm_tables(chain):
        conn = tbl.as_connective()
        if check_strict_monotonicity(conn, dom).holds:
            continue
        carrier = CarrierMonoid.from_connective(conn, dom)
        for mu in _table_sweep(cfg, chain):
            checked += 1
            if not check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds:
                continue
            if check_fuzzy_property(mu, conn, FuzzyProp.FSTRICT, dom,
                                    cfg.budget, gate=False).holds:
                counter.append(f"{conn.name}|{mu.name}")
    grid_dom = GridDomain(cfg.grid)
    for conn in (T_M, T_L, T_D):
        for mu in _builtin_mu_forms():
            checked += 1
            carrier = CarrierMonoid.from_connective(conn, grid_dom)
            if not check_fuzzy_submonoid(mu, carrier, KIND_T_SUBNORM).holds:
                continue
            if check_fuzzy_property(mu, conn, FuzzyProp.FSTRICT, grid_dom,
                                    cfg.budget, gate=False).holds:
                counter.append(f"{conn.name}|{mu.name}")
    universe = ("non-strict t-norm tables on the 4-chain x membership tables, "
                f"plus non-strict builtins at grid n={cfg.grid}")
    return RowResult("prop3.9", universe, checked, counter)


def _vague_corpus(cfg):
    pts = GridDomain(min(cfg.grid, 6)).points
    corpus = []
    for label, make_eq, conn in (
            ("crisp", crisp_equality, T_M),
            ("crisp", crisp_equality, T_P),
            ("crisp", crisp_equality, T_L),
            ("linear", linear_equality, T_L),
            ("linear", linear_equality, T_D)):
        corpus.append(induce_vague_tnorm(make_eq(pts, conn), conn))
    return corpus


def _row_prop12(cfg):
    counter = []
    checked = 0
    for v in _vague_corpus(cfg):
        for reading in READINGS:
            checked += 1
            strict = check_vague_strict_monotone(v, reading)
            if not strict.holds:
                continue
            if check_vague_cancellation(v, reading).fails:
                counter.append(f"{v.base.label}|{reading}")
    universe = "induced vague operators over the grid corpus, both premise readings"
    return RowResult("prop12", universe, checked, counter)


def _small_lattices():
    return [chain_lattice(2), chain_lattice(3), chain_lattice(4),
            diamond_lattice()]


def _lattice_implication_row(cfg, row_id, first, second):
    counter = []
    checked = 0
    table_count = 0
    for lat in _small_lattices():
        tnorms = enumerate_lattice_tnorms(lat)
        table_count += len(tnorms)
        for t in tnorms:
            for mu in enumerate_lsubsets(lat):
                checked += 1
                if not check_lattice_fuzzy_subnorm(mu, t).holds:
                    continue
                if not check_lattice_fuzzy_property(mu, t, first).holds:
                    continue
                if not check_lattice_fuzzy_property(mu, t, second).holds:
                    counter.append(f"{lat.name}|{t.name}|{mu.name}")
    universe = (f"{table_count} lattice t-norms on chains 2-4 and the diamond "
                "x all lattice-valued membership maps")
    return RowResult(row_id, universe, checked, counter)


def _row_prop13(cfg):
    return _lattice_implication_row(cfg, "prop13", FuzzyProp.FSTRICT,
                                    FuzzyProp.FCANCEL)


def _row_prop14(cfg):
    return _lattice_implication_row(cfg, "prop14", FuzzyProp.FCANCEL,
                                    FuzzyProp.FCONDCANCEL)


def _row_prop15(cfg):
    lat = chain_lattice(3)
    counter = []
    checked = 0
    eq_count = 0
    for t in enumerate_lattice_tnorms(lat):
        equalities = enumerate_lattice_equalities(lat, t)
        eq_count += len(equalities)
        for eq_table in equalities:
            mu = induce_lattice_vague_tnorm(eq_table, t)
            for reading in READINGS:
                checked += 1
                strict = check_lattice_vague_strict_monotone(mu, lat, reading)
                if not strict.holds:
                    continue
                if check_lattice_vague_cancellation(mu, lat, reading).fails:
                    counter.append(f"{t.name}|{reading}")
    universe = f"{eq_count} valid lattice equalities x 3-chain t-norms, both readings"
    return RowResult("prop15", universe, checked, counter)


def _core_row(cfg, row_id, kinds, universe_suffix):
    dom = _grid3()
    carrier = CarrierMonoid.from_connective(T_M, dom)
    counter = []
    checked = 0
    for kind_label, kind in kinds:
        for mu in _table_sweep(cfg, dom.points):
            checked += 1
            if not check_fuzzy_submonoid(mu, carrier, kind).holds:
                continue
            core = extract_core(mu, carrier)
            if not core_is_submonoid(core, carrier):
                counter.append(f"{kind_label}|{mu.name}")
    universe = (f"{len(cfg.alphabet) ** 3} membership tables on the 3-point "
                f"carrier, {universe_suffix}")
    return RowResult(row_id, universe, checked, counter)


def _row_prop16(cfg):
    kinds = [("agg:min", a_submonoid_kind(A_MIN))]
    return _core_row(cfg, "prop16", kinds, "min-aggregation combiner")


def _row_prop19(cfg):
    kinds = [(u.name, u_submonoid_kind(u)) for u in
             (construct_uninorm_min(HALF, T_P, S_P),
              construct_uninorm_max(HALF, T_P, S_P))]
    return _core_row(cfg, "prop19", kinds, "uninorm combiners")


def _row_prop23(cfg):
    f = construct_nullnorm(S_L, HALF, T_L)
    return _core_row(cfg, "prop23", [(f.name, f_submonoid_kind(f))],
                     "nullnorm combiner")


def _characterization_row(cfg, row_id, case_id, conn):
    dom = _grid3()
    counter = []
    checked = 0
    for mu in _table_sweep(cfg, dom.points):
        checked += 1
        if characterize_special_cases(case_id, mu, conn, dom).fails:
            counter.append(mu.name)
    universe = (f"{len(cfg.alphabet) ** 3} membership tables on the 3-point "
                f"grid against {conn.name}")
    return RowResult(row_id, universe, checked, counter)


def _row_prop17(cfg):
    return _characterization_row(cfg, "prop17", "prop17", A_MIN)


def _row_prop18(cfg):
    return _characterization_row(cfg, "prop18", "prop18", A_MIN)


def _row_prop20(cfg):
    u = construct_uninorm_min(HALF, T_P, S_M)
    return _characterization_row(cfg, "prop20", "prop20", u)


def _row_prop24(cfg):
    f = construct_nullnorm(S_L, HALF, T_L)
    return _characterization_row(cfg, "prop24", "prop24", f)


def _row_prop25(cfg):
    f = construct_nullnorm(S_L, HALF, T_M)
    return _characterization_row(cfg, "prop25", "prop25-tnorm", f)


def _row_prop25_tconorm(cfg):
    f = construct_nullnorm(S_L, HALF, T_M)
    return _characterization_row(cfg, "prop25-tconorm", "prop25-tconorm", f)


def _row_disjunctive(cfg):
    u = construct_uninorm_max(HALF, T_P, S_P)
    return _characterization_row(cfg, "thm-disjunctive-uninorm",
                                 "disjunctive-uninorm", u)


def _refutation_family():
    return uninorm_family((Fraction(1, 4), HALF, Fraction(3, 4)),
                          (T_P, T_L), (S_P, S_L))


def _row_prop21(cfg):
    dom = GridDomain(8)
    family = _refutation_family()
    counter = []
    checked = 0
    for carrier_conn in (T_P, T_L, T_M):
        checked += 1
        rep = refute_uninorm_existence(MU_ID, carrier_conn, family, dom)
        if not rep.holds:
            counter.append(carrier_conn.name)
    universe = f"{len(family)} uninorms x identity membership on t-norm carriers (grid n=8)"
    return RowResult("prop21", universe, checked, counter)


def _row_prop22(cfg):
    dom = GridDomain(8)
    family = _refutation_family()
    counter = []
    checked = 0
    for carrier_conn in (S_P, S_L, S_M):
        checked += 1
        rep = refute_uninorm_existence(MU_COMPLEMENT, carrier_conn, family, dom)
        if not rep.holds:
            counter.append(carrier_conn.name)
    universe = f"{len(family)} uninorms x complement membership on t-conorm carriers (grid n=8)"
    return RowResult("prop22", universe, checked, counter)


def _row_uninorm_structure(cfg):
    dom = GridDomain(8)
    family = _refutation_family()
    counter = []
    checked = 0
    for member in family:
        checked += 1
        ax = check_axioms(member, dom)
        cls = classify_uninorm(member, dom)
        want = "conjunctive" if ":umin(" in member.name else "disjunctive"
        if not (ax.holds and cls.holds and cls.details.get(want) is True):
            counter.append(member.name)
    universe = f"{len(family)} constructed uninorms, axioms plus classification (grid n=8)"
    return RowResult("thm-uninorm-structure", universe, checked, counter)


def _row_vague_commutativity(cfg):
    counter = []
    checked = 0
    for v in _vague_corpus(cfg):
        checked += 1
        if not check_vague_commutativity(v).holds:
            counter.append(v.base.label)
    universe = "induced vague operators over the grid corpus"
    return RowResult("prop-vague-commutativity", universe, checked, counter)


def _row_vague_group(cfg):
    counter = []
    checked = 0
    for n in (3, 4):
        checked += 1
        v = crisp_vague_group(cyclic_group(n))
        if not check_vague_group_cancellation(v).holds:
            counter.append(f"Z{n}")
    universe = "crisp vague groups over Z3 and Z4"
    return RowResult("prop-vague-group-cancellation", universe, checked, counter)


def _row_intersection(cfg):
    dom = _grid3()
    carrier = CarrierMonoid.from_connective(T_M, dom)
    groupoids = [mu for mu in _table_sweep(cfg, dom.points)
                 if check_fuzzy_subgroupoid(mu, carrier).holds]
    counter = []
    checked = 0
    for i, a in enumerate(groupoids):
        for b in groupoids[i:]:
            checked += 1
            inter = intersect_fuzzy_subsets([a, b])
            if not check_fuzzy_subgroupoid(inter, carrier).holds:
                counter.append(f"{a.name}&{b.name}")
    universe = f"pairwise intersections of {len(groupoids)} fuzzy subgroupoids on the 3-point carrier"
    return RowResult("prop-intersection", universe, checked, counter)


def _row_unique_mu_id(cfg):
    dom = GridDomain(cfg.grid)
    counter = []
    checked = 0
    for conn, expect in ((T_M, True), (T_P, False), (T_L, False), (T_D, False)):
        checked += 1
        carrier = CarrierMonoid.from_connective(conn, dom)
        got = check_fuzzy_submonoid(MU_ID, carrier, KIND_T_SUBNORM).holds
        if got != expect:
            counter.append(conn.name)
    universe = f"identity membership against the four builtins (grid n={cfg.grid})"
    return RowResult("example-unique-mu-id", universe, checked, counter)


def _row_l22_uninorm(cfg):
    pts = mixed_grid_points(HALF, 2, 2)
    u = construct_uninorm_min(HALF, T_L, S_L)
    rep = check_discrete_subalgebra(pts, u)
    counter = [] if rep.holds else [u.name]
    return RowResult("example-L22-uninorm",
                     f"closure of the 5 mixed grid points under {u.name}", 1, counter)


def _row_l22_nullnorm(cfg):
    pts = mixed_grid_points(HALF, 2, 2)
    f = construct_nullnorm(S_L, HALF, T_L)
    rep = check_discrete_subalgebra(pts, f)
    counter = [] if rep.holds else [f.name]
    return RowResult("example-L22-nullnorm",
                     f"closure of the 5 mixed grid points under {f.name}", 1, counter)


def _row_archimedean_vs_limit(cfg):
    # informational: records which builtins pass which searches
    dom = GridDomain(cfg.grid)
    notes = {}
    for conn in BUILTIN_TNORMS:
        a = check_archimedean(conn, dom, cfg.budget)
        l = check_limit_property(conn, dom, cfg.budget)
        notes[conn.name] = {"archimedean": a.verdict.value,
                            "limit-property": l.verdict.value}
    return RowResult("note-archimedean-vs-limit",
                     f"the four builtins at grid n={cfg.grid}",
                     len(BUILTIN_TNORMS), [], notes=notes)


ROWS: dict = {
    "prop3.6": _row_prop36,
    "prop3.7": _row_prop37,
    "prop3.8": _row_prop38,
    "prop3.9": _row_prop39,
    "prop12": _row_prop12,
    "prop13": _row_prop13,
    "prop14": _row_prop14,
    "prop15": _row_prop15,
    "prop16": _row_prop16,
    "prop17": _row_prop17,
    "prop18": _row_prop18,
    "prop19": _row_prop19,
    "prop20": _row_prop20,
    "prop21": _row_prop21,
    "prop22": _row_prop22,
    "prop23": _row_prop23,
    "prop24": _row_prop24,
    "prop25": _row_prop25,
    "prop25-tconorm": _row_prop25_tconorm,
    "thm-disjunctive-uninorm": _row_disjunctive,
    "thm-uninorm-structure": _row_uninorm_structure,
    "prop-vague-commutativity": _row_vague_commutativity,
    "prop-vague-group-cancellation": _row_vague_group,
    "prop-intersection": _row_intersection,
    "example-unique-mu-id": _row_unique_mu_id,
    "example-L22-uninorm": _row_l22_uninorm,
    "example-L22-nullnorm": _row_l22_nullnorm,
    "note-archimedean-vs-limit": _row_archimedean_vs_limit,
}


def _run_row(row_id: str, cfg: SuiteConfig) -> RowResult:
    fn = ROWS[row_id]
    start = time.monotonic()
    try:
        result = fn(cfg)
    except BudgetExceededError as exc:
        result = RowResult(row_id, "", 0, [], skipped=True, skip_reason=str(exc))
    result.elapsed = time.monotonic() - start
    return result


def _run_row_star(args) -> RowResult:
    return _run_row(*args)


@dataclass
class SuiteResult:
    config: SuiteConfig
    rows: list

    @property
    def total_counterexamples(self) -> int:
        return sum(len(r.counterexamples) for r in self.rows)

    @property
    def any_skipped(self) -> bool:
        return any(r.skipped for r in self.rows)

    def to_json(self) -> dict:
        return {
            "grid": self.config.grid,
            "budget": self.config.budget.to_json(),
            "rows": [r.to_json() for r in self.rows],
            "total_counterexamples": self.total_counterexamples,
        }

    def render_text(self) -> str:
        header = f"{'row':<32} {'checked':>8} {'counterexamples':>16} {'time':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            if r.skipped:
                lines.append(f"{r.row_id:<32} {'SKIPPED':>8} {'-':>16} {'-':>8}")
                lines.append(f"  reason: {r.skip_reason}")
                continue
            lines.append(f"{r.row_id:<32} {r.checked:>8} "
                         f"{len(r.counterexamples):>16} {r.elapsed:>7.2f}s")
            for c in sorted(r.counterexamples):
                lines.append(f"  counterexample: {c}")
        lines.append("-" * len(header))
        lines.append(f"total counterexamples: {self.total_counterexamples}")
        return "\n".join(lines)


def run_suite(config: Optional[SuiteConfig] = None,
              only: Optional[Sequence[str]] = None, jobs: int = 1) -> SuiteResult:
    config = config or SuiteConfig()
    if only:
        unknown = [r for r in only if r not in ROWS]
        if unknown:
            raise DomainError(f"unknown suite rows: {', '.join(unknown)}")
        selected = [r for r in ROWS if r in set(only)]
    else:
        selected = list(ROWS)
    if jobs > 1 and len(selected) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_row_star,
                                    [(row_id, config) for row_id in selected]))
    else:
        results = [_run_row(row_id, config) for row_id in selected]
    return SuiteResult(config, results)
