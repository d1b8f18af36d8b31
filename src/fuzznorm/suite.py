"""The proposition sweep: every claim the checkers mechanize, one row each.

Each row streams its universe exhaustively as labelled cases, and one
loop counts them and the counterexamples among them; a clean run reports
zero everywhere. The t-subnorm rows of chains and lattices share one case
stream over (t-norm, degree order) sweeps; the aggregation, uninorm and
nullnorm rows are one row function over a table of characterization
cases. A row reads only the verdicts of its checks, so ``_run_row`` runs
it in the verdict-only mode (``reports.verdict_only``): a witness loop
stops at its first witness. Rows are pure functions of the configuration,
so they fan out across processes and merge in order; wall time shows in
text output only, keeping the JSON byte-stable. A row imports the layers
it runs when it runs, so importing the suite loads only the checker layer.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Optional, Sequence

from . import checker, reports
from .checker import FuzzyProp
from .connectives import (A_MIN, BUILTIN_TNORMS, S_L, S_M, S_P, T_D, T_L, T_M,
                          T_P, construct_nullnorm, construct_uninorm_max,
                          construct_uninorm_min)
from .errors import BudgetExceededError, DomainError
from .reports import READINGS, FinitePoints, GridDomain, SearchBudget
from .scalars import ONE, UNIT_INTERVAL, ZERO
from .subsets import (MU_COMPLEMENT, MU_ID, MU_ONE, MU_ZERO, closure_holds,
                      enumerate_table_subsets, generate_subnorm_tables,
                      step_subset)

HALF = Fraction(1, 2)
DEFAULT_ALPHABET = (ZERO, HALF, ONE)


class SuiteConfig(NamedTuple):
    grid: int = 6
    budget: SearchBudget = SearchBudget()
    alphabet: tuple = DEFAULT_ALPHABET


class RowResult:
    def __init__(self, row_id: str, universe: str, checked: int,
                 counterexamples: list, skipped: bool = False,
                 skip_reason: str = "", notes: Optional[dict] = None,
                 elapsed: float = 0.0):
        self.row_id, self.universe, self.checked = row_id, universe, checked
        self.counterexamples = counterexamples
        self.skipped, self.skip_reason = skipped, skip_reason
        self.notes = {} if notes is None else notes
        self.elapsed = elapsed

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


def _count(row_id: str, universe: str, cases,
           checked: Optional[int] = None) -> RowResult:
    """Run a row's lazy stream of (label, holds) cases: the label of every
    case that does not hold is a counterexample. Every case counts as
    checked, unless ``checked`` gives the size of the row's universe: a
    row whose stream leaves out the cases that hold vacuously (membership
    maps that are not t-subnorms) counts them arithmetically."""
    streamed = 0
    counter = []
    for label, holds in cases:
        streamed += 1
        if not holds:
            counter.append(label)
    return RowResult(row_id, universe,
                     streamed if checked is None else checked, counter)


def _grid3() -> FinitePoints:
    from . import tables
    return FinitePoints(tables.uniform_chain(3))


def _table_sweep(cfg: SuiteConfig, points) -> list:
    return list(enumerate_table_subsets(points, cfg.alphabet))


def _chain_sweeps(cfg: SuiteConfig) -> tuple:
    """The t-norm tables on the 4-chain with the alphabet as degrees, and
    their universe."""
    from . import tables
    chain = tables.uniform_chain(4)
    sweeps = [(t.name, t.as_connective(), chain, UNIT_INTERVAL, cfg.alphabet)
              for t in tables.enumerate_chain_tnorm_tables(chain)]
    return sweeps, (f"{len(sweeps)} t-norm tables on the 4-chain x "
                    f"{len(cfg.alphabet) ** len(chain)} membership tables")


def _lattice_sweeps(cfg: SuiteConfig) -> tuple:
    """The t-norms on chains 2-4 and the diamond with the elements as
    degrees, and their universe."""
    from . import lattice
    sweeps = [(f"{lat.name}|{t.name}", t, lat.elements, lat, lat.elements)
              for lat in (lattice.chain_lattice(2), lattice.chain_lattice(3),
                          lattice.chain_lattice(4), lattice.diamond_lattice())
              for t in lattice.enumerate_lattice_tnorms(lat)]
    return sweeps, (f"{len(sweeps)} lattice t-norms on chains 2-4 and the "
                    "diamond x all lattice-valued membership maps")


def _property_check(cfg: SuiteConfig, tnorm, points, order):
    """(mu, prop) -> whether the bare fuzzified property holds."""
    from . import fuzzy, lattice
    if order is UNIT_INTERVAL:
        dom = FinitePoints(points)
        return lambda mu, prop: fuzzy.check_fuzzy_property(
            mu, tnorm, prop, dom, cfg.budget, gate=False).holds
    return lambda mu, prop: lattice.check_lattice_fuzzy_property(
        mu, tnorm, prop, gate=False).holds


def _subnorm_cases(cfg: SuiteConfig, sweeps, premise: FuzzyProp,
                   conclusion: Optional[FuzzyProp]):
    """One case per sweep (label, t-norm, points, degree order, degrees)
    and t-subnorm of the t-norm from the points to the degrees, generated
    rather than filtered: it holds when the map lacks property ``premise``
    or has ``conclusion`` (None: never). The claims hold vacuously on the
    other maps, which _checked counts."""
    for label, tnorm, points, order, degrees in sweeps:
        holds = _property_check(cfg, tnorm, points, order)
        for mu in generate_subnorm_tables(points, tnorm, order.top, degrees,
                                          order):
            yield (f"{label}|{mu.name}", not holds(mu, premise)
                   or (conclusion is not None and holds(mu, conclusion)))


def _checked(sweeps) -> int:
    return sum(len(degrees) ** len(points) for _, _, points, _, degrees in sweeps)


def _implication_row(row_id: str, family, premise: FuzzyProp,
                     conclusion: FuzzyProp, cfg: SuiteConfig) -> RowResult:
    sweeps, universe = family(cfg)
    return _count(row_id, universe,
                  _subnorm_cases(cfg, sweeps, premise, conclusion),
                  _checked(sweeps))


def _builtin_mu_forms():
    return (MU_ID, MU_ONE, MU_ZERO, MU_COMPLEMENT, step_subset(HALF))


def _row_prop38(cfg):
    # strictly monotone operator: no strictly decreasing t-subnorm
    from . import fuzzy
    dom = GridDomain(cfg.grid)
    cases = ((f"{T_P.name}|{mu.name}",
              not fuzzy.check_not_strictly_decreasing(mu, T_P, dom).fails)
             for mu in _builtin_mu_forms())
    universe = f"strictly monotone builtins x builtin membership forms (grid n={cfg.grid})"
    return _count("prop3.8", universe, cases)


def _row_prop39(cfg):
    # non-strict operator: no fuzzy strictly monotone t-subnorm at all
    from . import fuzzy
    sweeps, _ = _chain_sweeps(cfg)
    non_strict = [s for s in sweeps if not checker.check_strict_monotonicity(
        s[1], FinitePoints(s[2])).holds]
    tables = _subnorm_cases(cfg, non_strict, FuzzyProp.FSTRICT, None)
    # the builtin forms are five fixed maps, so they go through the gate
    grid_dom = GridDomain(cfg.grid)
    conns, forms = (T_M, T_L, T_D), _builtin_mu_forms()
    builtins = ((f"{conn.name}|{mu.name}", not fuzzy.check_fuzzy_property(
                    mu, conn, FuzzyProp.FSTRICT, grid_dom, cfg.budget).holds)
                for conn in conns for mu in forms)
    universe = ("non-strict t-norm tables on the 4-chain x membership tables, "
                f"plus non-strict builtins at grid n={cfg.grid}")
    checked = _checked(non_strict) + len(conns) * len(forms)
    return _count("prop3.9", universe, itertools.chain(tables, builtins),
                  checked)


def _vague_corpus(cfg):
    return _vague_corpus_at(min(cfg.grid, 6))


@lru_cache(maxsize=None)
def _vague_corpus_at(resolution: int) -> tuple:
    # once a process: its rows share the validation and the degree orders
    from . import vague
    pts = GridDomain(resolution).points
    crisp, linear = vague.crisp_equality, vague.linear_equality
    return tuple(vague.induce_vague_tnorm(make_eq(pts, conn), conn)
                 for make_eq, conn in ((crisp, T_M), (crisp, T_P), (crisp, T_L),
                                       (linear, T_L), (linear, T_D)))


def _row_prop12(cfg):
    from . import vague
    cases = ((f"{v.base.label}|{reading}",
              not vague.check_vague_strict_monotone(v, reading).holds
              or not vague.check_vague_cancellation(v, reading).fails)
             for v in _vague_corpus(cfg) for reading in READINGS)
    universe = "induced vague operators over the grid corpus, both premise readings"
    return _count("prop12", universe, cases)


def _row_prop15(cfg):
    from . import lattice
    lat = lattice.chain_lattice(3)
    pairs = [(t, eq_table) for t in lattice.enumerate_lattice_tnorms(lat)
             for eq_table in lattice.enumerate_lattice_equalities(lat, t)]
    induced = ((t, lattice.induce_lattice_vague_tnorm(eq_table, t))
               for t, eq_table in pairs)
    cases = ((f"{t.name}|{reading}",
              not lattice.check_lattice_vague_strict_monotone(mu, lat, reading).holds
              or not lattice.check_lattice_vague_cancellation(mu, lat, reading).fails)
             for t, mu in induced for reading in READINGS)
    universe = f"{len(pairs)} valid lattice equalities x 3-chain t-norms, both readings"
    return _count("prop15", universe, cases)


# row id -> (characterization case, its operators (built when the row
# runs), the universe after "membership tables on the 3-point " with {op}
# the first operator's name, the case label from {op} and {mu})
_CASE_ROWS = {
    "prop16": ("prop16", lambda: (A_MIN,),
               "carrier, min-aggregation combiner", "{op}|{mu}"),
    "prop17": ("prop17", lambda: (A_MIN,), "grid against {op}", "{mu}"),
    "prop18": ("prop18", lambda: (A_MIN,), "grid against {op}", "{mu}"),
    "prop19": ("prop19", lambda: (construct_uninorm_min(HALF, T_P, S_P),
                                  construct_uninorm_max(HALF, T_P, S_P)),
               "carrier, uninorm combiners", "{op}|{mu}"),
    "prop20": ("prop20", lambda: (construct_uninorm_min(HALF, T_P, S_M),),
               "grid against {op}", "{mu}"),
    "prop23": ("prop23", lambda: (construct_nullnorm(S_L, HALF, T_L),),
               "carrier, nullnorm combiner", "{op}|{mu}"),
    "prop24": ("prop24", lambda: (construct_nullnorm(S_L, HALF, T_L),),
               "grid against {op}", "{mu}"),
    "prop25": ("prop25-tnorm", lambda: (construct_nullnorm(S_L, HALF, T_M),),
               "grid against {op}", "{mu}"),
    "prop25-tconorm": ("prop25-tconorm",
                       lambda: (construct_nullnorm(S_L, HALF, T_M),),
                       "grid against {op}", "{mu}"),
    "thm-disjunctive-uninorm": ("disjunctive-uninorm",
                                lambda: (construct_uninorm_max(HALF, T_P, S_P),),
                                "grid against {op}", "{mu}"),
}


def _case_row(row_id: str, cfg: SuiteConfig) -> RowResult:
    """The row's characterization case for each of its operators and each
    membership table on the 3-point grid; each operator is validated for
    the case once."""
    from . import fuzzy
    case_id, operators, universe, label = _CASE_ROWS[row_id]
    dom = _grid3()
    conns = operators()
    checkers = [(conn, fuzzy.case_checker(case_id, conn, dom)) for conn in conns]
    cases = ((label.format(op=conn.name, mu=mu.name), not characterize(mu).fails)
             for conn, characterize in checkers
             for mu in _table_sweep(cfg, dom.points))
    return _count(row_id, f"{len(cfg.alphabet) ** 3} membership tables on the "
                  f"3-point {universe.format(op=conns[0].name)}", cases)


def _refutation_family():
    from . import fuzzy
    return fuzzy.uninorm_family((Fraction(1, 4), HALF, Fraction(3, 4)),
                                (T_P, T_L), (S_P, S_L))


def _refutation_row(row_id, mu, carriers, what, cfg):
    from . import fuzzy
    dom = GridDomain(8)
    family = _refutation_family()
    cases = ((c.name, fuzzy.refute_uninorm_existence(mu, c, family, dom).holds)
             for c in carriers)
    return _count(row_id, f"{len(family)} uninorms x {what} (grid n=8)", cases)


def _is_expected_uninorm(member, dom) -> bool:
    # both checks run for every member
    ax = checker.check_axioms(member, dom)
    cls = checker.classify_uninorm(member, dom)
    want = "conjunctive" if ":umin(" in member.name else "disjunctive"
    return ax.holds and cls.holds and cls.details.get(want) is True


def _row_uninorm_structure(cfg):
    dom = GridDomain(8)
    family = _refutation_family()
    cases = ((m.name, _is_expected_uninorm(m, dom)) for m in family)
    universe = f"{len(family)} constructed uninorms, axioms plus classification (grid n=8)"
    return _count("thm-uninorm-structure", universe, cases)


def _row_vague_commutativity(cfg):
    from . import vague
    cases = ((v.base.label, vague.check_vague_commutativity(v).holds)
             for v in _vague_corpus(cfg))
    universe = "induced vague operators over the grid corpus"
    return _count("prop-vague-commutativity", universe, cases)


def _row_vague_group(cfg):
    from . import carriers, vague
    cases = ((f"Z{n}", vague.check_vague_group_cancellation(
                 vague.crisp_vague_group(carriers.cyclic_group(n))).holds)
             for n in (3, 4))
    return _count("prop-vague-group-cancellation",
                  "crisp vague groups over Z3 and Z4", cases)


def _row_intersection(cfg):
    from . import carriers, fuzzy
    dom = _grid3()
    carrier = carriers.CarrierMonoid.from_connective(T_M, dom)
    groupoids = [mu for mu in _table_sweep(cfg, dom.points)
                 if fuzzy.check_fuzzy_subgroupoid(mu, carrier).holds]
    # a pair is decided on the meet of its alphabet ids, each meet once
    holds = lru_cache(maxsize=None)(lambda ids, order: closure_holds(
        ids, carrier.table, order))
    cases = ((f"{a.name}&{b.name}", holds(
                 tuple(map(a.fn.order.meet, a.fn.ids, b.fn.ids)), a.fn.order))
             for i, a in enumerate(groupoids) for b in groupoids[i:])
    universe = f"pairwise intersections of {len(groupoids)} fuzzy subgroupoids on the 3-point carrier"
    return _count("prop-intersection", universe, cases)


def _row_unique_mu_id(cfg):
    from . import carriers, fuzzy
    dom = GridDomain(cfg.grid)
    cases = ((conn.name, fuzzy.check_fuzzy_submonoid(
                 MU_ID, carriers.CarrierMonoid.from_connective(conn, dom),
                 fuzzy.KIND_T_SUBNORM).holds == expect)
             for conn, expect in ((T_M, True), (T_P, False), (T_L, False),
                                  (T_D, False)))
    universe = f"identity membership against the four builtins (grid n={cfg.grid})"
    return _count("example-unique-mu-id", universe, cases)


def _l22_row(row_id, build, cfg):
    from . import fuzzy, tables
    op = build()  # built when the row runs
    rep = fuzzy.check_discrete_subalgebra(tables.mixed_grid_points(HALF, 2, 2), op)
    return _count(row_id, f"closure of the 5 mixed grid points under {op.name}",
                  [(op.name, rep.holds)])


def _row_archimedean_vs_limit(cfg):
    # informational: records which builtins pass which searches
    dom = GridDomain(cfg.grid)
    notes = {}
    for conn in BUILTIN_TNORMS:
        a = checker.check_archimedean(conn, dom, cfg.budget)
        l = checker.check_limit_property(conn, dom, cfg.budget)
        notes[conn.name] = {"archimedean": a.verdict.value,
                            "limit-property": l.verdict.value}
    return RowResult("note-archimedean-vs-limit",
                     f"the four builtins at grid n={cfg.grid}",
                     len(BUILTIN_TNORMS), [], notes=notes)


ROWS: dict = {
    "prop3.6": partial(_implication_row, "prop3.6", _chain_sweeps,
                       FuzzyProp.FSTRICT, FuzzyProp.FCANCEL),
    "prop3.7": partial(_implication_row, "prop3.7", _chain_sweeps,
                       FuzzyProp.FCANCEL, FuzzyProp.FCONDCANCEL),
    "prop3.8": _row_prop38,
    "prop3.9": _row_prop39,
    "prop12": _row_prop12,
    "prop13": partial(_implication_row, "prop13", _lattice_sweeps,
                      FuzzyProp.FSTRICT, FuzzyProp.FCANCEL),
    "prop14": partial(_implication_row, "prop14", _lattice_sweeps,
                      FuzzyProp.FCANCEL, FuzzyProp.FCONDCANCEL),
    "prop15": _row_prop15,
    "prop16": partial(_case_row, "prop16"),
    "prop17": partial(_case_row, "prop17"),
    "prop18": partial(_case_row, "prop18"),
    "prop19": partial(_case_row, "prop19"),
    "prop20": partial(_case_row, "prop20"),
    "prop21": partial(_refutation_row, "prop21", MU_ID, (T_P, T_L, T_M),
                      "identity membership on t-norm carriers"),
    "prop22": partial(_refutation_row, "prop22", MU_COMPLEMENT, (S_P, S_L, S_M),
                      "complement membership on t-conorm carriers"),
    "prop23": partial(_case_row, "prop23"),
    "prop24": partial(_case_row, "prop24"),
    "prop25": partial(_case_row, "prop25"),
    "prop25-tconorm": partial(_case_row, "prop25-tconorm"),
    "thm-disjunctive-uninorm": partial(_case_row, "thm-disjunctive-uninorm"),
    "thm-uninorm-structure": _row_uninorm_structure,
    "prop-vague-commutativity": _row_vague_commutativity,
    "prop-vague-group-cancellation": _row_vague_group,
    "prop-intersection": _row_intersection,
    "example-unique-mu-id": _row_unique_mu_id,
    "example-L22-uninorm": partial(_l22_row, "example-L22-uninorm", partial(
        construct_uninorm_min, HALF, T_L, S_L)),
    "example-L22-nullnorm": partial(_l22_row, "example-L22-nullnorm", partial(
        construct_nullnorm, S_L, HALF, T_L)),
    "note-archimedean-vs-limit": _row_archimedean_vs_limit,
}


def _run_row(row_id: str, cfg: SuiteConfig) -> RowResult:
    fn = ROWS[row_id]
    start = time.monotonic()
    reports.verdict_only = True
    try:
        result = fn(cfg)
    except BudgetExceededError as exc:
        result = RowResult(row_id, "", 0, [], skipped=True, skip_reason=str(exc))
    finally:
        reports.verdict_only = False
    result.elapsed = time.monotonic() - start
    return result


class SuiteResult:
    def __init__(self, config: SuiteConfig, rows: list):
        self.config, self.rows = config, rows

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
    if only is not None:
        unknown = [r for r in only if r not in ROWS]
        if unknown:
            raise DomainError(f"unknown suite rows: {', '.join(unknown)}")
        if not only:  # an empty list would check nothing
            raise DomainError("no suite rows selected")
        selected = [r for r in ROWS if r in set(only)]
    else:
        selected = list(ROWS)
    if jobs > 1 and len(selected) > 1:
        # imported here: the process pool costs every serial run about
        # 2.5 MB of resident memory and its import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(selected))) as pool:
            results = list(pool.map(_run_row, selected,
                                    itertools.repeat(config)))
    else:
        results = [_run_row(row_id, config) for row_id in selected]
    return SuiteResult(config, results)
