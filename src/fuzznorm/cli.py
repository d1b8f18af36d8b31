"""Command-line front end.

Every subcommand delegates to a library operation and only assembles
output; exit codes are a pure function of the merged verdicts:

  0  every verdict HOLDS_ON_DOMAIN
  1  at least one FAILS (or suite counterexamples)
  2  no failures but at least one VACUOUS or skipped entry
  64 unusable configuration or input file (diagnostic on stderr)
  65 membership map not total on the carrier
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lattice as lat_mod
from .carriers import CarrierMonoid, FiniteGroup, load_carrier
from .checker import (check_archimedean, check_axioms, check_cancellation,
                      check_limit_property, check_strict_monotonicity,
                      classify_uninorm)
from .connectives import Role, parse_operator
from .errors import (BudgetExceededError, DomainError, FuzznormError,
                     InputFormatError, TotalityError, UnknownOperatorError,
                     read_json_object)
from .fuzzy import (FuzzyProp, KIND_SUBGROUPOID, KIND_SUBMONOID,
                    KIND_T_SUBCONORM, KIND_T_SUBNORM, a_submonoid_kind,
                    check_fuzzy_subgroup, check_fuzzy_subgroupoid,
                    check_fuzzy_submonoid, f_submonoid_kind, u_submonoid_kind)
from .reports import GridDomain, SearchBudget, Verdict, dumps, verdict_meet
from .scalars import parse_rational
from .subsets import parse_subset_spec
from .suite import SuiteConfig, run_suite
from .vague import (READINGS, VagueTNorm, _crisp_fn, _linear_fn,
                    check_vague_binary_op,
                    check_vague_cancellation, check_vague_commutativity,
                    check_vague_monoid, check_vague_strict_monotone,
                    equality_from_json, induce_vague_tnorm,
                    make_fuzzy_equality, vague_table_from_json)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_VACUOUS = 2
EXIT_CONFIG = 64
EXIT_NOT_TOTAL = 65

BUDGET_ENV = "FUZZNORM_BUDGET_OVERRIDE"

# triple-nested checks default to a coarse grid, pairwise ones to a fine one
PROP_DEFAULT_GRID = {
    "axioms": 10,
    "strict-monotonicity": 10,
    "cancellation": 10,
    "conditional-cancellation": 10,
    "archimedean": 100,
    "limit": 100,
    "classify": 100,
}

CHECK_PROPS = tuple(PROP_DEFAULT_GRID)


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", type=int, default=None,
                        help="grid resolution n (points are i/n)")
    parser.add_argument("--nmax", type=int, default=None,
                        help="cap for the power-exponent search")
    parser.add_argument("--iter-cap", type=int, default=None,
                        help="cap for limit iterations")
    parser.add_argument("--epsilon", type=str, default=None,
                        help="convergence threshold, as p/q")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report here instead of stdout")


def _env_overrides() -> dict:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return {}
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON in {BUDGET_ENV}: {exc.msg}",
                              line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise InputFormatError(f"{BUDGET_ENV} must hold a JSON object")
    return obj


def _env_int(env: dict, key: str, fallback: int) -> int:
    """``env[key]`` as an int: a JSON integer or a string of one."""
    value = env.get(key, fallback)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputFormatError(f"{BUDGET_ENV} needs an integer, got {value!r}",
                          field=key)


def _resolve_budget(args) -> SearchBudget:
    env = _env_overrides()
    n_max = args.nmax if args.nmax is not None else _env_int(env, "n_max", 64)
    iter_cap = (args.iter_cap if args.iter_cap is not None
                else _env_int(env, "iter_cap", 128))
    eps_text = args.epsilon if args.epsilon is not None else env.get("epsilon", "1/1024")
    try:
        epsilon = parse_rational(str(eps_text))
    except ValueError as exc:
        raise InputFormatError(str(exc), field="epsilon") from None
    return SearchBudget(n_max=n_max, iter_cap=iter_cap, epsilon=epsilon)


def _resolve_grid(args, fallback: int) -> int:
    if args.grid is not None:
        return args.grid
    return _env_int(_env_overrides(), "grid", fallback)


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _exit_code(reports) -> int:
    verdicts = [r.verdict for r in reports]
    merged = verdict_meet(verdicts)
    if merged is Verdict.FAILS:
        return EXIT_FAILS
    if merged is Verdict.VACUOUS:
        return EXIT_VACUOUS
    return EXIT_OK


def _emit_reports(args, header: dict, reports) -> int:
    if args.format == "json":
        payload = dumps({**header, "reports": [r.to_json() for r in reports]})
    else:
        lines = [f"{k}: {v}" for k, v in header.items()]
        lines += [r.render_text() for r in reports]
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    return _exit_code(reports)


# --- check ---

def _cmd_check(args) -> int:
    conn = parse_operator(args.operator)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    unknown = [p for p in props if p not in CHECK_PROPS]
    if unknown:
        raise UnknownOperatorError(
            f"unknown property ids: {', '.join(unknown)} "
            f"(choose from {', '.join(CHECK_PROPS)})")
    budget = _resolve_budget(args)
    reports = []
    for prop in props:
        domain = GridDomain(_resolve_grid(args, PROP_DEFAULT_GRID[prop]))
        if prop == "axioms":
            reports.append(check_axioms(conn, domain))
        elif prop == "strict-monotonicity":
            reports.append(check_strict_monotonicity(conn, domain))
        elif prop == "cancellation":
            reports.append(check_cancellation(conn, domain))
        elif prop == "conditional-cancellation":
            reports.append(check_cancellation(conn, domain, conditional=True))
        elif prop == "archimedean":
            reports.append(check_archimedean(conn, domain, budget))
        elif prop == "limit":
            reports.append(check_limit_property(conn, domain, budget))
        elif prop == "classify":
            reports.append(classify_uninorm(conn, domain))
    return _emit_reports(args, {"operator": conn.name}, reports)


# --- substructure ---

_KIND_CHOICES = ("subgroupoid", "submonoid", "subgroup", "t-subnorm",
                 "t-subconorm", "a-submonoid", "u-submonoid", "f-submonoid")


def _resolve_kind(args, carrier_conn):
    if args.kind == "subgroupoid":
        return KIND_SUBGROUPOID
    if args.kind == "submonoid":
        return KIND_SUBMONOID
    if args.kind == "t-subnorm":
        return KIND_T_SUBNORM
    if args.kind == "t-subconorm":
        return KIND_T_SUBCONORM
    combiner = parse_operator(args.combiner) if args.combiner else None
    if args.kind == "a-submonoid":
        from .connectives import A_MIN
        return a_submonoid_kind(combiner or A_MIN, args.arity_cap)
    if args.kind == "u-submonoid":
        if combiner is None:
            if carrier_conn is not None and carrier_conn.role is Role.UNINORM:
                combiner = carrier_conn
            else:
                raise DomainError("u-submonoid needs --combiner (a uninorm id)")
        return u_submonoid_kind(combiner)
    if args.kind == "f-submonoid":
        if combiner is None:
            if carrier_conn is not None and carrier_conn.role is Role.NULLNORM:
                combiner = carrier_conn
            else:
                raise DomainError("f-submonoid needs --combiner (a nullnorm id)")
        return f_submonoid_kind(combiner)
    raise DomainError(f"unknown kind {args.kind!r}")  # pragma: no cover


def _cmd_substructure(args) -> int:
    mu = parse_subset_spec(args.mu)
    carrier_conn = None
    if os.path.exists(args.carrier):
        carrier_table = load_carrier(args.carrier)
    else:
        carrier_conn = parse_operator(args.carrier)
        domain = GridDomain(_resolve_grid(args, 100))
        carrier_table = CarrierMonoid.from_connective(carrier_conn, domain)
    if args.kind == "subgroup":
        if carrier_conn is not None:
            raise DomainError("subgroup checks need a finite group carrier file")
        group = FiniteGroup.from_table(
            carrier_table.elements,
            {(a, b): carrier_table.op(a, b)
             for a in carrier_table.elements for b in carrier_table.elements},
            carrier_table.identity, label=carrier_table.label)
        report = check_fuzzy_subgroup(mu, group)
    else:
        kind = _resolve_kind(args, carrier_conn)
        if kind is KIND_SUBGROUPOID:
            report = check_fuzzy_subgroupoid(mu, carrier_table)
        else:
            report = check_fuzzy_submonoid(mu, carrier_table, kind)
    header = {"mu": mu.name, "carrier": carrier_table.label, "kind": args.kind}
    return _emit_reports(args, header, [report])


# --- vague ---

_VAGUE_CHECKS = ("equality", "vague-op", "monoid", "commutativity",
                 "strict-monotonicity", "cancellation")


def _resolve_equality(args, conn, pts):
    """Build the equality for a grid: a builtin form or an arity-2 table
    file, with its validation report as ``report``."""
    builtin = {"crisp": _crisp_fn, "linear": _linear_fn}.get(args.equality)
    if builtin is not None:
        return make_fuzzy_equality(args.equality, builtin, conn, pts,
                                   require_valid=False)
    return equality_from_json(read_json_object(args.equality), conn,
                              path=args.equality, require_valid=False)


def _cmd_vague(args) -> int:
    conn = parse_operator(args.tnorm)
    if conn.role is not Role.TNORM:
        raise DomainError(f"--tnorm must name a t-norm, got {conn.name}")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in _VAGUE_CHECKS]
    if unknown:
        raise UnknownOperatorError(
            f"unknown vague checks: {', '.join(unknown)} "
            f"(choose from {', '.join(_VAGUE_CHECKS)})")
    pair_grid = _resolve_grid(args, 6)
    # the 7-tuple associativity loop gets its own, coarser default
    monoid_grid = _resolve_grid(args, 4)
    pair_pts = GridDomain(pair_grid).points
    eq = _resolve_equality(args, conn, pair_pts)
    reports = []
    if "equality" in checks:
        reports.append(eq.report)
    needs_op = [c for c in checks if c != "equality"]
    if needs_op:
        if not eq.validated:
            if "equality" not in checks:
                reports.append(eq.report)
            return _emit_reports(args, {"equality": eq.label,
                                        "tnorm": conn.name}, reports)
        if args.mu_table:
            base = vague_table_from_json(read_json_object(args.mu_table), eq,
                                         path=args.mu_table)
            v = VagueTNorm(base, conn)
        else:
            v = induce_vague_tnorm(eq, conn)
        for check in needs_op:
            if check == "vague-op":
                reports.append(check_vague_binary_op(v.base))
            elif check == "monoid":
                if args.mu_table or args.equality not in ("crisp", "linear"):
                    reports.append(check_vague_monoid(v.base))
                else:
                    monoid_pts = GridDomain(monoid_grid).points
                    vm_eq = _resolve_equality(args, conn, monoid_pts)
                    vm = induce_vague_tnorm(vm_eq, conn)
                    reports.append(check_vague_monoid(vm.base))
            elif check == "commutativity":
                reports.append(check_vague_commutativity(v))
            elif check == "strict-monotonicity":
                reports.append(check_vague_strict_monotone(v, args.reading))
            elif check == "cancellation":
                reports.append(check_vague_cancellation(v, args.reading))
    header = {"equality": eq.label, "tnorm": conn.name,
              "reading": args.reading}
    return _emit_reports(args, header, reports)


# --- lattice ---

def _chain_size(spec: str):
    """N for a chain:N spec, None for any other spec."""
    if not spec.startswith("chain:"):
        return None
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise DomainError(f"bad chain size in {spec!r}") from None


def _parse_lattice_spec(spec: str):
    if spec == "diamond":
        return lat_mod.diamond_lattice()
    size = _chain_size(spec)
    if size is not None:
        return lat_mod.chain_lattice(size)
    return lat_mod.load_lattice(spec)


def _parse_lattice_tnorm(spec: str, lattice):
    if spec == "meet":
        return lat_mod.meet_tnorm(lattice)
    if spec.startswith("index:"):
        try:
            idx = int(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad table index in {spec!r}") from None
        tables = lat_mod.enumerate_lattice_tnorms(lattice)
        if not 0 <= idx < len(tables):
            raise DomainError(
                f"index {idx} out of range; {lattice.name} has {len(tables)} t-norms")
        return tables[idx]
    raise DomainError(f"unknown lattice t-norm spec {spec!r} (use meet or index:K)")


def _parse_lsubset(spec: str, lattice):
    if spec == "identity":
        return lat_mod.lsubset_identity(lattice)
    if spec == "one":
        return lat_mod.lsubset_top(lattice)
    return lat_mod.load_lsubset(spec, lattice)


_LATTICE_PROPS = ("tnorm-axioms", "subnorm", "fstrict", "fcancel",
                  "fcondcancel", "farch", "flimit", "vague")

_LATTICE_PROP_MAP = {
    "fstrict": FuzzyProp.FSTRICT,
    "fcancel": FuzzyProp.FCANCEL,
    "fcondcancel": FuzzyProp.FCONDCANCEL,
    "farch": FuzzyProp.FARCH,
    "flimit": FuzzyProp.FLIMIT,
}


def _cmd_lattice(args) -> int:
    size = _chain_size(args.lattice)
    if size is not None and args.tnorm.startswith("index:"):
        lat_mod.check_enumeration_size(size)  # refuse before building it
    lattice = _parse_lattice_spec(args.lattice)
    tnorm = _parse_lattice_tnorm(args.tnorm, lattice)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    unknown = [p for p in props if p not in _LATTICE_PROPS]
    if unknown:
        raise UnknownOperatorError(
            f"unknown lattice props: {', '.join(unknown)} "
            f"(choose from {', '.join(_LATTICE_PROPS)})")
    mu = _parse_lsubset(args.mu, lattice)
    reports = []
    for prop in props:
        if prop == "tnorm-axioms":
            reports.append(lat_mod.check_lattice_tnorm(tnorm, lattice))
        elif prop == "subnorm":
            reports.append(lat_mod.check_lattice_fuzzy_subnorm(mu, tnorm))
        elif prop == "vague":
            reports.append(lat_mod.check_lattice_vague_structures(
                lat_mod.lattice_crisp_equality(lattice), tnorm, lattice))
        else:
            reports.append(lat_mod.check_lattice_fuzzy_property(
                mu, tnorm, _LATTICE_PROP_MAP[prop]))
    header = {"lattice": lattice.name, "tnorm": tnorm.name, "mu": mu.name}
    return _emit_reports(args, header, reports)


# --- enumerate ---

def _cmd_enumerate(args) -> int:
    size = _chain_size(args.lattice)
    if size is not None:  # refuse a long chain before building it
        lat_mod.check_enumeration_size(size)
    lattice = _parse_lattice_spec(args.lattice)
    tables = lat_mod.enumerate_lattice_tnorms(lattice, cap=args.cap)
    listing = []
    for t in tables:
        entries = [[x, y, t(x, y)] for x in lattice.elements
                   for y in lattice.elements]
        listing.append({"name": t.name, "entries": entries})
    payload_obj = {"lattice": lattice.to_json(), "count": len(tables),
                   "tables": listing}
    if args.format == "json":
        _emit(args, dumps(payload_obj))
    else:
        lines = [f"lattice: {lattice.name}", f"count: {len(tables)}"]
        for t in tables:
            lines.append(f"  {t.name}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# --- suite ---

def _cmd_suite(args) -> int:
    only = None
    if args.only:
        only = [r.strip() for r in args.only.split(",") if r.strip()]
    config = SuiteConfig(grid=_resolve_grid(args, 6), budget=_resolve_budget(args))
    result = run_suite(config, only=only, jobs=args.jobs)
    if args.format == "json":
        _emit(args, dumps(result.to_json()))
    else:
        _emit(args, result.render_text() + "\n")
    if result.total_counterexamples > 0:
        return EXIT_FAILS
    if result.any_skipped:
        return EXIT_VACUOUS
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzznorm",
        description="exhaustive desk-scale checks for unit-interval "
                    "connectives and their fuzzy substructures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="axiom and property checks for one operator")
    p.add_argument("operator", help="canonical operator id, e.g. tnorm:lukasiewicz")
    p.add_argument("--props", default="axioms",
                   help="comma-separated property ids")
    _add_shared_flags(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("substructure", help="fuzzy subset conditions on a carrier")
    p.add_argument("--mu", required=True,
                   help="builtin:<form> or a membership JSON file")
    p.add_argument("--carrier", required=True,
                   help="operator id or finite carrier JSON file")
    p.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p.add_argument("--combiner", default=None,
                   help="operator id replacing min (a-/u-/f-submonoid kinds)")
    p.add_argument("--arity-cap", type=int, default=3)
    _add_shared_flags(p)
    p.set_defaults(fn=_cmd_substructure)

    p = sub.add_parser("vague", help="degree-valued equality and operator checks")
    p.add_argument("--equality", default="linear",
                   help="crisp, linear, or an arity-2 table JSON file")
    p.add_argument("--tnorm", required=True)
    p.add_argument("--checks", default=",".join(_VAGUE_CHECKS))
    p.add_argument("--reading", choices=READINGS, default="any-degree")
    p.add_argument("--mu-table", default=None,
                   help="arity-3 degree table JSON file replacing the induced operator")
    _add_shared_flags(p)
    p.set_defaults(fn=_cmd_vague)

    p = sub.add_parser("lattice", help="lattice t-norm and L-subset checks")
    p.add_argument("--lattice", required=True,
                   help="chain:N, diamond, or a lattice JSON file")
    p.add_argument("--tnorm", default="meet", help="meet or index:K")
    p.add_argument("--mu", default="one", help="identity, one, or a JSON file")
    p.add_argument("--props", default="tnorm-axioms,subnorm")
    _add_shared_flags(p)
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("enumerate", help="list every t-norm table on a lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--cap", type=int, default=None)
    _add_shared_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("suite", help="run the full proposition sweep")
    p.add_argument("--all", action="store_true", default=False,
                   help="run every row (the default)")
    p.add_argument("--only", default=None,
                   help="comma-separated row ids to run")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers, one row each")
    _add_shared_flags(p)
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TotalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_TOTAL
    except BudgetExceededError as exc:
        print(f"skipped: {exc}", file=sys.stderr)
        return EXIT_VACUOUS
    except (InputFormatError, UnknownOperatorError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FuzznormError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
