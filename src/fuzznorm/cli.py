"""Command-line front end.

Every subcommand delegates to a library operation and only assembles
output; exit codes are a pure function of the merged verdicts:

  0  every verdict HOLDS_ON_DOMAIN
  1  at least one FAILS (or suite counterexamples)
  2  no failures but at least one VACUOUS or skipped entry
  64 unusable configuration or input file, or a usage error such as a
     flag the subcommand does not take (diagnostic on stderr)
  65 membership map not total on the carrier

Each subcommand takes ``--format``, ``--out`` and only those of
``--grid``, ``--nmax``, ``--iter-cap`` and ``--epsilon`` it reads; the
flags are the only configuration, and no environment variable is read. The
dicts that map ids to checks call each check through its defining
module, so a wrapper put on the name there sees the call. A handler
imports the modules it runs and hands them to its helpers and dicts,
so a ``check`` loads ``checker`` and what it imports, and no other layer.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import checker
from .connectives import A_MIN, Role, parse_operator
from .errors import (BudgetExceededError, DomainError, FuzznormError,
                     InputFormatError, TotalityError, UnknownOperatorError,
                     read_json_object)
from .reports import (READINGS, GridDomain, SearchBudget, Verdict, dump,
                      verdict_meet)
from .scalars import parse_rational
from .subsets import parse_subset_spec

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_VACUOUS = 2
EXIT_CONFIG = 64
EXIT_NOT_TOTAL = 65


def _resolve_budget(args) -> SearchBudget:
    """The search caps of ``--nmax``, ``--iter-cap`` and ``--epsilon``,
    whose parser defaults are the ``SearchBudget`` ones."""
    try:
        epsilon = parse_rational(args.epsilon)
    except ValueError as exc:
        raise InputFormatError(str(exc), field="epsilon") from None
    return SearchBudget(n_max=args.nmax, iter_cap=args.iter_cap, epsilon=epsilon)


def _resolve_grid(args, fallback: int) -> int:
    """``--grid``, else the command's default grid ``fallback``."""
    return fallback if args.grid is None else args.grid


def _pick(text: str, table: dict, what: str) -> list:
    """The ids of the comma list ``text``, each a key of ``table``."""
    ids = [p.strip() for p in text.split(",") if p.strip()]
    unknown = [p for p in ids if p not in table]
    if unknown or not ids:  # an empty list would check nothing and exit 0
        named = f"unknown {what}: {', '.join(unknown)}" if unknown else f"no {what}"
        raise UnknownOperatorError(f"{named} (choose from {', '.join(table)})")
    return ids


def _open_out(args):
    """``--out`` opened for writing, before any check runs, or stdout."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _emit(args, obj, text) -> None:
    """Write the JSON of ``obj()`` or the text ``text()`` to ``args.stream``."""
    try:
        if args.format == "json":
            dump(obj(), args.stream)
        else:
            args.stream.write(text() + "\n")
        args.stream.flush()
    except OSError as exc:  # a full disk, or a closed pipe on stdout
        raise DomainError(f"cannot write {args.out or 'stdout'}: {exc.strerror}") from None


def _exit_code(reports) -> int:
    merged = verdict_meet([r.verdict for r in reports])
    if merged is Verdict.FAILS:
        return EXIT_FAILS
    if merged is Verdict.VACUOUS:
        return EXIT_VACUOUS
    return EXIT_OK


def _emit_reports(args, header: dict, reports) -> int:
    _emit(args, lambda: {**header, "reports": [r.to_json() for r in reports]},
          lambda: "\n".join([f"{k}: {v}" for k, v in header.items()]
                            + [r.render_text() for r in reports]))
    return _exit_code(reports)


# --- check ---

# property id -> its default grid (coarse for the triple-nested checks,
# fine for the pairwise ones) and its check on (operator, domain, budget)
_CHECKS = {
    "axioms": (10, lambda conn, dom, budget: checker.check_axioms(conn, dom)),
    "strict-monotonicity": (10, lambda conn, dom, budget:
                            checker.check_strict_monotonicity(conn, dom)),
    "cancellation": (10, lambda conn, dom, budget:
                     checker.check_cancellation(conn, dom)),
    "conditional-cancellation": (10, lambda conn, dom, budget:
                                 checker.check_cancellation(
                                     conn, dom, conditional=True)),
    "archimedean": (100, lambda conn, dom, budget:
                    checker.check_archimedean(conn, dom, budget)),
    "limit": (100, lambda conn, dom, budget:
              checker.check_limit_property(conn, dom, budget)),
    "classify": (100, lambda conn, dom, budget:
                 checker.classify_uninorm(conn, dom)),
}


def _cmd_check(args) -> int:
    conn = parse_operator(args.operator)
    props = _pick(args.props, _CHECKS, "property ids")
    budget = _resolve_budget(args)
    reports = []
    for prop in props:
        grid, check = _CHECKS[prop]
        reports.append(check(conn, GridDomain(_resolve_grid(args, grid)), budget))
    return _emit_reports(args, {"operator": conn.name}, reports)


# --- substructure ---

# --kind -> the name of its fuzzy.SubstructureTag
_KINDS = {"subgroupoid": "SUBGROUPOID", "submonoid": "SUBMONOID",
          "subgroup": "SUBGROUP", "t-subnorm": "T_SUBNORM",
          "t-subconorm": "T_SUBCONORM", "a-submonoid": "A_SUBMONOID",
          "u-submonoid": "U_SUBMONOID", "f-submonoid": "F_SUBMONOID"}


def _kind_combiner(args, role, carrier_conn):
    """The combiner of a kind whose combiner role is ``role`` (None for a
    min-based kind): ``--combiner``, else min for an aggregation kind,
    else the carrier's operator ``carrier_conn`` (None for a carrier
    file) when it has ``role``."""
    if args.combiner:
        return parse_operator(args.combiner)
    if role is Role.AGGREGATION:
        return A_MIN
    return carrier_conn if getattr(carrier_conn, "role", None) is role else None


def _cmd_substructure(args) -> int:
    from . import carriers, fuzzy
    mu = parse_subset_spec(args.mu)
    carrier_conn = None
    if os.path.exists(args.carrier):
        carrier_table = carriers.load_carrier(args.carrier)
    else:
        carrier_conn = parse_operator(args.carrier)
        domain = GridDomain(_resolve_grid(args, 100))
    # the kind refuses a combiner of another role and a cap below 2, and
    # a refused kind builds no grid carrier
    tag = fuzzy.SubstructureTag[_KINDS[args.kind]]
    kind = fuzzy.SubstructureKind(tag, _kind_combiner(
        args, fuzzy._COMBINER_ROLE.get(tag), carrier_conn), args.arity_cap)
    if carrier_conn is not None:
        if kind.tag is fuzzy.SubstructureTag.SUBGROUP:
            raise DomainError("subgroup checks need a finite group carrier file")
        carrier_table = carriers.CarrierMonoid.from_connective(carrier_conn, domain)
    if kind.tag is fuzzy.SubstructureTag.SUBGROUP:
        report = fuzzy.check_fuzzy_subgroup(mu, carriers.FiniteGroup.of(carrier_table))
    elif kind.tag is fuzzy.SubstructureTag.SUBGROUPOID:
        report = fuzzy.check_fuzzy_subgroupoid(mu, carrier_table)
    else:
        report = fuzzy.check_fuzzy_submonoid(mu, carrier_table, kind)
    header = {"mu": mu.name, "carrier": carrier_table.label, "kind": args.kind}
    return _emit_reports(args, header, [report])


# --- vague ---

def _resolve_equality(vague, args, conn, pts):
    """Build the equality for a grid: a builtin form or an arity-2 table
    file, with its validation report as ``report``."""
    builtin = {"crisp": vague.crisp_equality,
               "linear": vague.linear_equality}.get(args.equality)
    if builtin is not None:
        return builtin(pts, conn)
    return vague.equality_from_json(read_json_object(args.equality), conn,
                                    path=args.equality)


def _vague_monoid(vague, v, args, conn):
    if (args.mu_table or args.equality not in ("crisp", "linear")
            or args.grid is not None):
        return vague.check_vague_monoid(v)
    # the 7-tuple associativity loop gets its own, coarser default grid
    eq = _resolve_equality(vague, args, conn, GridDomain(4).points)
    return vague.check_vague_monoid(vague.induce_vague_tnorm(eq, conn))


# check id -> its check on (the vague module, vague operator, arguments,
# t-norm); "equality" is the equality's own validation report
_VAGUE_CHECKS = {
    "equality": None,
    "vague-op": lambda vague, v, args, conn: vague.check_vague_binary_op(v),
    "monoid": _vague_monoid,
    "commutativity": lambda vague, v, args, conn:
        vague.check_vague_commutativity(v),
    "strict-monotonicity": lambda vague, v, args, conn:
        vague.check_vague_strict_monotone(v, args.reading),
    "cancellation": lambda vague, v, args, conn:
        vague.check_vague_cancellation(v, args.reading),
}


def _cmd_vague(args) -> int:
    from . import vague
    conn = parse_operator(args.tnorm)
    if conn.role is not Role.TNORM:
        raise DomainError(f"--tnorm must name a t-norm, got {conn.name}")
    checks = _pick(args.checks, _VAGUE_CHECKS, "vague checks")
    eq = _resolve_equality(vague, args, conn,
                           GridDomain(_resolve_grid(args, 6)).points)
    reports = [eq.report] if "equality" in checks else []
    needs_op = [c for c in checks if c != "equality"]
    if needs_op:
        if not eq.validated:
            if "equality" not in checks:
                reports.append(eq.report)
            return _emit_reports(args, {"equality": eq.label,
                                        "tnorm": conn.name}, reports)
        if args.mu_table:
            v = vague.vague_table_from_json(
                read_json_object(args.mu_table), eq, path=args.mu_table)
            v.underlying = conn
        else:
            v = vague.induce_vague_tnorm(eq, conn)
        reports += [_VAGUE_CHECKS[c](vague, v, args, conn) for c in needs_op]
    header = {"equality": eq.label, "tnorm": conn.name,
              "reading": args.reading}
    return _emit_reports(args, header, reports)


# --- lattice ---

def _spec_int(spec: str, what: str) -> int:
    """The integer after the colon of ``spec``."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise DomainError(f"bad {what} in {spec!r}") from None


def _parse_lattice_spec(lat_mod, spec: str, enumerated: bool):
    """A chain:N, diamond or file lattice; a chain whose t-norms are
    ``enumerated`` is refused by size before it is built."""
    if spec == "diamond":
        return lat_mod.diamond_lattice()
    if spec.startswith("chain:"):
        size = _spec_int(spec, "chain size")
        if enumerated:
            lat_mod.check_enumeration_size(size)
        return lat_mod.chain_lattice(size)
    return lat_mod.load_lattice(spec)


def _parse_lattice_tnorm(lat_mod, spec: str, lattice):
    if spec == "meet":
        return lat_mod.meet_tnorm(lattice)
    if spec.startswith("index:"):
        idx = _spec_int(spec, "table index")
        tables = lat_mod.enumerate_lattice_tnorms(lattice)
        if not 0 <= idx < len(tables):
            raise DomainError(
                f"index {idx} out of range; {lattice.name} has {len(tables)} t-norms")
        return tables[idx]
    raise DomainError(f"unknown lattice t-norm spec {spec!r} (use meet or index:K)")


def _parse_lsubset(lat_mod, spec: str, lattice):
    if spec == "identity":
        return lat_mod.lsubset_identity(lattice)
    if spec == "one":
        return lat_mod.lsubset_top(lattice)
    return lat_mod.load_lsubset(spec, lattice)


# prop id -> its check on (the lattice module, membership map, t-norm,
# lattice)
_LATTICE_PROPS = {
    "tnorm-axioms": lambda lat_mod, mu, t, lat:
        lat_mod.check_lattice_tnorm(t, lat),
    "subnorm": lambda lat_mod, mu, t, lat:
        lat_mod.check_lattice_fuzzy_subnorm(mu, t),
    **{prop.name.lower(): lambda lat_mod, mu, t, lat, prop=prop:
       lat_mod.check_lattice_fuzzy_property(mu, t, prop)
       for prop in checker.FuzzyProp},
    "vague": lambda lat_mod, mu, t, lat: lat_mod.check_lattice_vague_structures(
        lat_mod.lattice_crisp_equality(lat), t, lat),
}


def _cmd_lattice(args) -> int:
    from . import lattice as lat_mod
    lattice = _parse_lattice_spec(
        lat_mod, args.lattice, enumerated=args.tnorm.startswith("index:"))
    tnorm = _parse_lattice_tnorm(lat_mod, args.tnorm, lattice)
    props = _pick(args.props, _LATTICE_PROPS, "lattice props")
    mu = _parse_lsubset(lat_mod, args.mu, lattice)
    reports = [_LATTICE_PROPS[p](lat_mod, mu, tnorm, lattice) for p in props]
    header = {"lattice": lattice.name, "tnorm": tnorm.name, "mu": mu.name}
    return _emit_reports(args, header, reports)


# --- enumerate ---

def _cmd_enumerate(args) -> int:
    from . import lattice as lat_mod
    lattice = _parse_lattice_spec(lat_mod, args.lattice, enumerated=True)
    tables = lat_mod.enumerate_lattice_tnorms(lattice, cap=args.cap)
    elems = lattice.elements
    _emit(args, lambda: {
        "lattice": lattice.to_json(), "count": len(tables),
        "tables": [{"name": t.name,
                    "entries": [[x, y, t(x, y)] for x in elems for y in elems]}
                   for t in tables]},
        lambda: "\n".join([f"lattice: {lattice.name}", f"count: {len(tables)}"]
                          + [f"  {t.name}" for t in tables]))
    return EXIT_OK


# --- suite ---

def _cmd_suite(args) -> int:
    from . import suite
    only = (None if args.only is None
            else _pick(args.only, suite.ROWS, "suite rows"))
    grid = _resolve_grid(args, suite.SuiteConfig._field_defaults["grid"])
    config = suite.SuiteConfig(grid=grid, budget=_resolve_budget(args))
    result = suite.run_suite(config, only=only, jobs=args.jobs)
    _emit(args, result.to_json, result.render_text)
    if result.total_counterexamples > 0:
        return EXIT_FAILS
    if result.any_skipped:
        return EXIT_VACUOUS
    return EXIT_OK


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def count(text):
        value = int(text)  # argparse reports a ValueError as invalid
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzznorm",
        description="exhaustive desk-scale checks for unit-interval "
                    "connectives and their fuzzy substructures")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flag sets a subcommand takes: output, output and grid, or
    # output, grid and the search budget
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "text"), default="text")
    output.add_argument("--out", type=str, default=None,
                        help="write the report here instead of stdout")
    grid = argparse.ArgumentParser(add_help=False, parents=[output])
    grid.add_argument("--grid", type=int, default=None,
                      help="grid resolution n (points are i/n)")
    budget = argparse.ArgumentParser(add_help=False, parents=[grid])
    budget.add_argument("--nmax", type=int, default=SearchBudget.n_max,
                        help="cap for the power-exponent search")
    budget.add_argument("--iter-cap", type=int, default=SearchBudget.iter_cap,
                        help="cap for limit iterations")
    # argparse passes a default that is not a string through untyped, and
    # parse_rational reads the Fraction as it reads p/q text
    budget.add_argument("--epsilon", type=str, default=SearchBudget.epsilon,
                        help="convergence threshold, as p/q")

    p = sub.add_parser("check", parents=[budget],
                       help="axiom and property checks for one operator")
    p.add_argument("operator", help="canonical operator id, e.g. tnorm:lukasiewicz")
    p.add_argument("--props", default="axioms",
                   help="comma-separated property ids")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("substructure", parents=[grid],
                       help="fuzzy subset conditions on a carrier")
    p.add_argument("--mu", required=True,
                   help="builtin:<form> or a membership JSON file")
    p.add_argument("--carrier", required=True,
                   help="operator id or finite carrier JSON file")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--combiner", default=None,
                   help="operator id replacing min (a-/u-/f-submonoid kinds)")
    p.add_argument("--arity-cap", type=int, default=3)
    p.set_defaults(fn=_cmd_substructure)

    p = sub.add_parser("vague", parents=[grid],
                       help="degree-valued equality and operator checks")
    p.add_argument("--equality", default="linear",
                   help="crisp, linear, or an arity-2 table JSON file")
    p.add_argument("--tnorm", required=True)
    p.add_argument("--checks", default=",".join(_VAGUE_CHECKS))
    p.add_argument("--reading", choices=READINGS, default="any-degree")
    p.add_argument("--mu-table", default=None,
                   help="arity-3 degree table JSON file replacing the induced operator")
    p.set_defaults(fn=_cmd_vague)

    p = sub.add_parser("lattice", parents=[output],
                       help="lattice t-norm and L-subset checks")
    p.add_argument("--lattice", required=True,
                   help="chain:N, diamond, or a lattice JSON file")
    p.add_argument("--tnorm", default="meet", help="meet or index:K")
    p.add_argument("--mu", default="one", help="identity, one, or a JSON file")
    p.add_argument("--props", default="tnorm-axioms,subnorm")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("enumerate", parents=[output],
                       help="list every t-norm table on a lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--cap", type=_at_least(0), default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("suite", parents=[budget],
                       help="run the full proposition sweep")
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--all", action="store_true", default=False,
                      help="run every row (the default)")
    rows.add_argument("--only", default=None,
                      help="comma-separated row ids to run")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="parallel workers, one row each")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on misuse
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        with _open_out(args) as args.stream:
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
