"""Span recorder and call counters that the benchmark installs in a child.

Nothing here changes what fuzznorm computes. ``install`` swaps each
function named in ``SPANNED`` for a wrapper that records a span (name,
start, end, parent span, request id) and passes the call through. The
wrapper replaces the name in the defining module and in every fuzznorm
module that imported it by name, so calls from one layer into another
are seen too. Spans stay in memory; the child writes them out at exit.

``profile_counts`` turns a cProfile run into exact call counts, keyed by
the metric names the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# layer -> public functions timed as spans; the metric prefix is
# "<layer>.<function>"
SPANNED = {
    "checker": ("check_axioms", "check_strict_monotonicity",
                "check_cancellation", "check_archimedean",
                "check_limit_property", "classify_uninorm"),
    "connectives": ("parse_operator",),
    "tables": ("enumerate_chain_tnorm_tables",),
    "carriers": ("CarrierMonoid.from_connective",),
    "subsets": ("intersect_fuzzy_subsets",),
    "fuzzy": ("check_fuzzy_submonoid", "check_fuzzy_subgroupoid",
              "check_fuzzy_property", "characterize_special_cases",
              "refute_uninorm_existence"),
    "vague": ("validate_fuzzy_equality", "induce_vague_tnorm",
              "check_vague_binary_op", "check_vague_monoid",
              "check_vague_commutativity", "check_vague_strict_monotone",
              "check_vague_cancellation"),
    "lattice": ("enumerate_lattice_tnorms", "check_lattice_tnorm",
                "check_lattice_fuzzy_subnorm", "check_lattice_fuzzy_property",
                "check_lattice_vague_structures",
                "check_lattice_vague_strict_monotone",
                "check_lattice_vague_cancellation"),
    "reports": ("conclude", "dumps"),
    "suite": ("run_suite",),
}


def spanned_names() -> list:
    return [f"{layer}.{fn.rsplit('.', 1)[-1]}"
            for layer, fns in SPANNED.items() for fn in fns]


# counts read off a call's result, keyed by the metric they feed
def _observe_submonoid(rec, report):
    rec.counts["fuzzy.check_fuzzy_submonoid.holds"] += report.holds


def _observe_lattice_tables(rec, tables):
    rec.counts["lattice.tables_enumerated"] += len(tables)


def _observe_conclude(rec, report):
    rec.counts["reports.witnesses"] += len(report.witnesses)


def _observe_dumps(rec, text):
    rec.counts["reports.json_bytes"] += len(text.encode("utf-8"))


def _observe_suite(rec, result):
    rec.counts["suite.checked"] += sum(r.checked for r in result.rows)
    for r in result.rows:
        rec.row_seconds[r.row_id] = r.elapsed


OBSERVED = ("fuzzy.check_fuzzy_submonoid.holds", "lattice.tables_enumerated",
            "reports.witnesses", "reports.json_bytes", "suite.checked",
            "subsets.maps_generated")

OBSERVERS = {
    "fuzzy.check_fuzzy_submonoid": _observe_submonoid,
    "lattice.enumerate_lattice_tnorms": _observe_lattice_tables,
    "reports.conclude": _observe_conclude,
    "reports.dumps": _observe_dumps,
    "suite.run_suite": _observe_suite,
}


class Recorder:
    """In-memory spans for one child process.

    A span is ``[name, start, end, parent, request]``; ``parent`` is the
    index of the enclosing span or -1, ``request`` the suite row or CLI
    command the span belongs to.
    """

    def __init__(self, request: str):
        self.spans = []
        self.request = request
        self.counts = Counter(dict.fromkeys(OBSERVED, 0))
        self.row_seconds = {}
        self._stack = []

    def wrap(self, name, fn, observe=None, request=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = self.request
            if request is not None:
                self.request = request
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                self.request = saved
            if observe is not None:
                observe(self, result)
            return result
        return traced


def _rebind(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "fuzznorm" and not modname.startswith("fuzznorm."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _count_maps(counts, gen_fn):
    @functools.wraps(gen_fn)
    def counted(*args, **kwargs):
        for item in gen_fn(*args, **kwargs):
            counts["subsets.maps_generated"] += 1
            yield item
    return counted


def install(rec: Recorder) -> None:
    """Wrap every spanned function, the suite rows and the map generator."""
    for layer, fns in SPANNED.items():
        mod = importlib.import_module(f"fuzznorm.{layer}")
        for path in fns:
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            if "." in path:  # a staticmethod on a class
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = getattr(cls, attr)
                setattr(cls, attr, staticmethod(rec.wrap(name, original)))
                continue
            original = getattr(mod, path)
            _rebind(original, rec.wrap(name, original, OBSERVERS.get(name)))

    suite = importlib.import_module("fuzznorm.suite")
    for row_id, fn in list(suite.ROWS.items()):
        suite.ROWS[row_id] = rec.wrap(f"suite.row.{row_id}", fn, request=row_id)

    subsets = importlib.import_module("fuzznorm.subsets")
    original = subsets.enumerate_table_subsets
    _rebind(original, _count_maps(rec.counts, original))


def _code_key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _unwrap(fn):
    fn = getattr(fn, "__func__", fn)
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def profile_counts(stats: dict) -> dict:
    """Exact call counts from ``cProfile.Profile.stats``.

    ``stats`` maps (file, line, function) to (primitive calls, total
    calls, ...); the total counts every call, recursive ones included.
    """
    import fractions

    from fuzznorm.carriers import CarrierMonoid
    from fuzznorm.connectives import Connective
    from fuzznorm.tables import ChainTable

    def calls(fn):
        entry = stats.get(_code_key(_unwrap(fn)))
        return entry[1] if entry else 0

    counts = {}
    for layer, fns in SPANNED.items():
        mod = importlib.import_module(f"fuzznorm.{layer}")
        for path in fns:
            attr = path.rsplit(".", 1)[-1]
            owner = CarrierMonoid if "." in path else mod
            counts[f"{layer}.{attr}.calls"] = calls(getattr(owner, attr))
    counts["connectives.evals"] = calls(Connective.__call__)
    counts["tables.evals"] = calls(ChainTable.__call__)
    counts["scalars.fraction_hash"] = calls(fractions.Fraction.__hash__)
    counts["scalars.fraction_ops"] = sum(
        entry[1] for key, entry in stats.items()
        if key[0] == fractions.__file__)
    return counts
