"""The fuzznorm benchmark.

One measured run of one workload (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

``--trace 0`` times whole passes and prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics from traced and counting
passes instead. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric by name with its unit, and a details file lands in
perfbench/out/results/.

    python3 perfbench/run.py --steady [--seconds 25]

runs two sets of ten untraced runs of every workload, interleaved,
then one traced run of each, and prints every metric with its unit, the
median and quartiles of each set, and whether each end-to-end metric
stays within its bound.

    python3 perfbench/run.py --record-goldens

rewrites perfbench/goldens.json from the checked-out code. Run it only
on a commit whose outputs are known good; every later run is checked
against it.

Every pass runs fuzznorm in fresh child processes, one at a time, with
this checkout's src/ as the only entry on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"
PACKAGE_INIT = ROOT / "src" / "fuzznorm" / "__init__.py"
CHILD_TIMEOUT = 150
STEADY_RUNS = 10

sys.path.insert(0, str(HERE))
from instrument import OBSERVED, spanned_names  # noqa: E402

WORKLOADS = ("suite", "sweep-wide", "cli")

SUITE_ARGS = ["suite", "--all", "--grid", "6", "--format", "json", "--jobs", "1"]

# the rows whose universe grows with the membership alphabet
SWEEP_ROWS = ("prop3.6", "prop3.7", "prop3.9", "prop16", "prop17", "prop18",
              "prop19", "prop20", "prop23", "prop24", "prop25",
              "prop25-tconorm", "thm-disjunctive-uninorm", "prop-intersection")
SWEEP_ALPHABET = ("0", "1/4", "1/2", "3/4", "1")

CUBIC = "axioms,strict-monotonicity,cancellation,conditional-cancellation"
LATTICE_PROPS = ("tnorm-axioms,subnorm,fstrict,fcancel,fcondcancel,farch,"
                 "flimit,vague")
LATTICE_FILE = OUT / "inputs" / "lattice-2x3.json"
CLI_SUBCOMMANDS = ("check", "vague", "lattice", "enumerate", "suite")

# (command id, half, fuzznorm arguments). The closed half's operator
# values stay inside a finite carrier (grid-closed builtins, uninorms and
# nullnorms built only from them, lattice tables); the open half's leave
# the grid (product, probsum and what is built from them). Cubic checks
# run at grid 16; power searches, uninorm classification and vague run
# at their defaults. ``--grid`` applies to every prop of a command, so a
# uninorm's axioms and its classification are two commands.
CLI_SESSION = (
    ("check-min", "closed", ["check", "tnorm:min", "--props", CUBIC, "--grid", "16"]),
    ("check-lukasiewicz", "closed",
     ["check", "tnorm:lukasiewicz", "--props", CUBIC, "--grid", "16"]),
    ("uninorm-umin-lukasiewicz", "closed",
     ["check", "uninorm:umin(e=1/2,T=lukasiewicz,S=lukasiewicz)",
      "--props", "axioms", "--grid", "16"]),
    ("classify-umin-lukasiewicz", "closed",
     ["check", "uninorm:umin(e=1/2,T=lukasiewicz,S=lukasiewicz)",
      "--props", "classify"]),
    ("nullnorm-lukasiewicz", "closed",
     ["check", "nullnorm:<lukasiewicz-S,1/2,lukasiewicz-T>", "--props", "axioms",
      "--grid", "16"]),
    ("powers-lukasiewicz", "closed",
     ["check", "tnorm:lukasiewicz", "--props", "archimedean,limit,classify"]),
    ("vague-linear-lukasiewicz", "closed",
     ["vague", "--equality", "linear", "--tnorm", "tnorm:lukasiewicz"]),
    ("enumerate-chain6", "closed", ["enumerate", "--lattice", "chain:6"]),
    ("lattice-2x3", "closed",
     ["lattice", "--lattice", str(LATTICE_FILE.relative_to(ROOT)), "--tnorm",
      "index:0", "--mu", "identity", "--props", LATTICE_PROPS]),
    ("check-product", "open",
     ["check", "tnorm:product", "--props", CUBIC, "--grid", "16"]),
    ("uninorm-umin-product", "open",
     ["check", "uninorm:umin(e=1/2,T=product,S=probsum)",
      "--props", "axioms", "--grid", "16"]),
    ("classify-umin-product", "open",
     ["check", "uninorm:umin(e=1/2,T=product,S=probsum)",
      "--props", "classify"]),
    ("uninorm-umax-product", "open",
     ["check", "uninorm:umax(e=1/2,T=product,S=probsum)",
      "--props", "axioms", "--grid", "16"]),
    ("classify-umax-product", "open",
     ["check", "uninorm:umax(e=1/2,T=product,S=probsum)",
      "--props", "classify"]),
    ("nullnorm-probsum", "open",
     ["check", "nullnorm:<probsum,1/2,product>", "--props", "axioms",
      "--grid", "16"]),
    ("powers-product", "open",
     ["check", "tnorm:product", "--props", "archimedean,limit,classify"]),
    ("vague-crisp-product", "open",
     ["vague", "--equality", "crisp", "--tnorm", "tnorm:product"]),
)


class Refused(Exception):
    """This checkout cannot be measured; no result may be reported."""


def write_inputs() -> None:
    """The 2x3 product lattice (a 2-chain times a 3-chain) for ``lattice``."""
    elements = [f"{i}{j}" for i in range(2) for j in range(3)]
    covers = ([[f"0{j}", f"1{j}"] for j in range(3)]
              + [[f"{i}{j}", f"{i}{j + 1}"] for i in range(2) for j in range(2)])
    LATTICE_FILE.parent.mkdir(parents=True, exist_ok=True)
    LATTICE_FILE.write_text(json.dumps(
        {"name": "chain2xchain3", "elements": elements, "covers": covers},
        indent=1) + "\n")


# --- child processes ---

@dataclass
class Proc:
    """One child process: one CLI command, or one suite/sweep invocation."""
    op: str
    half: str = ""
    wall: float = 0.0
    setup: float = 0.0
    rss_mib: float = 0.0
    rc: int = -1
    out: bytes = b""
    record: dict = field(default_factory=dict)
    error: str = ""


def spawn(mode: str, op: str, kind: str, args: list, half: str = "") -> Proc:
    folder = OUT / ("spans" if mode == "trace" else "records")
    folder.mkdir(parents=True, exist_ok=True)
    record_path = folder / f"{op}.json"
    record_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, str(HERE / "child.py"), mode, str(record_path), op,
            kind, *args]
    proc = Proc(op, half)
    start = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.error = f"timed out after {CHILD_TIMEOUT} s"
        return proc
    proc.wall = time.monotonic() - start
    proc.rc, proc.out = done.returncode, done.stdout
    try:
        proc.record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        proc.error = "no record" + (f": {tail[0]}" if tail else "")
        return proc
    if Path(proc.record["fuzznorm_file"]).resolve() != PACKAGE_INIT:
        raise Refused(f"fuzznorm resolved to {proc.record['fuzznorm_file']}, "
                      f"not {PACKAGE_INIT}")
    proc.setup = proc.record["t_call"] - start
    proc.rss_mib = proc.record["peak_rss_kib"] / 1024
    return proc


def probe() -> str:
    """Import fuzznorm once from this checkout (also compiles its bytecode)."""
    proc = spawn("probe", "probe", "cli", [])
    if proc.error or proc.rc != 0:
        raise Refused(f"cannot import fuzznorm from {ROOT / 'src'}: "
                      f"{proc.error or proc.rc}")
    return proc.record["fuzznorm_file"]


# --- golden outputs ---

def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def clean_rows(out: bytes) -> dict:
    """row id -> digest of the row, for rows with no counterexample that
    were not skipped; empty when the output is not a suite report."""
    try:
        rows = json.loads(out)["rows"]
        return {r["row_id"]: hashlib.sha256(
                    json.dumps(r, sort_keys=True).encode()).hexdigest()
                for r in rows if not r["counterexamples"] and not r["skipped"]}
    except (ValueError, KeyError, TypeError):
        return {}


def failed_rows(proc: Proc, golden: dict) -> int:
    """Rows whose result differs from the golden one; any difference in
    stdout bytes or exit code fails at least one."""
    if proc.error:
        return len(golden["rows"])
    got = clean_rows(proc.out)
    failed = sum(got.get(row) != sha for row, sha in golden["rows"].items())
    if proc.rc != golden["rc"] or digest(proc.out) != golden["stdout"]:
        failed = max(failed, 1)
    return failed


def failed_command(proc: Proc, golden: dict) -> int:
    same = (not proc.error and proc.rc == golden["rc"]
            and digest(proc.out) == golden["stdout"])
    return 0 if same else 1


# --- passes ---

@dataclass
class Pass:
    procs: list
    attempted: int
    failed: int

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def rss_mib(self) -> float:
        return max(p.rss_mib for p in self.procs)

    def half(self, which: str) -> float:
        return sum(p.wall for p in self.procs if p.half == which)


def invocations(workload: str, rng: random.Random) -> list:
    """(op, half, kind, args) of each child process of one pass, in order."""
    if workload == "suite":
        return [("suite", "", "cli", SUITE_ARGS)]
    if workload == "sweep-wide":
        return [("sweep-wide", "", "sweep-wide",
                 [",".join(SWEEP_ROWS), ",".join(SWEEP_ALPHABET)])]
    return [(op, half, "cli", args + ["--format", "json"])
            for op, half, args in rng.sample(CLI_SESSION, len(CLI_SESSION))]


def run_pass(workload: str, mode: str, rng: random.Random, goldens: dict) -> Pass:
    procs = [spawn(mode, op, kind, args, half)
             for op, half, kind, args in invocations(workload, rng)]
    golden = goldens[workload]
    if workload == "cli":
        return Pass(procs, len(procs),
                    sum(failed_command(p, golden[p.op]) for p in procs))
    return Pass(procs, len(golden["rows"]), failed_rows(procs[0], golden))


def record_goldens() -> None:
    write_inputs()
    probe()
    goldens = {}
    for workload in WORKLOADS:
        procs = [spawn("plain", op, kind, args, half)
                 for op, half, kind, args in invocations(workload, random.Random(0))]
        broken = [f"{p.op}: {p.error}" for p in procs if p.error]
        if broken:
            raise SystemExit(f"no goldens written: {broken}")
        if workload == "cli":
            goldens[workload] = {p.op: {"rc": p.rc, "stdout": digest(p.out)}
                                 for p in procs}
            continue
        proc = procs[0]
        rows = clean_rows(proc.out)
        if proc.rc != 0 or len(rows) != len(json.loads(proc.out)["rows"]):
            raise SystemExit(f"no goldens written: {workload} is not clean")
        goldens[workload] = {"rc": proc.rc, "stdout": digest(proc.out), "rows": rows}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS.relative_to(ROOT)}")


# --- metrics ---

def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def tail(samples: list):
    """The highest percentile with at least ten samples beyond it, as
    (label, value), or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    return f"p{100 * (n - 10) / n:.1f}", ordered[n - 11]


def end_to_end(workload: str, passes: list) -> dict:
    # Pass times are averaged rather than their median taken: on a shared
    # 2-vCPU VM the CPU speed switches between two levels about 1.4x apart
    # for spells of 15-60 s, so a run's median jumps to whichever level
    # held most of the run, while the mean follows the share of each.
    metrics = {
        "wall_s": statistics.mean(p.wall for p in passes),
        "setup_s": statistics.median(q.setup for p in passes for q in p.procs),
        "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
    }
    if workload == "cli":
        metrics["closed_s"] = statistics.mean(p.half("closed") for p in passes)
        metrics["open_s"] = statistics.mean(p.half("open") for p in passes)
    return metrics


def span_times(procs: list) -> dict:
    """Self time per spanned function and time inside ``cli.main`` per
    subcommand, summed over the processes of one traced pass."""
    times = {f"{name}.self_s": 0.0 for name in spanned_names()}
    times.update({f"cli.{sub}.s": 0.0 for sub in CLI_SUBCOMMANDS})
    for proc in procs:
        spans = proc.record.get("spans", [])
        covered = [0.0] * len(spans)
        for name, start, end, parent, _request in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _request), inner in zip(spans, covered):
            if name.startswith("cli."):
                times[f"{name}.s"] += end - start
            elif f"{name}.self_s" in times:
                times[f"{name}.self_s"] += end - start - inner
        for row, seconds in proc.record.get("row_seconds", {}).items():
            times[f"suite.row.{row}.s"] = times.get(f"suite.row.{row}.s", 0.0) + seconds
    return times


def span_calls(procs: list) -> dict:
    calls = {f"{name}.calls": 0 for name in spanned_names()}
    for proc in procs:
        for name, *_ in proc.record.get("spans", []):
            if f"{name}.calls" in calls:
                calls[f"{name}.calls"] += 1
    return calls


def summed_counts(procs: list) -> dict:
    total = {}
    for proc in procs:
        for key, value in proc.record.get("counts", {}).items():
            total[key] = total.get(key, 0) + value
    return total


def observed_counts(procs: list) -> dict:
    """The counts both traced and counting children read off results."""
    total = summed_counts(procs)
    return {k: total[k] for k in OBSERVED}


# --- runs ---

@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    env: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def add(self, p: Pass) -> Pass:
        self.attempted += p.attempted
        self.failed += p.failed
        self.problems += [f"{q.op}: {q.error}" for q in p.procs if q.error]
        return p


def git_state():
    # the ceiling stops git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"sha": sha, "dirty": dirty}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def fits(start: float, seconds: float, *done: list) -> bool:
    """Whether one more round of passes, each as long as the median of
    its kind so far, ends within the run's time."""
    needed = sum(statistics.median(p.wall for p in passes) for passes in done)
    return time.monotonic() - start + needed <= seconds


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    if not GOLDENS.exists():
        raise Refused(f"{GOLDENS} is missing")
    goldens = json.loads(GOLDENS.read_text())
    run = Run(workload, seed, trace)
    run.env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
               "git": git_state(), "loadavg_start": loadavg()}
    write_inputs()
    run.env["fuzznorm_file"] = probe()
    rng = random.Random(seed)
    start = time.monotonic()
    if not trace:
        passes = []
        while not passes or fits(start, seconds, passes):
            passes.append(run.add(run_pass(workload, "plain", rng, goldens)))
        run.metrics = end_to_end(workload, passes)
        run.walls = [p.wall for p in passes]
    else:
        counted = [run.add(run_pass(workload, "count", rng, goldens)) for _ in range(2)]
        first, second = (summed_counts(p.procs) for p in counted)
        run.env["counting_pass_s"] = [p.wall for p in counted]
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys()
                          if first.get(k) != second.get(k))
            run.problems.append(f"exact counts differ between two counting passes: {diff}")
        plain, traced = [], []
        while not traced or fits(start, seconds, plain, traced):
            plain.append(run.add(run_pass(workload, "plain", rng, goldens)))
            traced.append(run.add(run_pass(workload, "trace", rng, goldens)))
            spans = span_calls(traced[-1].procs)
            if spans != {k: first.get(k, 0) for k in spans}:
                run.problems.append("span counts differ from profiler call counts")
            if observed_counts(traced[-1].procs) != observed_counts(counted[0].procs):
                run.problems.append("traced pass counts differ from the counting pass")
        per_pass = [span_times(p.procs) for p in traced]
        run.metrics = {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
        run.metrics.update(first)
        calls = first["fuzzy.check_fuzzy_submonoid.calls"]
        holds = first["fuzzy.check_fuzzy_submonoid.holds"]
        # 0 when the workload checks no t-subnorm at all
        run.metrics["fuzzy.subnorm_pass_ratio"] = holds / calls if calls else 0.0
        run.metrics["trace.overhead_s"] = (statistics.mean(p.wall for p in traced)
                                           - statistics.mean(p.wall for p in plain))
        run.walls = [p.wall for p in plain]
        run.env["subnorm_base"] = f"{holds}/{calls}"
    run.env["loadavg_end"] = loadavg()
    details = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    details.parent.mkdir(parents=True, exist_ok=True)
    details.write_text(json.dumps({"env": run.env, "walls": run.walls,
                                   "problems": run.problems, "metrics": run.metrics,
                                   "attempted": run.attempted, "failed": run.failed},
                                  indent=1, sort_keys=True) + "\n")
    return run


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise Refused(f"cannot read {SPEC}: {exc}") from None


def report(run: Run, spec: dict) -> None:
    env = run.env
    git = env["git"]
    print(f"# workload {run.workload}, seed {run.seed}, trace {int(run.trace)}")
    print(f"# python {env['python']}, nproc {env['nproc']}, git "
          f"{(git['sha'] + (' dirty' if git['dirty'] else '')) if git else 'n/a'}")
    print(f"# fuzznorm {env['fuzznorm_file']}")
    print(f"# loadavg start {env['loadavg_start']} | end {env['loadavg_end']}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"fail_ratio {ratio} ratio ({run.failed} failed of {run.attempted} operations)")
    for problem in run.problems:
        print(f"problem: {problem}")
    if run.trace:
        print(f"# subnorm pass ratio base: {env['subnorm_base']} holds/calls")
    t = tail(run.walls)
    print(f"# pass wall time: {len(run.walls)} passes, median "
          f"{statistics.median(run.walls)} s, "
          + (f"{t[0]} {t[1]} s" if t else "no percentile has ten samples beyond it"))
    for name in sorted(run.metrics):
        print(f"{name} {run.metrics[name]} {unit_of(name)}")
    listed = spec["per_layer" if run.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in run.metrics]
    if missing:
        raise Refused(f"metrics listed in BENCHMARK.json were not measured: {missing}")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))


# --- steadiness ---

def steady(seconds: float, spec: dict) -> int:
    """Two interleaved sets of untraced runs per workload, then one traced
    run each; prints every metric and flags the unresolved ones."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # closed_s and open_s are the two parts of the cli wall_s, held to its bound
    bounds.setdefault("closed_s", bounds["wall_s"])
    bounds.setdefault("open_s", bounds["wall_s"])
    sets = {w: ([], []) for w in WORKLOADS}
    for i in range(STEADY_RUNS):
        for s in (0, 1):
            for w in WORKLOADS:
                run = measure(w, 1000 * (s + 1) + i, seconds, trace=False)
                sets[w][s].append(run)
                print(f"# set {s + 1} run {i + 1}/{STEADY_RUNS} {w}: "
                      f"wall_s {run.metrics['wall_s']:.4f} s, correct {run.correct}, "
                      f"loadavg {run.env['loadavg_start']} | {run.env['loadavg_end']}",
                      flush=True)
    unresolved = 0
    print(f"\n== end-to-end: 2 sets x {STEADY_RUNS} runs per workload, "
          f"{seconds} s each ==")
    print("workload    metric        unit   bound  set   median      q1          q3"
          "          spread  shift")
    for w in WORKLOADS:
        first, second = sets[w]
        for name in first[0].metrics:
            medians = []
            for s, runs_of_set in enumerate((first, second)):
                q1, med, q3 = statistics.quantiles([r.metrics[name] for r in runs_of_set],
                                                   n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "" if spread <= bounds[name] else "  UNRESOLVED"
                unresolved += bool(flag)
                shift = ("" if s == 0 else
                         f"{(medians[1] - medians[0]) / medians[0]:+.4f}")
                if s == 1 and abs(medians[1] - medians[0]) > bounds[name] * medians[0]:
                    flag += "  SETS DISAGREE"
                    unresolved += 1
                print(f"{w:<11} {name:<13} {unit_of(name):<6} {bounds[name]:<6} "
                      f"{s + 1:<5} {med:<11.6g} {q1:<11.6g} {q3:<11.6g} "
                      f"{spread:<7.4f} {shift}{flag}")
        every = first + second
        walls = [x for r in every for x in r.walls]
        t = tail(walls)
        failed = sum(r.failed for r in every)
        attempted = sum(r.attempted for r in every)
        print(f"{w:<11} pass wall time pooled over {len(walls)} passes: median "
              f"{statistics.median(walls):.6g} s"
              + (f", {t[0]} {t[1]:.6g} s" if t else ""))
        print(f"{w:<11} fail_ratio {failed / attempted} ratio "
              f"({failed} failed of {attempted} operations)")
    for w in WORKLOADS:
        print(f"\n== per-layer: traced run of {w} ==")
        run = measure(w, 1, seconds, trace=True)
        report(run, spec)
        unresolved += not run.correct
    print(f"\n{unresolved} unresolved or failing")
    return 1 if unresolved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_goldens:
            record_goldens()
            return 0
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.steady:
            return steady(seconds, spec)
        if not args.workload:
            parser.error("--workload is required")
        report(measure(args.workload, args.seed, seconds, bool(args.trace)), spec)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
