"""Run one fuzznorm operation in this process and record it for the benchmark.

    python3 perfbench/child.py MODE RECORD REQUEST KIND [ARGS...]

MODE is ``plain`` (timed), ``trace`` (spans, see instrument.py),
``count`` (spans plus cProfile call counts) or ``probe`` (import only).
KIND ``cli`` runs ``fuzznorm.cli.main(ARGS)``, exactly what the
``fuzznorm`` command runs; KIND ``sweep-wide`` runs ``run_suite`` on the
given rows with the given alphabet and writes ``reports.dumps`` of the
result. The program's output goes to stdout and its exit code is this
process's. RECORD receives a JSON object with the monotonic time of the
first call into fuzznorm's work, peak RSS and the resolved package file;
REQUEST names the operation in spans.
"""

import sys
import time


def peak_rss_kib() -> int:
    """Peak resident set of this process since exec. ru_maxrss would also
    count the parent's pages, which a child spawned by vfork holds until
    it execs."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    mode, record_path, request, kind, *args = sys.argv[1:]
    import fuzznorm
    from fuzznorm import cli, reports, suite

    if kind == "sweep-wide":
        from fractions import Fraction
        rows, alphabet = args[0].split(","), args[1].split(",")
        config = suite.SuiteConfig(grid=6, alphabet=tuple(Fraction(a) for a in alphabet))

        def work():
            result = suite.run_suite(config, only=rows)
            sys.stdout.write(reports.dumps(result.to_json()))
            return 0
    else:
        def work():
            return cli.main(args)

    rec = prof = None
    if mode in ("trace", "count"):
        from instrument import Recorder, install
        rec = Recorder(request)
        install(rec)
        if kind == "cli":
            work = rec.wrap(f"cli.{args[0]}", work)
    if mode == "count":
        import cProfile
        prof = cProfile.Profile()

    t_call = time.monotonic()
    rc = 0
    if mode != "probe":
        if prof is not None:
            prof.enable()
        rc = work()
        if prof is not None:
            prof.disable()
    sys.stdout.flush()

    import json
    record = {"t_call": t_call, "peak_rss_kib": peak_rss_kib(),
              "fuzznorm_file": fuzznorm.__file__}
    if rec is not None:
        record["row_seconds"] = rec.row_seconds
        record["counts"] = dict(rec.counts)
        if mode == "trace":
            record["spans"] = rec.spans
        else:
            from instrument import profile_counts
            prof.create_stats()
            record["counts"].update(profile_counts(prof.stats))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
