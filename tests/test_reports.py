"""The streamed JSON writer ``reports.dump`` against ``reports.dumps``.

Every subcommand writes its JSON through ``dump``, which feeds the
encoder's chunks to the output in batches instead of joining them into
one string. Its bytes must be those of ``dumps`` for each report shape
the CLI emits, and its peak memory must stay below that of ``dumps``.
"""

import io
import tracemalloc
from fractions import Fraction

import pytest

from fuzznorm import cli
from fuzznorm.checker import check_axioms
from fuzznorm.connectives import T_M
from fuzznorm.reports import GridDomain, Witness, conclude, dump, dumps

F = Fraction

# one command per subcommand; the vague one writes 5,469 witnesses, so its
# encoder chunks span many batches
COMMANDS = {
    "check": ["check", "tnorm:min", "--props", "axioms,archimedean", "--grid", "6"],
    "substructure": ["substructure", "--mu", "builtin:identity",
                     "--carrier", "tnorm:min", "--kind", "t-subnorm", "--grid", "8"],
    "vague": ["vague", "--equality", "crisp", "--tnorm", "tnorm:product"],
    "lattice": ["lattice", "--lattice", "chain:3", "--tnorm", "index:1",
                "--mu", "identity", "--props", "subnorm,fcancel"],
    "enumerate": ["enumerate", "--lattice", "diamond"],
    "suite": ["suite", "--only", "prop16,prop12", "--grid", "4"],
}


def _dumped(obj) -> str:
    buf = io.StringIO()
    dump(obj, buf)
    return buf.getvalue()


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_subcommand_writes_the_bytes_of_dumps(argv, monkeypatch, capsys):
    seen = []

    def recording(obj, fh):
        seen.append(obj)
        dump(obj, fh)
    monkeypatch.setattr(cli, "dump", recording)
    cli.main(argv + ["--format", "json"])
    [obj] = seen
    out = capsys.readouterr().out
    assert out == dumps(obj) == _dumped(obj)


def test_a_report_without_witnesses_and_one_with_children():
    bare = conclude("bare", {"kind": "grid", "resolution": 2}, [])
    nested = check_axioms(T_M, GridDomain(3))
    assert not bare.witnesses and nested.children
    for report in (bare, nested):
        assert _dumped(report.to_json()) == dumps(report) == dumps(report.to_json())
    # scalars and an empty object go through the same encoder
    for value in ("1/2", 0, [], {}):
        assert _dumped(value) == dumps(value)


class _NullSink:
    def write(self, text):
        pass


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_peaks_below_half_of_dumps():
    witnesses = [Witness((F(i, 5000), F(1, 3)), (F(i, 7), F(1, 5000)))
                 for i in range(5000)]
    obj = conclude("many", {"kind": "grid", "resolution": 5000},
                   witnesses).to_json()
    streamed = _traced_peak(lambda: dump(obj, _NullSink()))
    joined = _traced_peak(lambda: dumps(obj))
    assert streamed < joined / 2, (streamed, joined)
