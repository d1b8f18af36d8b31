"""What a fresh process loads, and what the late imports leave unchanged.

``from fuzznorm import cli, reports, suite`` loads the checker layer and
nothing more, and a ``check`` runs to the end inside it. The handlers
and suite rows that import their layers when they run give, from a
fresh process, the bytes and exit code they give in this one, where
every layer is loaded. A suite row loads only the layers it runs, and
the ``vague`` command leaves the carrier layer unloaded. No
import, command or suite row loads ``dataclasses`` or the ``inspect``
it imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the in-process side runs with every layer loaded
import fuzznorm.carriers
import fuzznorm.fuzzy
import fuzznorm.lattice
import fuzznorm.tables
import fuzznorm.vague
from fuzznorm.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

STARTUP = ["fuzznorm", "fuzznorm.checker", "fuzznorm.cli",
           "fuzznorm.connectives", "fuzznorm.errors", "fuzznorm.kernel",
           "fuzznorm.reports", "fuzznorm.scalars", "fuzznorm.subsets",
           "fuzznorm.suite"]

CHECKS = [
    ["check", "tnorm:product", "--props",
     "axioms,strict-monotonicity,cancellation,conditional-cancellation,"
     "archimedean,limit,classify", "--grid", "6"],
    ["check", "uninorm:umin(e=1/2,T=product,S=probsum)", "--props", "axioms"],
    ["check", "nullnorm:<lukasiewicz-S,1/2,lukasiewicz-T>", "--props", "axioms"],
]

LATE_IMPORTS = [
    ["substructure", "--mu", "builtin:identity", "--carrier", "tnorm:min",
     "--kind", "t-subnorm", "--grid", "6"],
    ["vague", "--tnorm", "tnorm:product", "--equality", "crisp", "--grid", "3"],
    ["lattice", "--lattice", "diamond", "--props", "tnorm-axioms,subnorm,fstrict,vague"],
    ["enumerate", "--lattice", "chain:3"],
    ["suite", "--only", "prop16", "--format", "json"],
]


def _fresh(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=300)


# stdlib modules that no fuzznorm process loads: importing dataclasses
# pulls in inspect, ast, dis and tokenize
NEVER = ("dataclasses", "inspect")

_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
           f"if m.split('.')[0] == 'fuzznorm' or m in {NEVER!r})))")


def test_startup_loads_only_the_checker_layer():
    proc = _fresh("-c", "import json, sys\n"
                        "from fuzznorm import cli, reports, suite\n" + _LOADED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == STARTUP


def test_a_check_loads_no_further_module():
    code = ("import contextlib, io, json, sys\n"
            "from fuzznorm import cli, reports, suite\n"
            f"for argv in {CHECKS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = cli.main(argv)\n"
            "    assert rc in (0, 1, 2), (argv, rc)\n" + _LOADED)
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == STARTUP


@pytest.mark.parametrize("row", ["prop16", "prop-intersection"])
def test_a_membership_row_loads_neither_lattice_nor_vague(row):
    """Rows that need only a chain's points import ``tables`` without the
    lattice enumeration behind it."""
    code = ("import contextlib, io, json, sys\n"
            "from fuzznorm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['suite', '--only', {row!r}]) == 0\n"
            + _LOADED)
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "fuzznorm.tables" in loaded
    assert not {"fuzznorm.lattice", "fuzznorm.vague", *NEVER} & set(loaded)


def test_the_vague_command_loads_no_carrier_layer():
    """A vague group is the vague operation its product induces, so the
    vague layer imports no group type."""
    code = ("import contextlib, io, json, sys\n"
            "from fuzznorm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({LATE_IMPORTS[1]!r}) in (0, 1)\n" + _LOADED)
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "fuzznorm.vague" in loaded
    assert "fuzznorm.carriers" not in loaded


@pytest.mark.parametrize("argv", LATE_IMPORTS + [["suite", "--all", "--grid", "6"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_no_command_loads_dataclasses(argv):
    code = ("import contextlib, io, json, sys\n"
            "from fuzznorm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main({argv!r})\n"
            "assert rc in (0, 1, 2), rc\n" + _LOADED)
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert not set(NEVER) & set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", LATE_IMPORTS, ids=lambda argv: argv[0])
def test_fresh_process_output_matches_in_process(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    proc = _fresh("-m", "fuzznorm", *argv)
    assert (proc.stdout, proc.returncode) == (out, rc), proc.stderr
