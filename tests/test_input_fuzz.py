"""Fuzzed input files end in an exit code, never in a traceback.

Hypothesis writes membership, lattice, lattice-membership, carrier,
equality and vague-table files, each either of the right shape with bad
atoms in it or arbitrary JSON, and runs each through ``cli.main`` in
process on a small universe. Every run must return one of the CLI's
exit codes; an exception escaping ``main`` fails the test.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzznorm.cli import main

EXIT_CODES = {0, 1, 2, 64, 65}

# labels and degrees that parse, strings that do not parse or lie
# outside [0, 1], and JSON atoms of other types, a third each
atoms = st.one_of(
    st.sampled_from(["0", "1/2", "1"]),
    st.sampled_from(["1/0", "0/0", "2", "-1", "m", " 1/3 "]),
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.text(max_size=3))
json_values = st.recursive(
    atoms, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


def rows(width):
    return st.lists(st.lists(atoms, min_size=width, max_size=width),
                    min_size=1, max_size=5)


def table(arity):
    return st.fixed_dictionaries({"form": st.just("table"),
                                  "entries": rows(arity + 1)},
                                 optional={"name": atoms})


def lattice_file(elements):
    """A lattice file on ``elements``, its cover ends drawn from the
    elements, nested lists and atoms."""
    end = st.sampled_from(elements or [None]) | st.lists(atoms, max_size=2) | atoms
    return st.fixed_dictionaries(
        {"elements": st.just(elements),
         "covers": st.lists(st.lists(end, min_size=2, max_size=2),
                            min_size=1, max_size=5)},
        optional={"name": atoms})


SHAPES = {
    "membership": table(1),
    "lattice": (st.lists(atoms, max_size=4)
                | st.lists(st.text(max_size=2), min_size=1, max_size=4,
                           unique=True)).flatmap(lattice_file),
    "lattice-membership": st.fixed_dictionaries({"entries": rows(2)}),
    "carrier": st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries(
        {"elements": st.lists(atoms, min_size=n, max_size=n),
         "op": st.lists(st.lists(atoms, min_size=n, max_size=n),
                        min_size=n, max_size=n),
         "identity": atoms},
        optional={"label": atoms})),
    "equality": table(2),
    "vague-table": table(3),
}

ARGV = {
    "membership": ["substructure", "--mu", "{file}", "--carrier", "tnorm:min",
                   "--kind", "t-subnorm", "--grid", "2"],
    "lattice": ["lattice", "--lattice", "{file}", "--props",
                "tnorm-axioms,subnorm"],
    "lattice-membership": ["lattice", "--lattice", "chain:3", "--mu", "{file}",
                           "--props", "tnorm-axioms,subnorm"],
    "carrier": ["substructure", "--mu", "builtin:one", "--carrier", "{file}",
                "--kind", "submonoid"],
    "equality": ["vague", "--equality", "{file}", "--tnorm", "tnorm:min",
                 "--grid", "2"],
    "vague-table": ["vague", "--equality", "crisp", "--tnorm", "tnorm:min",
                    "--grid", "2", "--mu-table", "{file}"],
}

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_file(workdir, kind, text):
    path, out = workdir / f"{kind}.json", workdir / "out.txt"
    path.write_text(text)
    argv = [a.format(file=path) for a in ARGV[kind]] + ["--out", str(out)]
    return main(argv)


@pytest.mark.parametrize("kind", list(SHAPES))
def test_shaped_file_with_bad_atoms(workdir, kind):
    @FUZZ
    @given(SHAPES[kind])
    def check(obj):
        assert run_file(workdir, kind, json.dumps(obj)) in EXIT_CODES
    check()


@pytest.mark.parametrize("kind", list(SHAPES))
def test_arbitrary_json(workdir, kind):
    @FUZZ
    @given(json_values | st.text(max_size=8))
    def check(value):
        text = value if isinstance(value, str) else json.dumps(value)
        assert run_file(workdir, kind, text) in EXIT_CODES
    check()
