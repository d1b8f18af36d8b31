import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzznorm.cli import main

run = main  # exercised in-process; the acceptance suite drives the real binary


def out_text(capsys):
    return capsys.readouterr().out


class TestCheckCommand:
    def test_lukasiewicz_passes(self, capsys):
        code = run(["check", "tnorm:lukasiewicz",
                    "--props", "axioms,archimedean", "--grid", "10"])
        assert code == 0
        assert "HOLDS_ON_DOMAIN" in out_text(capsys)

    def test_min_fails_archimedean_with_witness(self, capsys):
        code = run(["check", "tnorm:min", "--props", "archimedean",
                    "--grid", "10", "--format", "json"])
        assert code == 1
        obj = json.loads(out_text(capsys))
        assert obj["reports"][0]["verdict"] == "FAILS"
        assert obj["reports"][0]["witnesses"]

    def test_min_axioms_pass(self):
        assert run(["check", "tnorm:min", "--props", "axioms"]) == 0

    def test_vacuous_budget_exit(self):
        code = run(["check", "tnorm:product", "--props", "archimedean",
                    "--grid", "10", "--nmax", "2"])
        assert code == 2

    def test_unknown_operator_and_prop(self, capsys):
        assert run(["check", "tnorm:nope", "--props", "axioms"]) == 64
        assert "unknown" in capsys.readouterr().err
        assert run(["check", "tnorm:min", "--props", "frobnicate"]) == 64

    def test_identical_configs_are_byte_identical(self, capsys):
        argv = ["check", "tnorm:min", "--props",
                "strict-monotonicity,cancellation", "--grid", "6",
                "--format", "json"]
        run(argv)
        first = out_text(capsys)
        run(argv)
        assert out_text(capsys) == first

    def test_classify(self, capsys):
        code = run(["check", "uninorm:umax(1/2,product,probsum)",
                    "--props", "classify", "--grid", "10", "--format", "json"])
        assert code == 0
        obj = json.loads(out_text(capsys))
        assert obj["reports"][0]["details"]["disjunctive"] is True


class TestSubstructureCommand:
    def test_identity_on_min(self):
        assert run(["substructure", "--mu", "builtin:identity",
                    "--carrier", "tnorm:min", "--kind", "t-subnorm",
                    "--grid", "10"]) == 0

    def test_identity_on_product_fails(self):
        assert run(["substructure", "--mu", "builtin:identity",
                    "--carrier", "tnorm:product", "--kind", "t-subnorm",
                    "--grid", "10"]) == 1

    def test_full_subset_on_disjunctive_uninorm(self):
        assert run(["substructure", "--mu", "builtin:one",
                    "--carrier", "uninorm:umax(1/2,product,probsum)",
                    "--kind", "u-submonoid", "--grid", "10"]) == 0

    def test_partial_table_is_not_total(self, tmp_path, capsys):
        mu_file = tmp_path / "mu.json"
        mu_file.write_text(json.dumps(
            {"form": "table", "entries": [["0", "1"], ["1", "1"]]}))
        code = run(["substructure", "--mu", str(mu_file),
                    "--carrier", "tnorm:product", "--kind", "t-subnorm",
                    "--grid", "10"])
        assert code == 65
        assert "no value" in capsys.readouterr().err

    def test_repeated_point_in_mu_file_is_a_config_error(self, tmp_path,
                                                         capsys):
        mu_file = tmp_path / "mu.json"
        mu_file.write_text(json.dumps({"form": "table", "entries": [
            ["0", "1"], ["1/2", "1"], ["0.5", "0"], ["1", "1"]]}))
        code = run(["substructure", "--mu", str(mu_file),
                    "--carrier", "tnorm:min", "--kind", "t-subnorm",
                    "--grid", "2"])
        assert code == 64
        assert "1/2 is listed twice" in capsys.readouterr().err

    def test_repeated_carrier_element_is_a_config_error(self, tmp_path,
                                                        capsys):
        carrier = tmp_path / "carrier.json"
        carrier.write_text(json.dumps({"elements": ["0", "0"], "identity": "0",
                                       "op": [["0", "0"], ["0", "0"]]}))
        assert run(["substructure", "--mu", "builtin:one", "--carrier",
                    str(carrier), "--kind", "submonoid"]) == 64
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("obj, field", [
        ({"elements": ["0", "0"], "identity": "0",
          "op": [["0", "0"], ["0", "0"]]}, "elements"),
        ({"elements": ["0", "1"], "identity": "e",
          "op": [["0", "0"], ["0", "1"]]}, "identity"),
    ], ids=["repeated-element", "identity-not-an-element"])
    def test_carrier_refusal_names_its_field(self, tmp_path, capsys, obj,
                                             field):
        carrier = tmp_path / "carrier.json"
        carrier.write_text(json.dumps(obj))
        assert run(["substructure", "--mu", "builtin:one", "--carrier",
                    str(carrier), "--kind", "submonoid"]) == 64
        assert f"field {field!r})" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["1", "0"])
    def test_arity_cap_below_two_is_a_config_error(self, capsys, cap):
        assert run(["substructure", "--mu", "builtin:one", "--carrier",
                    "tnorm:min", "--kind", "a-submonoid", "--grid", "2",
                    "--arity-cap", cap]) == 64
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_arity_cap_is_skipped_before_the_loop(self, tmp_path,
                                                      capsys):
        # 3^2 + ... + 3^1000 tuples: refused once the sum passes the
        # budget, at arity 14, without running any of them
        mu_file = tmp_path / "mu.json"
        mu_file.write_text(json.dumps({"form": "table", "entries": [
            ["0", "1"], ["1/2", "1"], ["1", "1"]]}))
        code = run(["substructure", "--mu", str(mu_file), "--carrier",
                    "tnorm:min", "--kind", "a-submonoid", "--combiner",
                    "agg:min", "--grid", "2", "--arity-cap", "1000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("skipped:") and "2000000 tuples" in err

    def test_bad_mu_file_is_a_config_error(self, tmp_path, capsys):
        mu_file = tmp_path / "mu.json"
        mu_file.write_text("{not json")
        code = run(["substructure", "--mu", str(mu_file),
                    "--carrier", "tnorm:min", "--kind", "t-subnorm"])
        assert code == 64
        assert "line" in capsys.readouterr().err

    def test_finite_carrier_subgroup(self, tmp_path):
        carrier = tmp_path / "z4.json"
        elems = ["0", "1", "2", "3"]
        op = [[str((int(a) + int(b)) % 4) for b in elems] for a in elems]
        carrier.write_text(json.dumps(
            {"elements": elems, "op": op, "identity": "0"}))
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"form": "table", "entries": [
            ["0", "1"], ["1", "0"], ["2", "1"], ["3", "0"]]}))
        assert run(["substructure", "--mu", str(mu), "--carrier",
                    str(carrier), "--kind", "subgroup"]) == 0


_UNINORM = "uninorm:umin(e=1/2,T=product,S=probsum)"
_NULLNORM = "nullnorm:<probsum,1/2,product>"


def _kind_argv(kind, way, tmp_path):
    """``substructure --kind kind`` on tnorm:min at grid 4 (a Z4 carrier
    file for a subgroup), four ways: with no combiner, with one of the
    kind's role, with one of another role, and with an arity cap of 1."""
    if kind == "subgroup":
        z4 = ["0", "1", "2", "3"]
        (tmp_path / "z4.json").write_text(json.dumps({
            "label": "Z4", "identity": "0", "elements": z4,
            "op": [[str((int(a) + int(b)) % 4) for b in z4] for a in z4]}))
        (tmp_path / "mu.json").write_text(json.dumps({
            "name": "even", "form": "table", "entries": [
                ["0", "1"], ["1", "0"], ["2", "1"], ["3", "0"]]}))
        on = ["--mu", str(tmp_path / "mu.json"),
              "--carrier", str(tmp_path / "z4.json")]
    else:
        on = ["--mu", "builtin:identity", "--carrier", "tnorm:min",
              "--grid", "4"]
    # a min-based kind has no combiner role: agg:min stands for its own
    role, other = {"u-submonoid": (_UNINORM, "agg:min"),
                   "f-submonoid": (_NULLNORM, _UNINORM)}.get(
                       kind, ("agg:min", _UNINORM))
    extra = {"none": [], "role": ["--combiner", role],
             "other-role": ["--combiner", other],
             "arity-cap-1": ["--arity-cap", "1"]}[way]
    return ["substructure", *on, "--kind", kind, *extra, "--format", "json"]


_KIND_NAMES = ("subgroupoid", "submonoid", "subgroup", "t-subnorm",
               "t-subconorm", "a-submonoid", "u-submonoid", "f-submonoid")

# (kind, way) -> the exit code and the sha256 of the JSON these lines
# printed when the CLI picked each kind's check and combiner itself;
# every other line is refused by its kind, with exit 64
_KIND_PRINTS = {
    ("subgroupoid", "none"): (0, "d746f090ffbe18fbdd771c0d48f6651c9da1a0f8d7a2b82f09a3eb41869ffea2"),
    ("submonoid", "none"): (0, "ca57fa1d201563928d893d8e38b92de21616ebd6b0d717d472236e297c7e291b"),
    ("subgroup", "none"): (0, "9dd572c29f33d84dae245503365cfcf2265fa8cf7a8679cb93d76b6dc98643be"),
    ("t-subnorm", "none"): (0, "4d3f20fa1aca82300cee9c068eb3bfb66d5df90b174111d4917ab682e0a51e28"),
    ("t-subconorm", "none"): (0, "0e7ea403cc76220eebca4671b995873754ceb6d3c63eacb8e43d1a7b9b6f9479"),
    ("a-submonoid", "none"): (0, "ec2e57df2cfc7bc7ec33dfcc55907718a7a34b219c51d231110deb07592be23e"),
    ("a-submonoid", "role"): (0, "ec2e57df2cfc7bc7ec33dfcc55907718a7a34b219c51d231110deb07592be23e"),
    ("u-submonoid", "role"): (1, "76a72270531476964bab5f464ad6a65b386ef9bb571fe8db58853fe85ff8a86e"),
    ("f-submonoid", "role"): (1, "9d5a7f7232f8445df4ca1b74e13123200fb2f304c392df75ce9b44b6444a6266"),
}


@pytest.mark.parametrize("way", ["none", "role", "other-role", "arity-cap-1"])
@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_each_kind_validates_its_combiner_and_arity_cap(tmp_path, capsys,
                                                        kind, way):
    """Every --kind is built as a fuzzy.SubstructureKind: a combiner of
    another role, any --combiner on a min-based kind and an arity cap
    below 2 exit 64; the lines it accepts print the bytes they printed
    before."""
    code = run(_kind_argv(kind, way, tmp_path))
    out, err = capsys.readouterr()
    if (kind, way) in _KIND_PRINTS:
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
            _KIND_PRINTS[kind, way]
    else:
        assert (code, out) == (64, "") and err.startswith("error:")


# a refused kind exits 64 with these messages before any grid carrier
# is built: --kind subgroup on an operator, a combiner of another role,
# a combiner on a min-based kind, and an arity cap below 2
_REFUSED_KINDS = [
    (["--kind", "subgroup"],
     "error: subgroup checks need a finite group carrier file\n"),
    (["--kind", "u-submonoid", "--combiner", "agg:min"],
     "error: u-fuzzy-submonoid needs a combiner of role uninorm\n"),
    (["--kind", "submonoid", "--combiner", "agg:min"],
     "error: fuzzy-submonoid uses the min combiner\n"),
    (["--kind", "a-submonoid", "--arity-cap", "1"],
     "error: arity cap 1 is below 2\n"),
]


@pytest.mark.parametrize("kind_argv, err", _REFUSED_KINDS,
                         ids=["subgroup", "other-role", "min-kind", "arity-cap"])
def test_a_refused_kind_builds_no_carrier(monkeypatch, capsys, kind_argv, err):
    from fuzznorm import carriers
    built = []
    monkeypatch.setattr(carriers.CarrierMonoid, "from_connective",
                        staticmethod(lambda *a: built.append(a)))
    assert run(["substructure", "--mu", "builtin:identity",
                "--carrier", "tnorm:min", *kind_argv]) == 64
    assert capsys.readouterr() == ("", err)
    assert built == []


class TestVagueCommand:
    def test_linear_lukasiewicz(self):
        assert run(["vague", "--equality", "linear",
                    "--tnorm", "tnorm:lukasiewicz",
                    "--checks", "equality,commutativity,monoid",
                    "--grid", "4"]) == 0

    MONOID = ["vague", "--tnorm", "tnorm:min", "--equality", "crisp",
              "--checks", "monoid,commutativity", "--format", "json"]

    def report_sizes(self, capsys):
        obj = json.loads(out_text(capsys))
        return [r["domain"]["size"] for r in obj["reports"]]

    def test_flag_grid_sizes_the_vague_monoid_report(self, capsys,
                                                     monkeypatch):
        from fuzznorm import vague
        built = []
        induce = vague.induce_vague_tnorm
        monkeypatch.setattr(vague, "induce_vague_tnorm",
                            lambda *a: built.append(a) or induce(*a))
        run(self.MONOID + ["--grid", "3"])
        assert self.report_sizes(capsys) == [4, 4]
        assert len(built) == 1  # the monoid check reuses the operator

    def test_monoid_default_grid_is_coarser(self, capsys):
        run(self.MONOID)
        assert self.report_sizes(capsys) == [5, 7]

    def test_crisp_product_cancellation_fails(self):
        assert run(["vague", "--equality", "crisp", "--tnorm", "tnorm:product",
                    "--checks", "cancellation", "--grid", "4"]) == 1

    def test_role_enforced(self):
        assert run(["vague", "--equality", "crisp",
                    "--tnorm", "tconorm:max", "--checks", "equality"]) == 64

    def test_equality_table_file(self, tmp_path):
        from fractions import Fraction as F
        pts = [F(0), F(1, 2), F(1)]
        entries = [[str(a), str(b), str(1 - abs(a - b))]
                   for a in pts for b in pts]
        eq_file = tmp_path / "eq.json"
        eq_file.write_text(json.dumps({"form": "table", "entries": entries}))
        assert run(["vague", "--equality", str(eq_file),
                    "--tnorm", "tnorm:lukasiewicz",
                    "--checks", "equality,commutativity"]) == 0

    def test_invalid_equality_file_reports_failure(self, tmp_path):
        eq_file = tmp_path / "eq.json"
        eq_file.write_text(json.dumps({"form": "table", "entries": [
            ["0", "0", "1"], ["1", "1", "1"], ["0", "1", "1"],
            ["1", "0", "1/2"]]}))
        assert run(["vague", "--equality", str(eq_file),
                    "--tnorm", "tnorm:min", "--checks", "commutativity"]) == 1

    def test_mu_table_file(self, tmp_path):
        from fractions import Fraction as F
        pts = [F(0), F(1, 2), F(1)]  # the grid-2 carrier
        entries = [[str(x), str(y), str(z),
                    str(F(1) if min(x, y) == z else F(0))]
                   for x in pts for y in pts for z in pts]
        mu_file = tmp_path / "op.json"
        mu_file.write_text(json.dumps({"form": "table", "entries": entries}))
        assert run(["vague", "--equality", "crisp", "--tnorm", "tnorm:min",
                    "--grid", "2", "--mu-table", str(mu_file),
                    "--checks", "vague-op"]) == 0

    # the exit code and sha256 of the JSON each line printed while a
    # table operator and a vague t-norm were two types
    PINNED = {
        "mu-table": (1, "b88d1740de9d2cfc3b074790e03b7320"
                        "b8a9d7984db4d16ee158f187b87ec17c"),
        "linear-product": (1, "fd11701ee4f05ec4b30aadd3128531af"
                              "d68ba0021b64d406f1b75b40bdbac374"),
    }

    @pytest.mark.parametrize("line", PINNED)
    def test_every_check_prints_the_pinned_bytes(self, tmp_path, capsys, line):
        if line == "mu-table":
            from fractions import Fraction as F
            pts = [F(0), F(1, 2), F(1)]  # the grid-2 carrier
            mu_file = tmp_path / "op.json"
            mu_file.write_text(json.dumps({
                "name": "product-linear", "form": "table", "entries": [
                    [str(x), str(y), str(z), str(1 - abs(x * y - z))]
                    for x in pts for y in pts for z in pts]}))
            argv = ["--tnorm", "tnorm:lukasiewicz", "--grid", "2",
                    "--mu-table", str(mu_file)]
        else:
            argv = ["--tnorm", "tnorm:product", "--grid", "4"]
        code = run(["vague", "--equality", "linear", *argv, "--format", "json"])
        out = out_text(capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
            self.PINNED[line]

    def test_repeated_key_in_equality_file_is_a_config_error(self, tmp_path,
                                                             capsys):
        # kept, the last entry would fail symmetry, which the file never
        # stated
        eq_file = tmp_path / "eq.json"
        eq_file.write_text(json.dumps({"form": "table", "entries": [
            ["0", "0", "1"], ["1", "1", "1"], ["0", "1", "0"], ["1", "0", "0"],
            ["0", "1", "1/2"]]}))
        assert run(["vague", "--equality", str(eq_file),
                    "--tnorm", "tnorm:min", "--checks", "equality"]) == 64
        assert "key (0, 1) is listed twice" in capsys.readouterr().err

    def test_repeated_key_in_mu_table_file_is_a_config_error(self, tmp_path,
                                                             capsys):
        from fractions import Fraction as F
        pts = [F(0), F(1, 2), F(1)]
        entries = [[str(x), str(y), str(z),
                    str(F(1) if min(x, y) == z else F(0))]
                   for x in pts for y in pts for z in pts]
        entries.append(["0.5", "1", "1/2", "0"])  # (1/2, 1, 1/2) again
        mu_file = tmp_path / "op.json"
        mu_file.write_text(json.dumps({"form": "table", "entries": entries}))
        assert run(["vague", "--equality", "crisp", "--tnorm", "tnorm:min",
                    "--grid", "2", "--mu-table", str(mu_file),
                    "--checks", "vague-op"]) == 64
        assert "key (1/2, 1, 1/2) is listed twice" in capsys.readouterr().err

    def test_equality_over_the_tuple_budget_is_skipped_before_its_loop(
            self, capsys):
        # 126 points: 126^3 = 2,000,376 transitivity triples
        assert run(["vague", "--tnorm", "tnorm:min", "--equality", "linear",
                    "--grid", "125", "--checks", "equality,vague-op"]) == 2
        assert capsys.readouterr().err == (
            "skipped: transitivity needs 2000376 tuples on a carrier of size "
            "126; budget allows 2000000\n")

    @pytest.mark.parametrize("check, power", [
        ("commutativity", 4), ("cancellation", 4), ("strict-monotonicity", 5)])
    def test_four_and_five_tuple_checks_are_skipped_before_their_loops(
            self, monkeypatch, capsys, check, power):
        from fuzznorm import reports
        # 5 points: the check's 5^power tuples are one over the budget
        monkeypatch.setattr(reports, "MAX_TUPLES", 5 ** power - 1)
        assert run(["vague", "--tnorm", "tnorm:lukasiewicz", "--grid", "4",
                    "--checks", check, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"skipped: {check.replace('-', ' ')} needs {5 ** power} tuples")


class TestLatticeCommands:
    def test_chain_checks(self):
        assert run(["lattice", "--lattice", "chain:3", "--tnorm", "meet",
                    "--mu", "identity", "--props", "tnorm-axioms,subnorm"]) == 0

    def test_lattice_file(self, tmp_path):
        f = tmp_path / "diamond.json"
        f.write_text(json.dumps({
            "elements": ["0", "a", "b", "1"],
            "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}))
        assert run(["lattice", "--lattice", str(f), "--props", "subnorm",
                    "--mu", "one"]) == 0

    @pytest.mark.parametrize("end", [["0"], 0, None],
                             ids=["list", "number", "null"])
    def test_cover_end_that_is_not_a_label(self, tmp_path, capsys, end):
        f = tmp_path / "lattice.json"
        f.write_text(json.dumps({"elements": ["0", "1"], "covers": [[end, "1"]]}))
        assert run(["lattice", "--lattice", str(f)]) == 64
        assert "field 'covers')" in capsys.readouterr().err

    def test_vague_prop(self):
        assert run(["lattice", "--lattice", "chain:3", "--props", "vague"]) == 0

    def test_enumerate(self, capsys):
        code = run(["enumerate", "--lattice", "chain:3", "--format", "json"])
        assert code == 0
        obj = json.loads(out_text(capsys))
        assert obj["count"] == 2
        assert len(obj["tables"]) == 2

    def test_enumerate_refuses_long_chain_before_building(self, monkeypatch,
                                                          capsys):
        from fuzznorm import lattice

        def refuse(*args, **kwargs):
            raise AssertionError("a lattice was built")
        monkeypatch.setattr(lattice, "build_lattice", refuse)
        assert run(["enumerate", "--lattice", "chain:400"]) == 2
        assert capsys.readouterr().err.startswith("skipped:")

    def test_lattice_refuses_long_chain_before_building(self, monkeypatch,
                                                        capsys):
        from fuzznorm import lattice

        def refuse(*args, **kwargs):
            raise AssertionError("a lattice was built")
        monkeypatch.setattr(lattice, "build_lattice", refuse)
        assert run(["lattice", "--lattice", "chain:400", "--tnorm", "index:0"]) == 2
        assert capsys.readouterr().err.startswith("skipped:")

    def test_tnorm_index_selection(self):
        assert run(["lattice", "--lattice", "chain:3", "--tnorm", "index:1",
                    "--mu", "one", "--props", "subnorm"]) == 0
        assert run(["lattice", "--lattice", "chain:3", "--tnorm", "index:9",
                    "--mu", "one", "--props", "subnorm"]) == 64


    def test_membership_file(self, tmp_path):
        f = tmp_path / "mu.json"
        f.write_text(json.dumps({"entries": [["0", "0"], ["m", "m"], ["1", "1"]]}))
        assert run(["lattice", "--lattice", "chain:3", "--mu", str(f),
                    "--props", "subnorm"]) == 0

    @pytest.mark.parametrize("payload, code", [
        ([["0", "0"], ["m", "m"], ["1", "1"]], 64),          # top-level list
        ({"entries": [["0", "0"], ["m", "m"]]}, 65),         # "1" has no entry
        ({"entries": [["0", "0"], ["m", "zz"], ["1", "1"]]}, 64),  # not an element
        ({"entries": [[["0"], "0"], ["m", "m"], ["1", "1"]]}, 64),  # list as key
        ({"entries": [["0", "0"], ["m", "m"], ["m", "1"], ["1", "1"]]}, 64),
    ], ids=["list", "missing-element", "bad-value", "list-key",
            "repeated-element"])
    def test_malformed_membership_file(self, tmp_path, capsys, payload, code):
        f = tmp_path / "mu.json"
        f.write_text(json.dumps(payload))
        assert run(["lattice", "--lattice", "chain:3", "--mu", str(f),
                    "--props", "subnorm"]) == code
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["lattice", "--lattice", "{missing}"],
        ["lattice", "--lattice", "chain:3", "--mu", "{missing}"],
        ["substructure", "--mu", "{missing}", "--carrier", "tnorm:min",
         "--kind", "t-subnorm"],
    ], ids=["lattice", "lattice-mu", "substructure-mu"])
    def test_missing_input_file(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "none.json")
        assert run([a.format(missing=missing) for a in argv]) == 64
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, choices", [
    (["check", "tnorm:min", "--props", ""], "axioms"),
    (["vague", "--tnorm", "tnorm:min", "--checks", ""], "equality"),
    (["lattice", "--lattice", "diamond", "--props", ","], "tnorm-axioms"),
    (["suite", "--only", ","], "prop3.6"),
    (["suite", "--only", ""], "prop3.6"),
], ids=["check", "vague", "lattice", "suite-comma", "suite-empty"])
def test_empty_selection_exits_64(capsys, argv, choices):
    # a run that checks nothing must not exit 0, the code for "all hold"
    assert run(argv) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no ") and "(choose from " in err
    assert choices in err


class TestOutPath:
    """A report path that cannot be opened is a configuration error."""

    @pytest.mark.parametrize("argv", [
        ["check", "tnorm:min", "--grid", "4"],
        ["suite", "--only", "prop16"],
    ], ids=["check", "suite"])
    def test_unopenable_out_exits_64(self, tmp_path, capsys, monkeypatch, argv):
        import fuzznorm.checker as checker_mod
        import fuzznorm.suite as suite_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("a check ran before --out was opened")
        monkeypatch.setattr(checker_mod, "check_axioms", unreachable)
        monkeypatch.setattr(suite_mod, "run_suite", unreachable)
        out = str(tmp_path / "missing" / "x.json")
        assert run(argv + ["--out", out]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out ")
        assert out in err

    def test_refused_input_leaves_the_opened_out_empty(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("an earlier report\n")
        assert run(["check", "tnorm:nope", "--out", str(path)]) == 64
        assert "unknown" in capsys.readouterr().err
        assert path.read_text() == ""

    def test_out_holds_the_bytes_of_stdout(self, tmp_path, capsys):
        argv = ["vague", "--equality", "crisp", "--tnorm", "tnorm:product",
                "--format", "json"]
        assert run(argv) == 1
        printed = out_text(capsys)
        path = tmp_path / "vague.json"
        assert run(argv + ["--out", str(path)]) == 1
        assert out_text(capsys) == ""
        assert path.read_bytes() == printed.encode("utf-8")
        assert len(json.loads(printed)["reports"][-1]["witnesses"]) > 0

    def test_a_failed_write_exits_64(self, monkeypatch, capsys):
        class FullDisk:
            def write(self, text):
                raise OSError(28, "No space left on device")

            def flush(self):
                pass
        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert run(["check", "tnorm:min", "--grid", "4", "--format", "json"]) == 64
        assert capsys.readouterr().err == (
            "error: cannot write stdout: No space left on device\n")


class TestSuiteCommand:
    def test_selected_rows_deterministic(self, capsys):
        code = run(["suite", "--only", "prop16,prop17", "--grid", "6",
                    "--format", "json"])
        assert code == 0
        first = out_text(capsys)
        run(["suite", "--only", "prop16,prop17", "--grid", "6",
             "--format", "json"])
        assert out_text(capsys) == first
        obj = json.loads(first)
        assert [r["row_id"] for r in obj["rows"]] == ["prop16", "prop17"]
        assert obj["total_counterexamples"] == 0

    def test_unknown_row(self, capsys):
        assert run(["suite", "--only", "prop99"]) == 64
        err = capsys.readouterr().err
        assert "unknown suite rows: prop99" in err and "(choose from prop3.6" in err

    def test_all_and_only_together_are_a_usage_error(self, capsys):
        assert run(["suite", "--all", "--only", "prop12"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument --all" in err

    def test_out_file(self, tmp_path):
        path = tmp_path / "rows.json"
        code = run(["suite", "--only", "example-L22-uninorm",
                    "--format", "json", "--out", str(path)])
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["rows"][0]["counterexamples"] == []

    def test_skipped_rows_exit_two(self, monkeypatch):
        import fuzznorm.suite as suite_mod
        from fuzznorm.errors import BudgetExceededError

        def exploding_row(cfg):
            raise BudgetExceededError("too big")

        monkeypatch.setitem(suite_mod.ROWS, "prop16", exploding_row)
        assert run(["suite", "--only", "prop16"]) == 2


HUGE_GRID = 10 ** 12
GRID_COMMANDS = {
    "check": ["check", "tnorm:min", "--props", "axioms"],
    "substructure": ["substructure", "--mu", "builtin:identity",
                     "--carrier", "tnorm:min", "--kind", "submonoid"],
    "vague": ["vague", "--tnorm", "tnorm:min", "--equality", "crisp"],
    "suite": ["suite", "--only", "prop3.8,example-unique-mu-id"],
}


class TestGridBudget:
    @pytest.fixture(autouse=True)
    def refuse_huge_points(self, monkeypatch):
        """Building the points of a grid over the cap fails the test
        instead of filling memory."""
        from fuzznorm import reports
        original = reports._grid_points

        def guarded(resolution):
            if resolution > reports.MAX_GRID_RESOLUTION:
                raise AssertionError(f"grid points built at n={resolution}")
            return original(resolution)
        monkeypatch.setattr(reports, "_grid_points", guarded)

    def assert_skipped(self, capsys, command, code):
        assert code == 2
        out, err = capsys.readouterr()
        reason = f"grid resolution {HUGE_GRID} exceeds the grid budget of 1000"
        if command == "suite":  # the rows are skipped, and say why
            assert out.count(f"reason: {reason}") == 2
        else:
            assert err == f"skipped: {reason}\n"

    @pytest.mark.parametrize("command", list(GRID_COMMANDS))
    def test_flag_grid_over_the_cap_is_skipped(self, capsys, command):
        code = run(GRID_COMMANDS[command] + ["--grid", str(HUGE_GRID)])
        self.assert_skipped(capsys, command, code)

    def test_grid_at_the_cap_builds(self):
        from fuzznorm.errors import BudgetExceededError
        from fuzznorm.reports import GridDomain
        assert len(GridDomain(1000).points) == 1001
        with pytest.raises(BudgetExceededError) as exc:
            GridDomain(1001)
        assert exc.value.size_estimate == 1002


ARCHIMEDEAN_MIN = ["check", "tnorm:min", "--props", "archimedean"]


class TestBudgetFlags:
    """A budget flag's bad value is refused with exit 64; a zero cap
    reaches ``SearchBudget`` and is refused there."""

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_bad_epsilon_names_its_field(self, capsys, value):
        assert run(ARCHIMEDEAN_MIN + ["--epsilon", value]) == 64
        assert "(field 'epsilon')" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epsilon", "--nmax", "--iter-cap"])
    def test_zero_is_a_config_error(self, capsys, flag):
        assert run(ARCHIMEDEAN_MIN + [flag, "0"]) == 64
        assert capsys.readouterr().err.startswith("error:")


class TestZeroDenominator:
    """A rational with a zero denominator is a bad input, not a crash."""

    @pytest.mark.parametrize("flag, payload, argv", [
        ("--mu", {"form": "table", "entries": [["0", "1/0"]]},
         ["substructure", "--carrier", "tnorm:min", "--kind", "t-subnorm",
          "--grid", "2"]),
        ("--equality", {"form": "table", "entries": [["0", "0", "1/0"]]},
         ["vague", "--tnorm", "tnorm:min"]),
        ("--mu-table", {"form": "table", "entries": [["0", "0", "0", "1/0"]]},
         ["vague", "--equality", "crisp", "--tnorm", "tnorm:min", "--grid",
          "2", "--checks", "vague-op"]),
    ], ids=["membership", "equality", "mu-table"])
    def test_in_a_table_file(self, tmp_path, capsys, flag, payload, argv):
        f = tmp_path / "table.json"
        f.write_text(json.dumps(payload))
        assert run(argv + [flag, str(f)]) == 64
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("operator", [
        "uninorm:umin(e=1/0,T=min,S=max)", "nullnorm:<max,1/0,min>"],
        ids=["uninorm", "nullnorm"])
    def test_in_an_operator_id(self, capsys, operator):
        assert run(["check", operator]) == 64
        assert capsys.readouterr().err.startswith("error:")


_SUBSET = ["substructure", "--carrier", "tnorm:min", "--kind", "t-subnorm",
           "--grid", "2", "--mu"]
_CARRIER = ["substructure", "--mu", "builtin:one", "--kind", "submonoid",
            "--carrier"]
_DIAMOND_UPSIDE_DOWN = ["0", "a", "b", "c", "d", "1"], [
    ["0", "c"], ["0", "d"], ["c", "a"], ["c", "b"], ["d", "a"], ["d", "b"],
    ["a", "1"], ["b", "1"]]


class TestRefusedInputs:
    """Each refusal ends in exit 64 with its message on stderr; ``{file}``
    is a file holding ``obj``."""

    @pytest.mark.parametrize("argv, obj, message", [
        (_SUBSET + ["{file}"], {"form": "builtin:nope"},
         "unknown builtin membership form: 'builtin:nope' (file: {file}, field 'form')"),
        (_SUBSET + ["{file}"], {"form": 3},
         "form must be a string (file: {file}, field 'form')"),
        (_SUBSET + ["builtin:nope"], None,
         "unknown builtin membership form: 'builtin:nope'"),
        (_SUBSET + ["builtin:step(1/0)"], None, "not a rational: '1/0'"),
        (_CARRIER + ["{file}"], {"elements": [], "op": [], "identity": "0"},
         "elements must be a non-empty list (file: {file}, field 'elements')"),
        (_CARRIER + ["{file}"], {"elements": "01", "op": [], "identity": "0"},
         "elements must be a non-empty list (file: {file}, field 'elements')"),
        (_CARRIER + ["{file}"], {"elements": ["0", "1"], "op": [["0", "1"]],
                                 "identity": "0"},
         "op must be a square matrix over elements (file: {file}, field 'op')"),
        (["lattice", "--lattice", "{file}"],
         {"elements": ["0", "0", "1"], "covers": [["0", "1"]]},
         "lattice elements must be non-empty and distinct (file: {file}, "
         "field 'elements')"),
        (["lattice", "--lattice", "{file}"], {"elements": [], "covers": []},
         "lattice elements must be non-empty and distinct (file: {file}, "
         "field 'elements')"),
        (["lattice", "--lattice", "{file}"],
         {"elements": ["0", "1"], "covers": [["0", "x"]]},
         "cover (0, x) mentions unknown elements (file: {file}, field 'covers')"),
        (["lattice", "--lattice", "{file}"],
         dict(zip(("elements", "covers"), _DIAMOND_UPSIDE_DOWN)),
         "pair (a, b) has no unique meet (file: {file}, field 'covers')"),
        (["check", "uninorm:umin(e=1/2,product,probsum)"], None,
         "mixed named and positional uninorm arguments: 'e=1/2,product,probsum'"),
        (["check", "uninorm:umin(e=1/2,T=product,X=probsum)"], None,
         "uninorm id missing arguments ['S']: 'e=1/2,T=product,X=probsum'"),
        (["check", _NULLNORM, "--props", "classify", "--grid", "2"], None,
         "classify expects a uninorm-like operator, got "
         "nullnorm:<probsum-S,1/2,product-T>"),
        (["lattice", "--lattice", "chain:x"], None, "bad chain size in 'chain:x'"),
        (["lattice", "--lattice", "chain:3", "--tnorm", "nope"], None,
         "unknown lattice t-norm spec 'nope' (use meet or index:K)"),
    ], ids=["membership-unknown-builtin", "membership-form-not-a-string",
            "mu-unknown-builtin", "mu-step-zero-denominator",
            "carrier-empty-elements", "carrier-elements-not-a-list",
            "carrier-op-not-square", "lattice-repeated-element",
            "lattice-empty-elements", "lattice-unknown-cover", "lattice-no-unique-meet",
            "uninorm-mixed-arguments", "uninorm-missing-argument",
            "classify-nullnorm", "lattice-bad-chain", "lattice-unknown-tnorm"])
    def test_refusal_exits_64_with_its_message(self, tmp_path, capsys, argv,
                                               obj, message):
        f = tmp_path / "input.json"
        if obj is not None:
            f.write_text(json.dumps(obj))
        assert run([a.format(file=f) for a in argv]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message.format(file=f)}\n"

    def test_a_builtin_form_in_a_membership_file_is_read(self, tmp_path):
        f = tmp_path / "mu.json"
        f.write_text(json.dumps({"form": "builtin:one"}))
        assert run(_SUBSET + [str(f)]) == 0


class TestRefusedValues:
    def test_negative_enumeration_cap(self, capsys):
        assert run(["enumerate", "--lattice", "diamond", "--cap", "-1"]) == 64
        assert "--cap" in capsys.readouterr().err

    def test_negative_cap_in_the_library(self):
        from fuzznorm.errors import DomainError
        from fuzznorm.lattice import diamond_lattice, enumerate_lattice_tnorms
        with pytest.raises(DomainError, match="cap"):
            enumerate_lattice_tnorms(diamond_lattice(), cap=-1)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, capsys, jobs):
        assert run(["suite", "--only", "prop16", "--jobs", jobs]) == 64
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [["x"], 7, 0, []],
                             ids=["list", "number", "zero", "empty-list"])
    @pytest.mark.parametrize("field, obj, argv", [
        ("name", {"elements": ["0", "1"], "covers": [["0", "1"]]},
         ["lattice", "--lattice", "{file}"]),
        ("name", {"form": "table", "entries": [["0", "1"], ["1", "1"]]},
         ["substructure", "--mu", "{file}", "--carrier", "tnorm:min",
          "--kind", "t-subnorm", "--grid", "2"]),
        ("name", {"form": "table", "entries": [["0", "0", "1"]]},
         ["vague", "--equality", "{file}", "--tnorm", "tnorm:min"]),
        ("name", {"form": "table", "entries": [["0", "0", "0", "1"]]},
         ["vague", "--equality", "crisp", "--tnorm", "tnorm:min", "--grid",
          "2", "--checks", "vague-op", "--mu-table", "{file}"]),
        ("label", {"elements": ["0"], "op": [["0"]], "identity": "0"},
         ["substructure", "--mu", "builtin:one", "--carrier", "{file}",
          "--kind", "submonoid"]),
    ], ids=["lattice", "membership", "equality", "vague-table", "carrier"])
    def test_name_that_is_not_a_string(self, tmp_path, capsys, name, field,
                                       obj, argv):
        f = tmp_path / "input.json"
        f.write_text(json.dumps({**obj, field: name}))
        assert run([a.format(file=f) for a in argv]) == 64
        assert f"field {field!r})" in capsys.readouterr().err


class TestFlagsWhereRead:
    @pytest.mark.parametrize("argv", [
        ["lattice", "--lattice", "chain:3", "--grid", "4"],
        ["enumerate", "--lattice", "chain:3", "--nmax", "1"],
        ["vague", "--tnorm", "tnorm:min", "--epsilon", "1/2"],
        ["substructure", "--mu", "builtin:one", "--carrier", "tnorm:min",
         "--kind", "submonoid", "--iter-cap", "3"],
    ], ids=["lattice-grid", "enumerate-nmax", "vague-epsilon",
            "substructure-iter-cap"])
    def test_a_flag_the_subcommand_does_not_read_exits_64(self, capsys, argv):
        assert run(argv) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "tnorm:min"],
        ["suite", "--only", "example-L22-uninorm"],
    ], ids=["check", "suite"])
    def test_check_and_suite_take_the_budget_flags(self, argv):
        assert run(argv + ["--grid", "4", "--nmax", "8", "--iter-cap", "16",
                           "--epsilon", "1/8"]) == 0

    @pytest.mark.parametrize("argv", [
        ["check", "tnorm:min", "--format", "xml"],
        ["check", "tnorm:min", "--grid", "abc"],
        ["frobnicate"],
        [],
    ], ids=["bad-choice", "bad-int", "unknown-subcommand", "no-subcommand"])
    def test_usage_errors_exit_64(self, capsys, argv):
        assert run(argv) == 64
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert run(["check", "--help"]) == 0
        assert "--nmax" in out_text(capsys)


class TestNoEnvironment:
    """Flags are the only configuration: a run prints the same bytes
    whatever its environment holds, here the variable that once replaced
    the grid and budget defaults."""

    ROOT = Path(__file__).resolve().parents[1]
    OVERRIDE = {"FUZZNORM_BUDGET_OVERRIDE": json.dumps({"grid": 4, "n_max": 2})}

    def fresh(self, argv, extra=None) -> bytes:
        env = {k: v for k, v in os.environ.items()
               if k != "FUZZNORM_BUDGET_OVERRIDE"}
        env.update(extra or {}, PYTHONPATH=str(self.ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "fuzznorm", *argv],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode in (0, 1, 2), proc.stderr
        return proc.stdout

    def test_suite_prints_the_benchmark_golden(self):
        golden = json.loads((self.ROOT / "perfbench" / "goldens.json")
                            .read_text())["suite"]["stdout"]
        out = self.fresh(["suite", "--all", "--grid", "6", "--format", "json"],
                         self.OVERRIDE)
        assert hashlib.sha256(out).hexdigest() == golden["sha256"]

    def test_check_defaults_ignore_the_variable(self):
        argv = ["check", "tnorm:product", "--props",
                "archimedean,limit,classify", "--format", "json"]
        assert self.fresh(argv, self.OVERRIDE) == self.fresh(argv)
