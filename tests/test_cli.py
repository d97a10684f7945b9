"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vecspread
from vecspread import cli
from vecspread.cli import main

from util import roadmap_workload

FIX_A = {
    "n": 6,
    "t": [1, 0, 2],
    "generators": ["x1", "x2*x3^2", "x2*x3*x4*x6", "x2*x4^2*x6"],
}
FIX_B = {
    "n": 4,
    "t": [1, 0],
    "generators": ["x1*x2", "x1*x3", "x1*x4^2"],
}


@pytest.fixture
def write_ideal(tmp_path):
    def _write(payload, name="ideal.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return _write


# -- enumerate ---------------------------------------------------------------


def test_enumerate_golden(capsys):
    assert main(["enumerate", "--n", "5", "--deg", "4", "--t", "1,0,2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "x1*x2^2*x4",
        "x1*x2^2*x5",
        "x1*x2*x3*x5",
        "x1*x3^2*x5",
        "x2*x3^2*x5",
        "count: 5",
    ]


def test_enumerate_empty(capsys):
    assert main(["enumerate", "--n", "3", "--deg", "2", "--t", "3"]) == 0
    assert capsys.readouterr().out.strip() == "count: 0"


def test_enumerate_json(capsys):
    assert main(["enumerate", "--n", "6", "--deg", "3", "--t", "2,2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4
    assert len(data["monomials"]) == 4


def test_enumerate_bad_degree(capsys):
    assert main(["enumerate", "--n", "5", "--deg", "3", "--t", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-2", "0"])
@pytest.mark.parametrize("deg", ["1", "2", "3"])
def test_enumerate_bad_ambient(capsys, n, deg):
    assert main(["enumerate", "--n", n, "--deg", deg, "--t", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ambient size must be >= 1, got {n}\n"


def test_enumerate_bad_t(capsys):
    assert main(["enumerate", "--n", "5", "--deg", "2", "--t", "1,x"]) == 2
    err = capsys.readouterr().err
    assert "1,x" in err


# -- verify ------------------------------------------------------------------


def test_verify_strongly_stable_passes(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["verify", "--ideal", path, "--class", "strongly-stable"]) == 0
    assert "strongly-stable: true" in capsys.readouterr().out


def test_verify_failure_prints_witness(capsys, write_ideal):
    path = write_ideal({"n": 3, "t": [1], "generators": ["x2"]})
    assert main(["verify", "--ideal", path, "--class", "strongly-stable"]) == 1
    out = capsys.readouterr().out
    assert "strongly-stable: false" in out
    assert "witness:" in out and "x1" in out


def test_verify_lex_json(capsys, write_ideal):
    path = write_ideal({"n": 3, "t": [0],
                        "generators": ["x1^2", "x1*x2", "x2^2"]})
    assert main(["verify", "--ideal", path, "--class", "lex",
                 "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] is False
    assert "x1*x3" in data["witness"]


# (n, t, generators) -> the witness of stable, strongly-stable and lex, None
# where the class holds; each is the first exchange or gap in the order the
# predicates scan, so a change of that order shows here
PINNED_WITNESSES = [
    ((4, [1, 0], ["x1*x2", "x1*x3", "x2*x4"]),
     ("x3*(x2*x4/x4) = x2*x3 not in ideal",
      "x1*(x2*x4/x2) = x1*x4 not in ideal",
      "x2*x3 >lex x2*x4 but is not in the ideal")),
    ((3, [1], ["x2"]),
     ("x1*(x2/x2) = x1 not in ideal",
      "x1*(x2/x2) = x1 not in ideal",
      "x1 >lex x2 but is not in the ideal")),
    ((4, [0, 0], ["x1^2", "x1*x2", "x2^2", "x2*x3", "x2*x4"]),
     (None,
      "x1*(x2*x3/x2) = x1*x3 not in ideal",
      "x1*x4 >lex x2^2 but is not in the ideal")),
    ((3, [0], ["x1^2", "x1*x2", "x2^2"]),
     (None, None, "x1*x3 >lex x2^2 but is not in the ideal")),
    ((6, [1, 0, 2], ["x2*x3^2", "x1*x4"]),
     ("x2*(x1*x4/x4) = x1*x2 not in ideal",
      "x2*(x1*x4/x4) = x1*x2 not in ideal",
      "x1*x3 >lex x1*x4 but is not in the ideal")),
    ((5, [2, 0], ["x3*x5", "x1*x4^2"]),
     ("x1*(x3*x5/x5) = x1*x3 not in ideal",
      "x3*(x1*x4^2/x4) = x1*x3*x4 not in ideal",
      "x2*x5 >lex x3*x5 but is not in the ideal")),
    ((8, [0, 2, 1], ["x2^2*x5*x6", "x3*x6"]),
     ("x1*(x3*x6/x6) = x1*x3 not in ideal",
      "x1*(x2^2*x5*x6/x2) = x1*x2*x5*x6 not in ideal",
      "x3*x5 >lex x3*x6 but is not in the ideal")),
    ((5, [0, 0, 0], ["x5"]),
     ("x1*(x5/x5) = x1 not in ideal",
      "x1*(x5/x5) = x1 not in ideal",
      "x4 >lex x5 but is not in the ideal")),
    ((7, [1, 1], ["x1*x3*x5", "x2*x4*x6", "x4*x7"]),
     ("x1*(x4*x7/x7) = x1*x4 not in ideal",
      "x2*(x1*x3*x5/x3) = x1*x2*x5 not in ideal",
      "x4*x6 >lex x4*x7 but is not in the ideal")),
    ((6, [3], ["x1*x4", "x2*x6", "x3"]),
     ("x1*(x3/x3) = x1 not in ideal",
      "x1*(x2*x6/x2) = x1*x6 not in ideal",
      "x2 >lex x3 but is not in the ideal")),
    ((5, [0, 1], ["x1^2*x3", "x2*x4"]),
     ("x1*(x2*x4/x4) = x1*x2 not in ideal",
      "x2*(x1^2*x3/x3) = x1^2*x2 not in ideal",
      "x2*x3 >lex x2*x4 but is not in the ideal")),
]


@pytest.mark.parametrize("record, witnesses", PINNED_WITNESSES)
def test_verify_pinned_witnesses(capsys, write_ideal, record, witnesses):
    n, t, gens = record
    path = write_ideal({"n": n, "t": t, "generators": gens})
    for cls, witness in zip(("stable", "strongly-stable", "lex"), witnesses):
        code = 0 if witness is None else 1
        assert main(["verify", "--ideal", path, "--class", cls]) == code
        expected = (f"{cls}: true\n" if witness is None
                    else f"{cls}: false\nwitness: {witness}\n")
        assert capsys.readouterr().out == expected
        assert main(["verify", "--ideal", path, "--class", cls,
                     "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out) == {
            "class": cls, "holds": witness is None, "witness": witness}


def test_verify_unknown_class_usage_error(write_ideal):
    path = write_ideal(FIX_A)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--ideal", path, "--class", "mystery"])
    assert exc.value.code == 2


# -- betti -------------------------------------------------------------------


def test_betti_ascii_golden(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["betti", "--ideal", path]) == 0
    assert capsys.readouterr().out.rstrip() == (
        "        0  1  2  3\n"
        "total:  1  4  5  2\n"
        "0:      1  1  -  -\n"
        "1:      -  -  -  -\n"
        "2:      -  1  1  -\n"
        "3:      -  2  4  2")


def test_betti_with_oracle(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["betti", "--ideal", path, "--oracle"]) == 0
    assert "oracle: MATCH" in capsys.readouterr().out


def test_betti_oracle_mismatch_exits_1(capsys, monkeypatch, write_ideal):
    # an oracle that counts one class too many at (2, 4)
    path = write_ideal(FIX_B)
    oracle = cli.homology_dimensions
    monkeypatch.setattr(cli, "homology_dimensions", lambda ideal, bound: {
        **oracle(ideal, bound), (2, 4): 3})
    assert main(["betti", "--ideal", path, "--oracle"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "oracle: MISMATCH"
    assert err == ("formula [((0, 0), 1), ((1, 2), 2), ((1, 3), 1), "
                   "((2, 3), 1), ((2, 4), 2), ((3, 5), 1)] vs oracle "
                   "[((0, 0), 1), ((1, 2), 2), ((1, 3), 1), ((2, 3), 1), "
                   "((2, 4), 3), ((3, 5), 1)]\n")
    assert main(["betti", "--ideal", path, "--oracle", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["oracle"] == "mismatch"


def test_betti_ideal_module(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["betti", "--ideal", path, "--module", "ideal"]) == 0
    out = capsys.readouterr().out
    assert "total:  3  3  1" in out


def test_betti_json(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["betti", "--ideal", path, "--format", "json", "--oracle"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["view"] == "quotient"
    assert data["oracle"] == "match"
    assert [3, 5, 1] in data["entries"]


def test_betti_needs_t(capsys, write_ideal):
    path = write_ideal({"n": 3, "t": [], "generators": ["x1"]})
    assert main(["betti", "--ideal", path]) == 2
    assert "spread vector" in capsys.readouterr().err


# -- homology-basis ------------------------------------------------------------


def test_homology_basis_labels(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["homology-basis", "--ideal", path, "--i", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "(x2*x3*x4*x6; {1,3})",
        "(x2*x4^2*x6; {1,3})",
        "count: 2",
    ]


def test_homology_basis_expand(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["homology-basis", "--ideal", path, "--i", "2",
                 "--expand"]) == 0
    out = capsys.readouterr().out
    assert "(x1*x3; {2}) = " in out
    assert "count: 3" in out


def test_homology_basis_empty(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["homology-basis", "--ideal", path, "--i", "4"]) == 0
    assert capsys.readouterr().out.strip() == "count: 0"


def test_homology_basis_unit_ideal(capsys, write_ideal):
    # S/S = 0 has no Koszul homology, so the unit ideal has no labels
    path = write_ideal({"n": 3, "t": [1], "generators": ["1"]})
    assert main(["homology-basis", "--ideal", path, "--i", "2"]) == 0
    assert capsys.readouterr().out.strip() == "count: 0"
    assert main(["homology-basis", "--ideal", path, "--i", "1", "--expand"]) == 0
    assert capsys.readouterr().out.strip() == "count: 0"


# -- resolution ------------------------------------------------------------------


def test_resolution_ascii(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["resolution", "--ideal", path]) == 0
    out = capsys.readouterr().out
    assert "ranks: F0=1, F1=3, F2=3, F3=1" in out
    assert "[ x1*x2  x1*x3  x1*x4^2 ]" in out


def test_resolution_verify(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["resolution", "--ideal", path, "--verify",
                 "--max-degree", "8"]) == 0
    assert "exactness" in capsys.readouterr().out


def test_resolution_verify_json(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["resolution", "--ideal", path, "--verify",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verification"]["ok"] is True
    assert data["ranks"] == [1, 3, 3, 1]


def test_resolution_json_never_renders_ascii(capsys, monkeypatch, write_ideal):
    path = write_ideal(FIX_B)
    argv = ["resolution", "--ideal", path, "--verify", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def forbidden(self):
        raise AssertionError("the JSON path must not render the ASCII text")

    monkeypatch.setattr("vecspread.resolution.Resolution.ascii", forbidden)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_resolution_ascii_never_builds_json(capsys, monkeypatch, write_ideal):
    path = write_ideal(FIX_B)
    argv = ["resolution", "--ideal", path, "--verify"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def forbidden(self):
        raise AssertionError("the ASCII path must not build the JSON object")

    monkeypatch.setattr("vecspread.resolution.Resolution.to_json_obj", forbidden)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_resolution_verify_failure_exits_1(capsys, monkeypatch, write_ideal):
    # (x1*x4^2; {3}) moved to x1*x3*x4, no minimal generator: exit 1, and
    # each failure on its own stderr line
    path = write_ideal(FIX_B)
    build = cli.build_resolution

    def stray_label(ideal, t):
        res = build(ideal, t)
        c = [str(lab) for lab in res.bases[1]].index("(x1*x4^2; {3})")
        res.bases[1][c] = vecspread.CycleLabel(
            vecspread.parse_monomial("x1*x3*x4", 4), (4,))
        return res

    monkeypatch.setattr(cli, "build_resolution", stray_label)
    assert main(["resolution", "--ideal", path, "--verify",
                 "--max-degree", "6"]) == 1
    out, err = capsys.readouterr()
    assert "exactness=FAIL" in out
    assert err.splitlines() == [
        "labels on x1*x3*x4, not a minimal generator",
        "not exact at position 1, degree 4, multidegree (1, 0, 1, 2): "
        "kernel 1, next image 0",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]


def test_resolution_rejects_bad_spread(capsys, write_ideal):
    path = write_ideal(FIX_A)  # t=(1,0,2) is not (1,..,1,0,..,0)
    assert main(["resolution", "--ideal", path]) == 2
    assert "error:" in capsys.readouterr().err


# -- gin -------------------------------------------------------------------------


def test_gin_golden_and_deterministic(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["gin", "--ideal", path, "--seed", "7"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["generators"] == ["x1^2", "x1*x2", "x1*x3^2"]
    assert first["seed"] == 7
    assert first["t"] == []
    assert main(["gin", "--ideal", path, "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == first


def test_gin_ascii_format(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["gin", "--ideal", path, "--seed", "7",
                 "--format", "ascii"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["x1^2", "x1*x2", "x1*x3^2", "seed: 7"]


def test_gin_records_random_seed(capsys, write_ideal):
    path = write_ideal(FIX_B)
    assert main(["gin", "--ideal", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data["seed"], int)


# -- shift -----------------------------------------------------------------------


def test_shift_fixed_point(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["shift", "--ideal", path, "--t", "1,0,2",
                 "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == FIX_A["generators"]
    assert data["t"] == [1, 0, 2]


def test_shift_verify(capsys, write_ideal):
    path = write_ideal(FIX_A)
    assert main(["shift", "--ideal", path, "--t", "1,0,2", "--seed", "3",
                 "--verify"]) == 0
    data = json.loads(capsys.readouterr().out)
    props = data["properties"]
    assert props["strongly_stable"] is True
    assert props["fixed_point"] is True
    assert props["hilbert_function"] is True


def test_shift_degree_capacity_error(capsys, write_ideal):
    path = write_ideal({"n": 3, "t": [], "generators": ["x1*x2*x3"]})
    assert main(["shift", "--ideal", path, "--t", "1", "--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# -- input handling -----------------------------------------------------------------


def test_missing_file(capsys):
    assert main(["betti", "--ideal", "/no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["betti", "--ideal", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("record, needle", [
    pytest.param({"n": 3, "t": [1], "generators": ["y2"]}, "y2", id="y2"),
    pytest.param({"n": True, "t": [1], "generators": ["x1"]}, "ambient size",
                 id="n-bool"),
    pytest.param({"n": 3, "t": "1", "generators": ["x1"]}, "t must be",
                 id="t-string"),
    pytest.param({"n": 3, "t": [1.5], "generators": ["x1"]}, "integers",
                 id="t-float"),
    pytest.param({"n": 3, "t": [1], "generators": [1]}, "generators",
                 id="generator-int"),
    pytest.param({"n": 3, "t": [1], "generators": "x1"}, "generators",
                 id="generators-string"),
    pytest.param({"n": 3, "t": [1], "generators": ["x1^99999999999999999999"]},
                 "x1^99999999999999999999", id="huge-exponent"),
])
def test_bad_generator_token(capsys, write_ideal, record, needle):
    path = write_ideal(record)
    assert main(["betti", "--ideal", path]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.strip().splitlines()) == 1


def test_non_spread_generator_rejected(capsys, write_ideal):
    path = write_ideal({"n": 4, "t": [2], "generators": ["x1*x2"]})
    assert main(["verify", "--ideal", path, "--class", "stable"]) == 2
    assert "spread" in capsys.readouterr().err


def test_gin_output_feeds_back_in(capsys, write_ideal, tmp_path):
    path = write_ideal(FIX_B)
    assert main(["gin", "--ideal", path, "--seed", "7"]) == 0
    produced = json.loads(capsys.readouterr().out)
    produced.pop("seed")
    produced["t"] = [0, 0]
    back = tmp_path / "gin.json"
    back.write_text(json.dumps(produced))
    assert main(["betti", "--ideal", str(back), "--oracle"]) == 0
    assert "oracle: MATCH" in capsys.readouterr().out


def test_environment_is_not_read(capsys, write_ideal, monkeypatch):
    # every setting is a flag: variables that once overrode the defaults
    # change neither the exit code nor a byte of the output
    path = write_ideal(FIX_B)
    runs = (["resolution", "--ideal", path, "--verify"],
            ["gin", "--ideal", path, "--seed", "7"])
    plain = []
    for argv in runs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    monkeypatch.setenv("VECSPREAD_MAX_DEGREE", "six")
    monkeypatch.setenv("VECSPREAD_GIN_BOUND", "0")
    for argv, expected in zip(runs, plain):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


# -- parser ----------------------------------------------------------------------

# "A" and "B" stand for files holding FIX_A and FIX_B
VALID_ARGV = {
    "enumerate": ["--n", "5", "--deg", "4", "--t", "1,0,2"],
    "verify": ["--ideal", "A", "--class", "strongly-stable"],
    "betti": ["--ideal", "A", "--oracle"],
    "homology-basis": ["--ideal", "A", "--i", "2"],
    "resolution": ["--ideal", "B", "--verify"],
    "gin": ["--ideal", "B", "--seed", "7"],
    "shift": ["--ideal", "B", "--t", "0,0", "--seed", "7"],
}
PARITY_ARGV = [
    argv
    for name, rest in VALID_ARGV.items()
    # valid, asking for help, and without the first required flag
    for argv in ([name, *rest], [name, "--help"], [name, *rest[2:]])
] + [
    ["verify", "--ideal", "A", "--class", "mystery"],
    ["enumerate", "--n", "five", "--deg", "4", "--t", "1"],
    ["gin", "--ideal", "B", "--seed", "7", "--nope"],
    ["gin", "--ideal", "B", "--seed", "7", "stray"],
    [], ["--help"], ["-h"], ["bogus"], ["-x", "shift"], ["shift", "shift"],
]


@pytest.fixture
def run_cli(capsys, monkeypatch, write_ideal):
    """Run main on argv with "A"/"B" bound to files: (exit code, out, err)."""
    monkeypatch.setenv("COLUMNS", "80")
    paths = {"A": write_ideal(FIX_A, "a.json"), "B": write_ideal(FIX_B, "b.json")}

    def _run(argv):
        try:
            code = main([paths.get(arg, arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.mark.parametrize("argv", PARITY_ARGV,
                         ids=lambda argv: " ".join(argv) or "no-argv")
def test_parser_parity_with_full_tree(run_cli, monkeypatch, argv):
    got = run_cli(argv)
    full_tree = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_tree())
    assert got == run_cli(argv)


@pytest.mark.parametrize("argv, needle", [
    pytest.param(["bogus"], "argument command: invalid choice: 'bogus'",
                 id="bogus"),
    pytest.param([], "the following arguments are required: command",
                 id="no-argv"),
])
def test_command_errors_name_the_command(run_cli, argv, needle):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert needle in err


@pytest.mark.parametrize("argv, added", [
    *[pytest.param([name, *rest], [name], id=name)
      for name, rest in VALID_ARGV.items()],
    pytest.param(["--help"], list(VALID_ARGV), id="--help"),
    pytest.param(["bogus"], list(VALID_ARGV), id="bogus"),
    pytest.param([], list(VALID_ARGV), id="no-argv"),
])
def test_one_subparser_per_call(run_cli, monkeypatch, argv, added):
    seen = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        seen.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    run_cli(argv)
    assert seen == added


def test_help_lists_every_command(run_cli):
    code, out, _ = run_cli(["--help"])
    assert code == 0
    choices, *lines = (out.split("positional arguments:\n", 1)[1]
                       .split("\n\n", 1)[0].splitlines())
    assert choices == "  {enumerate,verify,betti,homology-basis,resolution,gin,shift}"
    assert [line.split(None, 1) for line in lines] == [
        ["enumerate", "list spread monomials of one degree"],
        ["verify", "check a stability class membership"],
        ["betti", "graded Betti numbers by the closed formula"],
        ["homology-basis", "distinguished Koszul cycles"],
        ["resolution", "labelled minimal free resolution"],
        ["gin", "generic initial ideal (degrevlex)"],
        ["shift", "t-spread algebraic shifting"],
    ]


# -- JSON output -----------------------------------------------------------------

# quotes, backslashes, control characters, DEL and non-ASCII up to the astral
# planes, beside whatever hypothesis draws
json_text = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ\xe9\u20ac\U0001f600')
    | st.characters())
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(2 ** 64 - 2, 2 ** 64 + 2)
                | st.integers(-2 ** 200, 2 ** 200) | json_text)
json_trees = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(json_text, kids, max_size=5),
    max_leaves=60)


@settings(max_examples=500, deadline=None)
@given(json_trees)
@example([])
@example({})
@example({"a": [[], {}, [{"b": [[[-(2 ** 64), 2 ** 64 + 1, None, True]]]}]]})
@example({'q"\\\n\x01\u2603\U0001f600': [False, "\x7f", 0, -1]})
def test_json_writer_matches_the_stdlib(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [object()]}],
                         ids=["float", "tuple", "int-key", "object"])
def test_json_writer_refuses_what_the_cli_never_prints(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# every subcommand with --format json on the README's files: "A" is I.json,
# "B" is J.json, and "N" fails all three class checks with a witness
JSON_ARGV = [
    ["enumerate", "--n", "5", "--deg", "4", "--t", "1,0,2"],
    ["enumerate", "--n", "3", "--deg", "2", "--t", "3"],
    ["verify", "--ideal", "A", "--class", "strongly-stable"],
    ["verify", "--ideal", "N", "--class", "lex"],
    ["betti", "--ideal", "A", "--oracle"],
    ["betti", "--ideal", "A", "--module", "ideal"],
    ["homology-basis", "--ideal", "A", "--i", "2", "--expand"],
    ["homology-basis", "--ideal", "A", "--i", "9"],
    ["resolution", "--ideal", "B", "--verify"],
    ["resolution", "--ideal", "B"],
    ["gin", "--ideal", "B", "--seed", "7"],
    ["shift", "--ideal", "B", "--t", "0,0", "--seed", "7", "--verify"],
    ["shift", "--ideal", "A", "--t", "1,0,2", "--seed", "7", "--verify"],
]


def assert_json_is_the_stdlib_dump(monkeypatch, run):
    """run() gives (exit code, stdout); its stdout must be json.dumps of the
    payload handed to _emit, and of that payload read back."""
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj, text, fmt: (
        payloads.append(obj), emit(obj, text, fmt)))
    code, out = run()
    (payload,) = payloads
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    return code


@pytest.mark.parametrize("argv", JSON_ARGV, ids=" ".join)
def test_json_stdout_is_the_stdlib_dump(run_cli, write_ideal, monkeypatch,
                                        argv):
    failing = "N" in argv
    path = write_ideal({"n": 4, "t": [1, 0], "generators": [
        "x1*x2", "x1*x3", "x2*x4"]}, "n.json")
    argv = [path if arg == "N" else arg for arg in argv] + ["--format", "json"]
    code = assert_json_is_the_stdlib_dump(
        monkeypatch, lambda: run_cli(argv)[:2])
    assert code == (1 if failing else 0)


def test_json_stdout_of_w8_is_the_stdlib_dump(capsys, write_ideal,
                                              monkeypatch):
    ideal, t = roadmap_workload(1, (6, 8), 3)
    path = write_ideal(vecspread.ideal_to_dict(ideal, t))
    argv = ["resolution", "--ideal", path, "--verify", "--max-degree", "5",
            "--format", "json"]
    code = assert_json_is_the_stdlib_dump(
        monkeypatch, lambda: (main(argv), capsys.readouterr().out))
    assert code == 0


# -- a reader that leaves early ---------------------------------------------------


def test_closed_stdout_pipe_exits_141_without_traceback():
    # 37,820 lines, far more than a pipe buffers: the writer is still
    # printing when the reader closes its end, as `| head -n 1` does
    env = dict(os.environ,
               PYTHONPATH=str(Path(vecspread.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vecspread.cli", "enumerate", "--n", "60",
         "--deg", "3", "--t", "0,0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"x1^3\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and err == ""
