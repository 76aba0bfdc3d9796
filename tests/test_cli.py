"""CLI dispatch, output formats and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mspkit import cli, msp
from mspkit.poly import LaurentX1, MPoly


def decode_json(data):
    """The MPoly, or LaurentX1 when `x1_den` is present, of a `--format json` body."""
    num = MPoly({tuple(t["exponents"]): int(t["coeff"]) for t in data["terms"]})
    return LaurentX1(num, data["x1_den"]) if "x1_den" in data else num


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text_example(capsys):
    code, out, _ = run_cli(
        capsys, "msp", "gen", "--kind", "S", "--n", "3", "--k", "1", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "3*X2^2 - X1*X3"


def test_gen_all_k(capsys):
    code, out, _ = run_cli(capsys, "msp", "gen", "--kind", "B", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "B[3,1] = X3",
        "B[3,2] = 3*X1*X2",
        "B[3,3] = X1^3",
    ]


def test_gen_json_round_trip(capsys):
    for kind in ["S", "B", "Bt", "L"]:
        for n in range(1, 9):
            for k in range(1, n + 1):
                code, out, _ = run_cli(
                    capsys,
                    "msp",
                    "gen",
                    "--kind",
                    kind,
                    "--n",
                    str(n),
                    "--k",
                    str(k),
                    "--format",
                    "json",
                )
                assert code == 0
                parsed = decode_json(json.loads(out))
                assert parsed == msp.generate(kind, n, k)


def test_gen_json_laurent_round_trip(capsys):
    for n in range(1, 9):
        for k in range(1, n + 1):
            code, out, _ = run_cli(
                capsys,
                "msp", "gen", "--kind", "A", "--n", str(n), "--k", str(k),
                "--format", "json",
            )
            assert code == 0
            data = json.loads(out)
            assert "x1_den" in data
            assert decode_json(data) == msp.lie_first(n, k)


def test_gen_latex(capsys):
    code, out, _ = run_cli(
        capsys, "msp", "gen", "--kind", "S", "--n", "2", "--k", "1", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "$S_{2,1}=-X_{2}$"


def test_gen_latex_laurent(capsys):
    code, out, _ = run_cli(
        capsys, "msp", "gen", "--kind", "A", "--n", "3", "--k", "2", "--format", "latex"
    )
    assert code == 0
    assert out == "$A_{3,2}=X_{1}^{-4}(-3X_{2})$\n"


def test_gen_text_deterministic(capsys):
    _, first, _ = run_cli(capsys, "msp", "gen", "--kind", "S", "--n", "6")
    _, second, _ = run_cli(capsys, "msp", "gen", "--kind", "S", "--n", "6")
    assert first == second


def test_stirling_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "stirling", "table", "--kind", "s2", "--n", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "4,2,7" in lines


def test_stirling_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "stirling", "table", "--kind", "s1", "--n", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"][4][2] == "11"


def test_series_revert_trivial(capsys):
    code, out, _ = run_cli(capsys, "series", "revert", "--coeffs", "1", "--order", "1")
    assert code == 0
    assert json.loads(out) == {"inverse": ["1"]}


def test_series_revert_trees_all_paths(capsys):
    code, out, _ = run_cli(
        capsys,
        "series", "revert", "--coeffs", "1,-2,3,-4", "--order", "4", "--path", "all",
    )
    assert code == 0
    assert json.loads(out) == {"inverse": ["1", "2", "9", "64"]}


def test_series_revert_rational_coeffs(capsys):
    code, out, _ = run_cli(
        capsys, "series", "revert", "--coeffs", "1/2,1/3", "--order", "2"
    )
    assert code == 0
    assert json.loads(out) == {"inverse": ["2", "-8/3"]}


def test_series_revert_rejects_zero_f1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "revert", "--coeffs", "0,1", "--order", "2"])
    assert exc.value.code == 2


# every comma-separated field is a coefficient, so an empty field is an error,
# and a field is ASCII digits with an optional leading "-" and an optional
# "/q".  Fraction() alone takes "2/ 3" and "1_0" on some Python versions only,
# and the five cases after them on every version
@pytest.mark.parametrize("coeffs", ["1,x", "1/0", "1,0.5.5", "1,,3", "1,2,", ",1", "",
                                    "1,2/ 3", "1_0", " 1", "+1", "\u0661", "1.5", "1e1"])
def test_bad_coefficient_list_is_a_usage_error(capsys, coeffs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "revert", "--coeffs", coeffs, "--order", "2"])
    assert exc.value.code == 2
    assert f"bad coefficient list {coeffs!r}" in capsys.readouterr().err


def test_coefficients_in_the_grammar_parse():
    assert cli._parse_coeffs("-1/2,007,0/5,-0") == (Fraction(-1, 2), 7, 0, 0)


# argparse reads a separate "-3/4,5" as an option; main joins a list that
# starts with "-" and a digit to the option before it
@pytest.mark.parametrize("argv, joined", [
    (["series", "revert", "--coeffs", "-3/4,5", "--order", "4", "--path", "all"], "--coeffs=-3/4,5"),
    (["series", "compose", "--f", "-1,2", "--g", "1,1", "--order", "4"], "--f=-1,2"),
    (["series", "compose", "--f", "1,2", "--g", "-1/2,1", "--order", "4"], "--g=-1/2,1"),
], ids=["coeffs", "f", "g"])
def test_a_list_that_starts_with_minus_may_be_a_separate_argument(capsys, argv, joined):
    i = argv.index(joined.split("=")[0])
    equals_form = argv[:i] + [joined] + argv[i + 2:]
    separate, equals = run_cli(capsys, *argv), run_cli(capsys, *equals_form)
    assert separate == equals
    assert separate[0] == 0 and separate[1]
    # -h is never read as a list: it still asks for help, and right after
    # the option it leaves the option without a value, as argparse has it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:i + 1] + ["-h"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def all_parsers(parser):
    """`parser` and every parser below it."""
    below = [p for action in parser._actions if isinstance(action, argparse._SubParsersAction)
             for p in action.choices.values()]
    return [parser, *(q for p in below for q in all_parsers(p))]


def subparsers(parser):
    """The parsers that `parser`'s subparsers action registers, by name."""
    action, = [action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def test_every_parser_takes_full_option_names_only():
    parsers = all_parsers(cli._build_parser([]))
    assert len(parsers) == 1 + len(cli._COMMANDS) + sum(
        len(leaves) for _, leaves in cli._COMMANDS.values())
    assert all(p.allow_abbrev is False for p in parsers)


def test_the_join_names_every_option_that_takes_a_coefficient_list():
    takes_a_list = {option for p in all_parsers(cli._build_parser([])) for action in p._actions
                    if action.type is cli._parse_coeffs for option in action.option_strings}
    assert takes_a_list == set(cli._LIST_OPTIONS)


def test_series_compose(capsys):
    code, out, _ = run_cli(
        capsys,
        "series", "compose", "--f", "1,1,1", "--g", "1,1,1", "--order", "3",
    )
    assert code == 0
    # (e^x - 1) o (e^x - 1): h_n = sum_k B_{n,k}(1,..,1)
    assert json.loads(out)["composition"] == ["1", "2", "5"]


def test_series_exp_transform(capsys):
    code, out, _ = run_cli(
        capsys, "series", "exp-transform", "--coeffs", "1,1,1", "--order", "3"
    )
    assert code == 0
    assert json.loads(out)["rows"] == [
        ["0", "1"],
        ["0", "1", "1"],
        ["0", "1", "3", "1"],
    ]


def test_ptypes_list(capsys):
    code, out, _ = run_cli(capsys, "ptypes", "list", "4", "2")
    assert code == 0
    assert out.splitlines() == ["0,2", "1,0,1"]
    code, out, _ = run_cli(capsys, "ptypes", "list", "3", "0")
    assert code == 0
    assert out == ""


def test_verify_run_json(capsys):
    code, out, err = run_cli(
        capsys, "verify", "run", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert data["seed"] == 0
    assert all(c["passed"] for c in data["checks"])
    assert "timing:" in err


def test_verify_run_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "run", "--max-n", "3", "--only", "table1-golden", "--format", "text",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("PASS  table1-golden")


def test_verify_run_reports_a_check_that_raises(capsys, monkeypatch):
    real = msp.cor45_expand

    def patched(n, k, cache=None):
        if n == 7:
            raise ValueError("value has denominator X1^1")
        return real(n, k, cache)

    monkeypatch.setattr(msp, "cor45_expand", patched)
    code, out, err = run_cli(capsys, "verify", "run", "--max-n", "8")
    assert code == 1
    assert ("FAIL  cor4.5-expansion  [1<=k<=n<=8]  -- raised ValueError: value has denominator"
            " X1^1") in out.splitlines()
    assert out.splitlines()[-1] == "31 checks, 1 failure(s)"
    assert "usage:" not in err
    assert err.count("timing:") == 31


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["msp", "gen", "--kind", "Q", "--n", "3"],
        ["msp", "gen", "--kind", "S", "--n", "3", "--k", "9"],
        ["nonsense"],
        ["verify", "run", "--max-n", "3", "--only", "bogus-id"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


# no parser takes a prefix of an option name, so argparse and the
# negative-list join read the same full names
@pytest.mark.parametrize("argv, message", [
    (["series", "revert", "--coeff", "3/4,5", "--order", "2"],
     "the following arguments are required: --coeffs"),
    (["series", "revert", "--coeff", "-3/4,5", "--order", "2"],
     "the following arguments are required: --coeffs"),
    (["msp", "gen", "--kind", "S", "--n", "3", "--for", "text"],
     "unrecognized arguments: --for text"),
    (["verify", "run", "--max", "8"], "the following arguments are required: --max-n"),
], ids=["coeff", "coeff-negative", "for", "max"])
def test_option_names_must_be_given_in_full(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_gen_depth_limit_and_force(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", "--kind", "B", "--n", "13", "--k", "13"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "msp", "gen", "--kind", "B", "--n", "13", "--k", "13", "--force"
    )
    assert code == 0
    assert out.strip() == "X1^13"


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("MSPKIT_MAX_N", "5")
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", "--kind", "B", "--n", "6"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("MSPKIT_MAX_N", "40")
    code, out, _ = run_cli(capsys, "msp", "gen", "--kind", "B", "--n", "6", "--k", "6")
    assert code == 0
    assert out.strip() == "X1^6"


@pytest.mark.parametrize("raw", ["abc", "", "2.5", "-1", "3_0", " 30", "+30", "\u0663\u0660"])
def test_env_cap_rejects_bad_value(capsys, monkeypatch, raw):
    monkeypatch.setenv("MSPKIT_MAX_N", raw)
    with pytest.raises(SystemExit) as exc:
        cli.main(["ptypes", "list", "4", "2"])
    assert exc.value.code == 2
    assert "MSPKIT_MAX_N must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["1_2", " 3", "+3", "\u0663"])
@pytest.mark.parametrize("argv, name", [
    (["msp", "gen", "--kind", "B", "--n", "{}"], "--n"),
    (["msp", "gen", "--kind", "B", "--n", "3", "--k", "{}"], "--k"),
    (["stirling", "table", "--kind", "s1", "--n", "{}"], "--n"),
    (["series", "revert", "--coeffs", "1,2", "--order", "{}"], "--order"),
    (["series", "compose", "--f", "1", "--g", "1", "--order", "{}"], "--order"),
    (["series", "exp-transform", "--coeffs", "1", "--order", "{}"], "--order"),
    (["ptypes", "list", "{}", "2"], "n"),
    (["ptypes", "list", "4", "{}"], "k"),
    (["verify", "run", "--max-n", "{}"], "--max-n"),
    (["verify", "run", "--max-n", "2", "--seed", "{}"], "--seed"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_integer_arguments_take_ascii_digits_only(capsys, argv, name, raw):
    # int() alone takes underscores, surrounding blanks, a plus sign and
    # non-ASCII digits
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(raw) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {name}: invalid int value: {raw!r}" in captured.err


def test_gen_accepts_every_registered_kind(capsys):
    for kind in msp.KINDS:
        assert cli.main(["msp", "gen", "--kind", kind, "--n", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind", msp.KINDS)
def test_gen_rejects_n_below_one(capsys, kind):
    # no kind has a member with k >= 1 at n = 0, so an empty row is a usage error
    for fmt in ("text", "json"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["msp", "gen", "--kind", kind, "--n", "0", "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be >= 1" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_gen_complete_bell(capsys, fmt):
    code, out, _ = run_cli(capsys, "msp", "gen", "--kind", "Bn", "--n", "3", "--format", fmt)
    assert code == 0
    want = msp.complete_bell(3)
    if fmt == "text":
        assert out == "X3 + 3*X1*X2 + X1^3\n"
    elif fmt == "json":
        assert decode_json(json.loads(out)) == want
    else:
        assert out == f"$Bn_{{3}}={want.to_latex()}$\n"


def test_gen_complete_bell_rejects_k(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", "--kind", "Bn", "--n", "3", "--k", "1"])
    assert exc.value.code == 2
    assert "--k does not apply to --kind Bn" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "B", "--n", "4", "--k", "5"], "k=5 outside 1..n=4"),
        # Bn refuses any --k before the range of k is looked at
        (["--kind", "Bn", "--n", "4", "--k", "9"], "--k does not apply to --kind Bn"),
    ],
)
def test_gen_rejects_k(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_gen_member_that_raises_is_a_usage_error(capsys, monkeypatch):
    # B_{n,n} = X1^n, whose X1 field does not fit 15 bits at n = 32768
    monkeypatch.setenv("MSPKIT_MAX_N", "40000")
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", "--kind", "B", "--n", "32768", "--k", "32768", "--force"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exponent 32768 of B_{32768,32768} exceeds 32767" in captured.err


def test_series_revert_zero_f1_message(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "revert", "--coeffs", "0,1", "--order", "2"])
    assert exc.value.code == 2
    assert "f_1 must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "f, g, order, want",
    [
        ("1,1", "0,1", "2", '{"composition": ["0", "1"]}'),
        ("1,1,1", "0,1,1", "4", '{"composition": ["0", "1", "1", "3"]}'),
    ],
)
def test_series_compose_zero_g1(capsys, f, g, order, want):
    code, out, _ = run_cli(
        capsys, "series", "compose", "--f", f, "--g", g, "--order", order
    )
    assert code == 0
    assert out.strip() == want


def test_verify_report_same_under_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["-m", "mspkit.cli", "verify", "run", "--max-n", "8", "--format", "json"]
    runs = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True, env=env)
        for flags in ([], ["-O"])
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["max_n"] == 8


def test_cli_import_pulls_in_neither_dataclasses_nor_inspect():
    # -S leaves out site hooks, which may import either module themselves
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import mspkit.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("only", [",", ""])
def test_verify_run_empty_selection_exits_2(capsys, only):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "run", "--max-n", "3", "--only", only])
    assert exc.value.code == 2
    assert "empty check selection" in capsys.readouterr().err


# every comma-separated field names one check, so a blank field is an error
@pytest.mark.parametrize("only", ["table1-golden,,rem3.4-degrees,", "table1-golden,",
                                  ",table1-golden", "table1-golden, ,rem3.4-degrees"])
def test_verify_run_blank_check_id_exits_2(capsys, only):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "run", "--max-n", "3", "--only", only])
    assert exc.value.code == 2
    assert f"bad check list {only!r}" in capsys.readouterr().err


def test_verify_run_only_strips_spaces_around_a_name(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "run", "--max-n", "3", "--only", " table1-golden , rem3.4-degrees ",
    )
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[:2]] == ["table1-golden",
                                                                  "rem3.4-degrees"]


def test_closed_stdout_exits_1_without_traceback():
    # 134 kB of output overfills the pipe, so the CLI is still writing when
    # the reader closes its end after one line
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["-m", "mspkit.cli", "msp", "gen", "--kind", "S", "--n", "22", "--force"]
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline().startswith(b"S[22,1] = ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_main_with_captured_stdout_is_unchanged():
    # in-process callers that swap in a StringIO, as the benchmark does, get
    # the printed text and the status, with no error from the final flush
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ptypes", "list", "5", "2"])
    assert (code, out.getvalue()) == (0, "0,1,1\n1,0,0,1\n")


# ---------------------------------------------------------------------------
# exact stdout on fixed inputs, and the size bounds of every command
# ---------------------------------------------------------------------------

REVERT_INVERSE = '{"inverse": ["1/2", "-1/24", "7/96", "-65/1152", "1745/13824"]}\n'


@pytest.mark.parametrize(
    "argv, want",
    [
        *[
            (["series", "revert", "--coeffs", "2,1/3,-1", "--order", "5", "--path", path],
             REVERT_INVERSE)
            for path in ("msp", "comtet", "oracle", "all")
        ],
        (["series", "compose", "--f", "1,1/2,0,3", "--g", "2,-1", "--order", "5"],
         '{"composition": ["2", "1", "-3", "99/2", "-240"]}\n'),
        (["series", "exp-transform", "--coeffs", "1,-1/2,1/3", "--order", "4"],
         '{"rows": [["0", "1"], ["0", "-1/2", "1"], ["0", "1/3", "-3/2", "1"],'
         ' ["0", "0", "25/12", "-3", "1"]]}\n'),
        (["stirling", "table", "--kind", "s1", "--n", "5"],
         "n=0: 1\nn=1: 0 1\nn=2: 0 -1 1\nn=3: 0 2 -3 1\nn=4: 0 -6 11 -6 1\n"
         "n=5: 0 24 -50 35 -10 1\n"),
        (["stirling", "table", "--kind", "s2", "--n", "5"],
         "n=0: 1\nn=1: 0 1\nn=2: 0 1 1\nn=3: 0 1 3 1\nn=4: 0 1 7 6 1\n"
         "n=5: 0 1 15 25 10 1\n"),
        (["stirling", "table", "--kind", "c", "--n", "5"],
         "n=0: 1\nn=1: 0 1\nn=2: 0 1 1\nn=3: 0 2 3 1\nn=4: 0 6 11 6 1\n"
         "n=5: 0 24 50 35 10 1\n"),
        (["stirling", "table", "--kind", "assoc", "--n", "5"],
         "n=0: 1\nn=1: 0 0\nn=2: 0 1 0\nn=3: 0 1 0 0\nn=4: 0 1 3 0 0\n"
         "n=5: 0 1 10 0 0 0\n"),
        (["stirling", "table", "--kind", "lah", "--n", "5"],
         "n=0: 1\nn=1: 0 1\nn=2: 0 2 1\nn=3: 0 6 6 1\nn=4: 0 24 36 12 1\n"
         "n=5: 0 120 240 120 20 1\n"),
        (["stirling", "table", "--kind", "lah", "--n", "3", "--format", "json"],
         '{"kind":"lah","n":3,"rows":[["1"],["0","1"],["0","2","1"],["0","6","6","1"]]}\n'),
        (["stirling", "table", "--kind", "assoc", "--n", "2", "--format", "csv"],
         "n,k,value\n0,0,1\n1,0,0\n1,1,0\n2,0,0\n2,1,1\n2,2,0\n"),
        (["ptypes", "list", "7", "3"], "0,2,1\n1,0,2\n1,1,0,1\n2,0,0,0,1\n"),
    ],
)
def test_stdout_pinned(capsys, argv, want):
    assert run_cli(capsys, *argv)[:2] == (0, want)


def test_series_revert_disagreement_report(capsys, monkeypatch):
    monkeypatch.setattr(cli.series, "revert_oracle", lambda f: (0,) * f.order)
    code, out, err = run_cli(
        capsys, "series", "revert", "--coeffs", "1,1", "--order", "2", "--path", "all"
    )
    assert code == 1
    assert out == '{"paths": {"msp": ["1", "-1"], "comtet": ["1", "-1"], "oracle": ["0", "0"]}}\n'
    assert err == "error: reversion paths disagree\n"


# each size argument, given as "{}" in argv, with a value below its lower
# bound and, except k, one above the MSPKIT_MAX_N cap of 6
SIZE_ARGS = {
    "gen n": (["msp", "gen", "--kind", "B", "--n", "{}"], "n", 0),
    "gen k": (["msp", "gen", "--kind", "B", "--n", "3", "--k", "{}"], "k", 0),
    "table n": (["stirling", "table", "--kind", "s2", "--n", "{}"], "n", -1),
    "revert order": (["series", "revert", "--coeffs", "1", "--order", "{}"], "order", 0),
    "compose order": (["series", "compose", "--f", "1", "--g", "1", "--order", "{}"], "order", 0),
    "exp-transform order": (["series", "exp-transform", "--coeffs", "1", "--order", "{}"],
                            "order", 0),
    "ptypes n": (["ptypes", "list", "{}", "2"], "n", -1),
    "ptypes k": (["ptypes", "list", "4", "{}"], "k", -1),
    "verify max-n": (["verify", "run", "--max-n", "{}"], "max-n", 0),
}


@pytest.mark.parametrize(
    "label, value",
    [(label, SIZE_ARGS[label][2]) for label in SIZE_ARGS]
    + [(label, 7) for label in SIZE_ARGS if label not in ("gen k", "ptypes k")],
)
def test_size_arguments_out_of_bounds_exit_2(capsys, monkeypatch, label, value):
    monkeypatch.setenv("MSPKIT_MAX_N", "6")
    template, name, _ = SIZE_ARGS[label]
    with pytest.raises(SystemExit) as exc:
        cli.main([str(value) if arg == "{}" else arg for arg in template])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


# ---------------------------------------------------------------------------
# the parser built for one argv parses it as the whole tree does; an argv that
# names no command, such as [], builds the whole tree
# ---------------------------------------------------------------------------

LEAF_ARGS = {
    ("msp", "gen"): ["--kind", "S", "--n", "3", "--k", "1", "--format", "latex", "--force"],
    ("stirling", "table"): ["--kind", "lah", "--n", "4", "--format", "csv"],
    ("series", "revert"): ["--coeffs", "1,1/2", "--order", "3", "--path", "all"],
    ("series", "compose"): ["--f", "1,1", "--g", "1,-1", "--order", "3"],
    ("series", "exp-transform"): ["--coeffs", "1,2", "--order", "3"],
    ("ptypes", "list"): ["5", "2"],
    ("verify", "run"): ["--max-n", "4", "--only", "table1-golden", "--seed", "3",
                        "--format", "json"],
}

PARSER_ARGVS = [
    [], ["-h"], ["bogus"],
    *[[command, "-h"] for command in cli._COMMANDS],
    *[[command, "bogus"] for command in cli._COMMANDS],
    *[[*leaf, *args] for leaf, args in LEAF_ARGS.items()],
    *[[*leaf, "-h"] for leaf in LEAF_ARGS],
    # every leaf has a required argument
    *[list(leaf) for leaf in LEAF_ARGS],
    *[[*leaf, *args, "--bogus"] for leaf, args in LEAF_ARGS.items()],
]


def parse_outcome(parser, argv, capsys):
    """The parsed arguments, or the exit code, with the captured output."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_for_argv_parses_it_as_the_whole_tree(capsys, argv):
    whole, slim = cli._build_parser([]), cli._build_parser(argv)
    # handlers report usage errors through the top-level parser
    assert slim.format_usage() == whole.format_usage()
    assert parse_outcome(slim, argv, capsys) == parse_outcome(whole, argv, capsys)


def test_parser_for_one_leaf_builds_no_other_subtree(capsys):
    parser = cli._build_parser(["series", "compose"])
    assert list(subparsers(parser)) == ["series"]
    for argv, error in [
        (["series", "revert", "--coeffs", "1", "--order", "1"], "invalid choice: 'revert'"),
        (["msp", "gen", "--kind", "S", "--n", "3"], "invalid choice: 'msp'"),
    ]:
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert error in capsys.readouterr().err


# the one-command parser spells out all five commands in its usage line only:
# errors still name the top-level and command-level actions by their dest
@pytest.mark.parametrize("argv, error", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["msp", "bogus"], "argument subcommand: invalid choice: 'bogus'"),
])
def test_an_invalid_choice_names_the_action_by_its_dest(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert error in capsys.readouterr().err


def test_a_handler_usage_error_prints_the_whole_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", "--kind", "S", "--n", "3", "--k", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[0] == (
        "usage: mspkit [-h] {msp,stirling,series,ptypes,verify} ...")


@pytest.mark.parametrize("leaf", LEAF_ARGS, ids=" ".join)
def test_parser_for_one_leaf_names_its_parsers_as_the_whole_tree(leaf):
    command, leaf_name = leaf
    progs = []
    for parser in (cli._build_parser([]), cli._build_parser([*leaf, *LEAF_ARGS[leaf]])):
        p_command = subparsers(parser)[command]
        progs.append((p_command.prog, subparsers(p_command)[leaf_name].prog))
    assert progs[0] == progs[1] == (f"mspkit {command}", f"mspkit {command} {leaf_name}")


@pytest.mark.parametrize("argv", [["ptypes", "list", "5", "2"],
                                  ["series", "compose", "--f", "1,1", "--g", "1", "--order", "3"]])
def test_main_takes_a_list_tuple_or_iterator(capsys, argv):
    outcomes = [(cli.main(seq), capsys.readouterr().out)
                for seq in (argv, tuple(argv), iter(argv))]
    assert outcomes == [(0, outcomes[0][1])] * 3


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["mspkit", "ptypes", "list", "5", "2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "0,1,1\n1,0,0,1\n"
