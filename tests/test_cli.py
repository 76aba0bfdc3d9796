"""CLI dispatch, output formats and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mspkit import cli, msp
from mspkit.poly import LaurentX1, MPoly


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
                parsed = MPoly.from_json_dict(json.loads(out))
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
            assert LaurentX1.from_json_dict(data) == msp.lie_first(n, k)


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


@pytest.mark.parametrize("raw", ["abc", "", "2.5", "-1"])
def test_env_cap_rejects_bad_value(capsys, monkeypatch, raw):
    monkeypatch.setenv("MSPKIT_MAX_N", raw)
    with pytest.raises(SystemExit) as exc:
        cli.main(["ptypes", "list", "4", "2"])
    assert exc.value.code == 2
    assert "MSPKIT_MAX_N must be a nonnegative integer" in capsys.readouterr().err


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
        assert MPoly.from_json_dict(json.loads(out)) == want
    else:
        assert out == f"$Bn_{{3}}={want.to_latex()}$\n"


def test_gen_complete_bell_rejects_k(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["msp", "gen", "--kind", "Bn", "--n", "3", "--k", "1"])
    assert exc.value.code == 2
    assert "--k does not apply to --kind Bn" in capsys.readouterr().err


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


@pytest.mark.parametrize("only", [",", ""])
def test_verify_run_empty_selection_exits_2(capsys, only):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "run", "--max-n", "3", "--only", only])
    assert exc.value.code == 2
    assert "empty check selection" in capsys.readouterr().err


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
