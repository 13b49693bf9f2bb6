"""CLI surface: subcommands, exit codes, output formats, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import prmquadrics
from prmquadrics.cli import MAX_BUDGET, main
from prmquadrics.prm import survey


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_classify_exception_form():
    code, out, _ = run_cli(
        ["classify", "X0^2+X0*X1+X1^2+X2*X3", "--q", "2", "--N", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "elliptic"
    assert payload["rank"] == 4
    assert payload["point_count"] == 5


def test_points_subcommand():
    code, out, _ = run_cli(["points", "X0*X1", "--q", "2", "--N", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["points"] == ["(0:1)", "(1:0)"]


def test_code_info():
    code, out, _ = run_cli(["code", "info", "--q", "3", "--N", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"q": 3, "N": 2, "length": 13, "dimension": 6, "min_distance": 6}


def test_minimal_methods_agree():
    argv = ["minimal", "X0^2+X1*X2", "--q", "3", "--N", "2"]
    verdicts = {}
    for method in ("char", "interp", "exhaustive"):
        code, out, _ = run_cli(argv + ["--method", method])
        assert code == 0
        verdicts[method] = json.loads(out)
    assert all(not v["minimal"] for v in verdicts.values())
    assert verdicts["char"]["witness"] is None
    assert verdicts["interp"]["witness"] is not None


def test_census_exhaustive_2_3():
    code, out, _ = run_cli(
        ["census", "--q", "2", "--N", "3", "--method", "exhaustive", "--workers", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"weight": 4, "closed": 105, "brute": 105},
        {"weight": 6, "closed": 280, "brute": 280},
    ]


def test_census_csv_and_out_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["census", "--q", "2", "--N", "2", "--method", "exhaustive",
         "--workers", "1", "--format", "csv", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines() == ["weight,closed,brute", "2,21,21"]


def test_census_worker_output_identical():
    for argv in (
        ["census", "--q", "2", "--N", "2", "--method", "char"],
        ["verify", "containment", "--q", "3", "--N", "2", "--limit", "50"],
    ):
        _, out1, _ = run_cli(argv + ["--workers", "1"])
        _, out2, _ = run_cli(argv + ["--workers", "2"])
        assert out1 and out1 == out2


def test_verify_subcommands_pass():
    for argv in (
        ["verify", "exception"],
        ["verify", "serre", "--q", "2", "--N", "2"],
        ["verify", "pencil", "--q", "2"],
        ["verify", "pencil", "--q", "3"],
        ["verify", "containment", "--q", "2", "--N", "2", "--workers", "1", "--limit", "2"],
    ):
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        payload = json.loads(out)
        assert payload.get("holds", True)


def test_verify_containment_dump_shape():
    code, out, _ = run_cli(
        ["verify", "containment", "--q", "2", "--N", "2", "--workers", "1", "--limit", "1"]
    )
    payload = json.loads(out)
    assert payload["violation_count"] > 0
    assert payload["shapes"] == {"rank3_in_hyperplane_pair": payload["violation_count"]}
    assert len(payload["violations"]) == 1
    v = payload["violations"][0]
    assert {"form", "witness", "form_report", "witness_report", "shape"} == set(v)


def test_usage_errors_exit_2(tmp_path):
    cases = [
        ["classify", "X0 + X1", "--q", "2", "--N", "3"],      # non-homogeneous
        ["classify", "X0*X9", "--q", "2", "--N", "3"],        # unknown variable
        ["classify", "X0^2", "--q", "6", "--N", "2"],         # not a prime power
        ["classify", "X0^2", "--q", "27", "--N", "2"],        # beyond max order
        ["classify", "0", "--q", "2", "--N", "2"],            # zero form
        ["census", "--q", "2", "--N", "5"],                   # budget exceeded
        ["code", "info"],                                     # missing --q/--N
        ["minimal", "X0^2", "--q", "4", "--N", "2", "--format", "csv"],  # no csv here
    ]
    one_line = [
        ["census", "--q", "2", "--N", "2", "--workers", "0"],
        ["verify", "containment", "--workers", "-3"],
        ["verify", "exception", "--out", str(tmp_path / "missing" / "x")],
        ["verify", "pencil", "--q", "16"],                    # budget exceeded
        ["verify", "serre", "--q", "7", "--N", "3"],          # budget exceeded
        ["verify", "serre", "--q", "3", "--N", "3", "--budget", "10"],
        ["verify", "serre", "--q", "2", "--N", "0"],
        ["verify", "serre", "--q", "27", "--N", "1"],          # beyond max order
        ["verify", "containment", "--q", "2", "--N", "2", "--limit", "-1"],
        ["classify", "X0*X1", "--q", "2", "--N", "40"],       # too many points
        ["classify", "X0*X1", "--q", "2", "--N", "1000000000"],
        ["census", "--q", "2", "--N", "-1"],                  # no form space
        ["verify", "containment", "--q", "2", "--N", "-1"],
        ["verify", "containment", "--q", "2", "--N", "0"],
        ["minimal", "X0*X1", "--q", "4", "--N", "3", "--method", "exhaustive"],
        ["classify", "X0\u00b2", "--q", "4", "--N", "3"],           # superscript two
        ["classify", "X\u0663*X0", "--q", "4", "--N", "3"],         # Arabic-Indic three
        ["classify", "1" * 5000 + "*X0*X1", "--q", "4", "--N", "3"],  # beyond int()
        ["classify", "(z^" + "1" * 5000 + ")*X0*X1", "--q", "4", "--N", "3"],
        ["classify", "X0^2", "--q", "2", "--N", "-1"],
        ["points", "0", "--q", "2", "--N", "-1"],
        ["census", "--q", "1", "--N", "2"],                   # no field order
        ["verify", "serre", "--q", "1", "--N", "2"],
        ["verify", "containment", "--q", "1", "--N", "2"],
        ["verify", "pencil", "--q", "1"],
    ]
    for argv in cases + one_line:
        code, _, err = run_cli(argv)
        assert code == 2, (argv, err)
    for argv in one_line:
        _, _, err = run_cli(argv)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    _, _, err = run_cli(["verify", "serre", "--q", "2", "--N", "0"])
    assert "N >= 1" in err, err
    for command, form in (("classify", "X0^2"), ("points", "0")):
        _, _, err = run_cli([command, form, "--q", "2", "--N", "-1"])
        assert err == "error: --N must be at least 0, got -1\n", err


def test_csv_refused_before_any_scan():
    before = survey.cache_info()
    code, out, err = run_cli(
        ["verify", "containment", "--q", "2", "--N", "4", "--format", "csv", "--workers", "1"]
    )
    assert (code, out, err) == (2, "", "error: subcommand 'verify' has no CSV output\n")
    assert survey.cache_info() == before


def test_budget_above_the_ceiling_refused_before_any_survey():
    before = survey.cache_info()
    for argv in (
        ["census", "--q", "25", "--N", "3", "--budget", "4000000000000"],
        ["verify", "serre", "--q", "25", "--N", "3", "--budget", str(MAX_BUDGET + 1)],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: --budget") and err.count("\n") == 1, (argv, err)
    assert survey.cache_info() == before
    code, _, err = run_cli(
        ["census", "--q", "2", "--N", "2", "--workers", "1", "--budget", str(MAX_BUDGET)]
    )
    assert code == 0, err


def test_table_format():
    code, out, _ = run_cli(
        ["census", "--q", "2", "--N", "2", "--method", "char",
         "--workers", "1", "--format", "table"]
    )
    assert code == 0
    assert "weight" in out and "21" in out


def test_module_entrypoint_subprocess():
    # The child imports the same package as this process, wherever it is.
    src = str(Path(prmquadrics.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "prmquadrics.cli", "verify", "exception"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True
