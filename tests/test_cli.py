"""CLI surface: subcommands, exit codes, output formats, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_CPUS

import prmquadrics
from prmquadrics import census, prm, quadric
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


def test_census_exhaustive_2_3(pools):
    """In process at (2,3), and from a pool at (2,4), whose 8 blocks start one."""
    argv = ["census", "--q", "2", "--method", "exhaustive"]
    code, out, _ = run_cli(argv + ["--N", "3", "--workers", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"weight": 4, "closed": 105, "brute": 105},
        {"weight": 6, "closed": 280, "brute": 280},
    ]
    code, out, _ = run_cli(argv + ["--N", "4", "--workers", "2"])
    assert code == 0
    assert json.loads(out)["rows"] == [
        {"weight": 8, "closed": 465, "brute": 465},
        {"weight": 12, "closed": 8680, "brute": 8680},
        {"weight": 16, "closed": 13888, "brute": 13888},
    ]
    assert len(pools) == TWO_CPUS


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
        ["verify", "containment", "--q", "3", "--N", "3", "--limit", "50"],
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


def test_verify_containment_theorem_failure_exits_1(no_elliptic_in_hyperbolic):
    code, out, err = run_cli(["verify", "containment", "--q", "2", "--N", "3", "--workers", "1"])
    assert code == 1 and out == ""
    payload = {
        "target": "containment",
        "error": "inadmissible containment: elliptic rank 4 inside hyperbolic rank 4",
    }
    assert err == f"verification failed: {json.dumps(payload, sort_keys=True)}\n"


def test_verify_containment_equal_zero_set_exits_1(hidden_strict_witness):
    code, out, err = run_cli(["verify", "containment", "--q", "2", "--N", "3", "--workers", "1"])
    assert code == 1 and out == "" and err.count("\n") == 1
    payload = {
        "target": "containment",
        "error": "equal zero sets: another form vanishes exactly where parabolic rank 3 does",
    }
    assert err == f"verification failed: {json.dumps(payload, sort_keys=True)}\n"


_FORM_TOKENS = ("X0", "X1", "X3", "X9", "x2", "^2", "^", "*", "+", "-", "(", ")", "z", "z^3",
                "2", "0", "\u00b2", "X", " ")


@st.composite
def _argv(draw):
    """A command line of one subcommand with a field order, N and budget
    drawn from valid and invalid values, and a form from the token soup."""
    command = draw(st.sampled_from(["classify", "points", "minimal", "code", "census", "verify"]))
    q = draw(st.sampled_from([2, 3, 4, 25, 2, 3, 4, 0, 1, -2, 6, 27]))
    n = draw(st.sampled_from([1, 2, 3, 2, 3, 2, 0, -1, -7, 40, 10**9]))
    fmt = draw(st.sampled_from(["json", "json", "json", "table", "csv"]))
    tail = ["--q", str(q), "--N", str(n), "--format", fmt]
    method = ["--method", draw(st.sampled_from(["char", "interp", "exhaustive"]))]
    budget = ["--budget", str(draw(st.sampled_from([-1, 0, 10, 400, MAX_BUDGET + 1, 10**30])))]
    form = draw(
        st.sampled_from(["X0*X1 + X2^2", "X0^2 + X1*X2", "X0*X1", "z*X0^2 + X1^2 + X0*X1"])
        | st.lists(st.sampled_from(_FORM_TOKENS), min_size=1, max_size=6).map("".join)
    )
    if command in ("classify", "points"):
        return [command, form, *tail]
    if command == "minimal":
        return [command, form, *tail, *method]
    if command == "code":
        return [command, "info", *tail]
    if command == "census":
        return [command, *tail, *method, "--workers", "1", *budget]
    target = draw(st.sampled_from(["containment", "exception", "serre", "pencil"]))
    return [command, target, *tail, "--workers", "1", *budget]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(argv=_argv())
def test_any_command_line_exits_0_1_or_2(argv):
    """Every command line exits 0, 1 or 2, never with a traceback, and a
    usage error or a failed check is one line on stderr."""
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        prefix = "error: " if code == 2 else "verification failed: "
        assert err.startswith(prefix) and err.count("\n") == 1, (argv, err)


def test_usage_errors_exit_2(tmp_path):
    cases = [
        ["classify", "X0 + X1", "--q", "2", "--N", "3"],      # non-homogeneous
        ["classify", "X0*X9", "--q", "2", "--N", "3"],        # unknown variable
        ["classify", "X0^2", "--q", "6", "--N", "2"],         # not a prime power
        ["classify", "X0^2", "--q", "27", "--N", "2"],        # beyond max order
        ["classify", "0", "--q", "2", "--N", "2"],            # zero form
        ["census", "--q", "2", "--N", "5"],                   # budget exceeded
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
        # a flag the target does not read
        ["verify", "exception", "--q", "5", "--N", "7"],
        ["verify", "exception", "--N", "3"],
        ["verify", "exception", "--workers", "1"],
        ["verify", "exception", "--budget", "100"],
        ["verify", "exception", "--limit", "10"],
        ["verify", "pencil", "--q", "3", "--N", "40"],
        ["verify", "pencil", "--workers", "2"],
        ["verify", "pencil", "--limit", "3"],
        ["verify", "serre", "--q", "2", "--N", "2", "--workers", "1"],
        ["verify", "serre", "--limit", "0"],
        # argparse's own errors, a form read as an option among them
        ["classify", "-X0^2", "--q", "3", "--N", "2"],
        ["census", "--q", "2", "--N", "2", "--method", "bogus"],
        ["verify", "containment", "--q", "x"],
        ["code", "info"],                                     # missing --q/--N
        ["minimal", "X0^2", "--q", "4", "--N", "2", "--format", "csv"],  # census only
        ["classify", "X0^2", "--q", "3", "--N", "2", "--format", "csv"],
    ]
    for argv in cases + one_line:
        code, _, err = run_cli(argv)
        assert code == 2, (argv, err)
    for argv in one_line:
        _, _, err = run_cli(argv)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    _, _, err = run_cli(["verify", "serre", "--q", "2", "--N", "0"])
    assert "N >= 1" in err, err
    _, _, err = run_cli(["classify", "-X0^2", "--q", "3", "--N", "2"])
    assert "'--'" in err, err
    _, _, err = run_cli(["verify", "exception", "--q", "5", "--N", "7"])
    assert err == "error: verify exception does not read --q\n", err
    _, _, err = run_cli(["verify", "pencil", "--q", "3", "--N", "40"])
    assert err == "error: verify pencil does not read --N\n", err
    for command, form in (("classify", "X0^2"), ("points", "0")):
        _, _, err = run_cli([command, form, "--q", "2", "--N", "-1"])
        assert err == "error: --N must be at least 0, got -1\n", err


def test_help_exits_0():
    for argv in (["--help"], ["classify", "--help"], ["verify", "--help"]):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "") and out.startswith("usage: prmquadrics"), argv


def _failed_check(argv) -> dict:
    """The payload of the one ``verification failed:`` line that ``argv``
    prints, having exited 1 with nothing on stdout."""
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "") and err.count("\n") == 1, (argv, code, err)
    assert err.startswith("verification failed: "), err
    return json.loads(err.removeprefix("verification failed: "))


def test_unequal_conic_profiles_exit_1(monkeypatch):
    """Drop the first conic's pairs from the containment table: that conic
    counts no line pair, the others 3, so the profiles differ."""
    verify_containment = census.verify_containment

    def first_conic_dropped(q, n, **kwargs):
        table = verify_containment(q, n, **kwargs)
        k = table.form_rows.count(table.form_rows[0])
        columns = ("form_rows", "witness_rows", "scalars", "shapes")
        return replace(table, **{name: getattr(table, name)[k:] for name in columns})

    monkeypatch.setattr(census, "verify_containment", first_conic_dropped)
    payload = _failed_check(["verify", "pencil", "--q", "3"])
    assert payload["target"] == "pencil"
    assert payload["error"].startswith("conic interpolation profile is not uniform: ")


def test_unmet_serre_bound_exits_1(no_form_at_the_serre_bound):
    """The verdict goes to stdout as usual, then one failure line."""
    code, out, err = run_cli(["verify", "serre", "--q", "2", "--N", "2"])
    assert code == 1 and err.count("\n") == 1 and err.startswith("verification failed: "), err
    payload = json.loads(out)
    assert payload == json.loads(err.removeprefix("verification failed: "))
    assert (payload["holds"], payload["bound"]) == (False, 5) and payload["max_observed"] < 5


def test_unmatched_census_exits_1(monkeypatch):
    """A closed-form count off by one: the table goes to stdout as usual,
    then one failure line with the same table."""
    closed_form = census.minimal_count_closed_form

    def off_by_one(q, n):
        table = closed_form(q, n)
        (w, c, b), *rest = table.rows
        return replace(table, rows=((w, c + 1, b), *rest))

    monkeypatch.setattr(census, "minimal_count_closed_form", off_by_one)
    code, out, err = run_cli(["census", "--q", "2", "--N", "2", "--method", "char"])
    assert code == 1 and err.count("\n") == 1 and err.startswith("verification failed: "), err
    payload = json.loads(out)
    assert payload == json.loads(err.removeprefix("verification failed: "))
    assert payload["rows"] == [{"weight": 2, "closed": 22, "brute": 21}]


def test_failed_counting_identity_exits_1(monkeypatch):
    """A point count off by one matches no class formula in ``discriminate``."""
    discriminate = quadric.discriminate
    monkeypatch.setattr(
        quadric, "discriminate", lambda rk, count, n, q: discriminate(rk, count + 1, n, q)
    )
    payload = _failed_check(["classify", "X0^2+X1*X2", "--q", "3", "--N", "2"])
    assert payload == {"target": "classify", "error": "rank-3 form with 5 points"}


def test_span_without_a_larger_zero_set_exits_1(monkeypatch):
    monkeypatch.setattr(prm, "iter_span_monic", lambda field, basis: iter(()))
    payload = _failed_check(["minimal", "X0^2+X1*X2", "--q", "3", "--N", "2", "--method", "interp"])
    assert payload == {
        "target": "minimal",
        "error": "a span of dimension 2 holds no larger zero set",
    }


def test_csv_refused_before_any_scan():
    before = survey.cache_info()
    code, out, err = run_cli(
        ["verify", "containment", "--q", "2", "--N", "4", "--format", "csv", "--workers", "1"]
    )
    assert (code, out) == (2, "")
    assert err == "error: argument --format: invalid choice: 'csv' (choose from 'json', 'table')\n"
    assert survey.cache_info() == before


def test_budget_above_the_ceiling_refused_before_any_survey():
    before = survey.cache_info()
    for argv in (
        ["census", "--q", "25", "--N", "3", "--budget", "4000000000000"],
        ["verify", "serre", "--q", "25", "--N", "3", "--budget", str(MAX_BUDGET + 1)],
        ["census", "--q", "2", "--N", "2", "--budget", "-1"],
        ["verify", "containment", "--q", "2", "--N", "2", "--budget", "0"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: --budget") and err.count("\n") == 1, (argv, err)
    code, _, err = run_cli(["census", "--q", "2", "--N", "2", "--budget", "-1"])
    assert err == "error: --budget must be at least 1, got -1\n"
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


def _pinned_argv():
    """The command lines whose exit code and stdout bytes are pinned."""
    for q, n in ((2, 3), (9, 2), (25, 2)):
        qn = ["--q", str(q), "--N", str(n)]
        for form in ("X0^2+X1*X2", "X0*X1+X2^2"):
            yield ["classify", form, *qn]
            yield ["points", form, *qn]
            for method in ("char", "interp", "exhaustive"):
                yield ["minimal", form, *qn, "--method", method]
        yield ["code", "info", *qn]
    for q, n in ((2, 3), (3, 2)):
        for method in ("char", "interp", "exhaustive"):
            for fmt in ("json", "table", "csv"):
                yield ["census", "--q", str(q), "--N", str(n), "--method", method,
                       "--format", fmt, "--workers", "1"]
    yield ["verify", "serre"]
    yield ["verify", "pencil"]
    yield ["verify", "containment", "--limit", "50", "--workers", "1"]
    yield ["verify", "exception"]


PINNED_STDOUT = {
    "classify X0^2+X1*X2 --q 2 --N 3": "50c82668a89f82a941d29020a1b1a587",
    "points X0^2+X1*X2 --q 2 --N 3": "efe80a0c550d5bd475668b21094a0f35",
    "minimal X0^2+X1*X2 --q 2 --N 3 --method char": "657f469e2653a66d7c3b4921952f80bd",
    "minimal X0^2+X1*X2 --q 2 --N 3 --method interp": "c6b459729333fec9ce970d786f7f0ba6",
    "minimal X0^2+X1*X2 --q 2 --N 3 --method exhaustive": "30adddd7a8459edad578f218856853be",
    "classify X0*X1+X2^2 --q 2 --N 3": "665cf23ea246f38cd8ac88debf637379",
    "points X0*X1+X2^2 --q 2 --N 3": "b13b32102ff1ce8c2d04ea0531a37959",
    "minimal X0*X1+X2^2 --q 2 --N 3 --method char": "ed06b0ad52b133f0b83ea07fed119fc4",
    "minimal X0*X1+X2^2 --q 2 --N 3 --method interp": "b5b75ef2730ae48ba12b4aa767aff783",
    "minimal X0*X1+X2^2 --q 2 --N 3 --method exhaustive": "862ada02d916362a81a4d3f330eb5ef4",
    "code info --q 2 --N 3": "17809998f3f4c40043c79b44e07b283d",
    "classify X0^2+X1*X2 --q 9 --N 2": "94cf0ba21b74762dcaa5f7554adefc62",
    "points X0^2+X1*X2 --q 9 --N 2": "426bf6bc139595f6fd799657d06dc6aa",
    "minimal X0^2+X1*X2 --q 9 --N 2 --method char": "4d2b774aec4ce30905afcf30217f44ad",
    "minimal X0^2+X1*X2 --q 9 --N 2 --method interp": "382233b1a8770b0f8c38dc19f10f561d",
    "minimal X0^2+X1*X2 --q 9 --N 2 --method exhaustive": "26ab0db90d72e28ad0ba1e22ee510510",
    "classify X0*X1+X2^2 --q 9 --N 2": "ada4ae22756911bdfc6471187f42febc",
    "points X0*X1+X2^2 --q 9 --N 2": "73a73ca2580ae2d943003eadb60db3bb",
    "minimal X0*X1+X2^2 --q 9 --N 2 --method char": "aab1cb3995405ea851306067aca5a77e",
    "minimal X0*X1+X2^2 --q 9 --N 2 --method interp": "85f81c6b1e17f7e63eaede76695f06e2",
    "minimal X0*X1+X2^2 --q 9 --N 2 --method exhaustive": "26ab0db90d72e28ad0ba1e22ee510510",
    "code info --q 9 --N 2": "b3922f5af886938f20bf34bbf8eb4b08",
    "classify X0^2+X1*X2 --q 25 --N 2": "892d82fb1d8f4adb29cb6c1296199b93",
    "points X0^2+X1*X2 --q 25 --N 2": "09defdb6416567aed824755318feb1b0",
    "minimal X0^2+X1*X2 --q 25 --N 2 --method char": "84aff3ea8b5dce30f0f6dd8acdae7039",
    "minimal X0^2+X1*X2 --q 25 --N 2 --method interp": "2d1c60a20d9f518dea73774bbce21c49",
    "minimal X0^2+X1*X2 --q 25 --N 2 --method exhaustive": "26ab0db90d72e28ad0ba1e22ee510510",
    "classify X0*X1+X2^2 --q 25 --N 2": "a2568e54a867370a5abab08f0756e9e3",
    "points X0*X1+X2^2 --q 25 --N 2": "3ddaef8b979be54e58ed4be278af26af",
    "minimal X0*X1+X2^2 --q 25 --N 2 --method char": "1471922f418888add29f8775673f751c",
    "minimal X0*X1+X2^2 --q 25 --N 2 --method interp": "1b38e70af9800d322191b4c228d27ce1",
    "minimal X0*X1+X2^2 --q 25 --N 2 --method exhaustive": "26ab0db90d72e28ad0ba1e22ee510510",
    "code info --q 25 --N 2": "690fe17e8e2135c23515e36a8d230ed4",
    "census --q 2 --N 3 --method char --format json --workers 1": "2cf5edb39ff161a1a21b2f4efc70200d",
    "census --q 2 --N 3 --method char --format table --workers 1": "cd140e02bd87b1bfbfe9795897205c05",
    "census --q 2 --N 3 --method char --format csv --workers 1": "1f6fde8277aa864a5ab5ed75915ec3ac",
    "census --q 2 --N 3 --method interp --format json --workers 1": "2cf5edb39ff161a1a21b2f4efc70200d",
    "census --q 2 --N 3 --method interp --format table --workers 1": "cd140e02bd87b1bfbfe9795897205c05",
    "census --q 2 --N 3 --method interp --format csv --workers 1": "1f6fde8277aa864a5ab5ed75915ec3ac",
    "census --q 2 --N 3 --method exhaustive --format json --workers 1": "2cf5edb39ff161a1a21b2f4efc70200d",
    "census --q 2 --N 3 --method exhaustive --format table --workers 1": "cd140e02bd87b1bfbfe9795897205c05",
    "census --q 2 --N 3 --method exhaustive --format csv --workers 1": "1f6fde8277aa864a5ab5ed75915ec3ac",
    "census --q 3 --N 2 --method char --format json --workers 1": "37d90c3edf964fdde2efd3882c2fa168",
    "census --q 3 --N 2 --method char --format table --workers 1": "095b648072fd3e69b084426c1ad7b5de",
    "census --q 3 --N 2 --method char --format csv --workers 1": "16a15fdafc7544908e4af78dc5bfcc1c",
    "census --q 3 --N 2 --method interp --format json --workers 1": "37d90c3edf964fdde2efd3882c2fa168",
    "census --q 3 --N 2 --method interp --format table --workers 1": "095b648072fd3e69b084426c1ad7b5de",
    "census --q 3 --N 2 --method interp --format csv --workers 1": "16a15fdafc7544908e4af78dc5bfcc1c",
    "census --q 3 --N 2 --method exhaustive --format json --workers 1": "37d90c3edf964fdde2efd3882c2fa168",
    "census --q 3 --N 2 --method exhaustive --format table --workers 1": "095b648072fd3e69b084426c1ad7b5de",
    "census --q 3 --N 2 --method exhaustive --format csv --workers 1": "16a15fdafc7544908e4af78dc5bfcc1c",
    "verify serre": "728995d2f8ed67022573b89709361a1e",
    "verify pencil": "cc0a81a68e29bfa4caee998003ab0cf8",
    "verify containment --limit 50 --workers 1": "2187901fad2c39aab1c56aa899586959",
    "verify exception": "fa6d09d562fd50ddeb4f18961f52b14f",
}


def test_stdout_bytes_are_pinned():
    """The md5 of each pinned line's exit code and stdout: any change to
    these output bytes fails here, so a refactor keeps them identical."""
    got = {}
    for argv in _pinned_argv():
        code, out, _ = run_cli(argv)
        got[" ".join(argv)] = hashlib.md5(f"{code}\n{out}".encode()).hexdigest()
    assert got == PINNED_STDOUT


# Frontier spaces, P^4(GF(25)) with 406,901 points and P^10(GF(3)) with
# 88,573, where building the points and lanes used to dominate.
FRONTIER_STDOUT = {
    "classify X0*X1 --q 25 --N 4": "e1257b666b98f04a3ec0d46264c1dabf",
    "minimal X0*X1+X2*X3+X4^2 --q 25 --N 4 --method interp": "dfe3f12582eb91309bf7adebfecff722",
    "classify X0*X1+X2^2 --q 3 --N 10": "54d2288280809e78f91c4ffe71f08ea8",
}


@pytest.mark.parametrize("line", FRONTIER_STDOUT)
def test_frontier_stdout_is_pinned(line):
    code, out, _ = run_cli(line.split())
    assert hashlib.md5(f"{code}\n{out}".encode()).hexdigest() == FRONTIER_STDOUT[line]


def test_frontier_space_fits_in_16_mb():
    """P^4(GF(25)) and its 15 lanes of 406,901 bytes, traced in a fresh
    process so that no cached space is reused: about 6.5 MB with no
    per-point object, against 95 MB with one tuple per point."""
    src = str(Path(prmquadrics.__file__).resolve().parent.parent)
    code = (
        "import tracemalloc\n"
        "from prmquadrics.gf import field_from_order\n"
        "from prmquadrics.projspace import projective_space\n"
        "field = field_from_order(25)\n"
        "tracemalloc.start()\n"
        "space = projective_space(field, 4)\n"
        "space.monomial_rows()\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 2**20
