"""Smoke test of the benchmark: every workload at a tiny size.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the checkout
root.  It asserts that each workload emits exactly the metrics that
BENCHMARK.json names, with their units, that a wrong expected value is
counted as a failed check, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_spec_names_the_metrics_the_benchmark_emits():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_emits_every_metric(workload, trace, tmp_path):
    done = _bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "smoke", "--out-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / f"spans-{workload}-seed3.tsv").exists()


def test_corrupted_expectation_counts_as_failure(tmp_path, capsys, monkeypatch):
    wrong = {"rank3_in_hyperplane_pair": 167}
    monkeypatch.setitem(workloads.EXPECTED_CONTAINMENT, (2, 2), wrong)
    status = run.main([
        "--workload", "containment", "--seconds", "0", "--size", "smoke",
        "--out-dir", str(tmp_path),
    ])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    record = json.loads((tmp_path / "runs.jsonl").read_text(encoding="utf-8").splitlines()[-1])
    assert record["failed_frac"] == result["failed"] / result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "forms", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
