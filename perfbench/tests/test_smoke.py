"""One short run of each workload through the command line (~2 min)."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import layers
import run as bench

PERFBENCH = pathlib.Path(__file__).resolve().parents[1]
REPO = PERFBENCH.parent


def _run(workload, trace, cwd=REPO, seconds="1"):
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("paper-figures", 0), ("failure-sweep", 0), ("fabric-serve", 0),
    ("failure-sweep", 1)])
def test_workload_reports_every_metric_correctly(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    *_, detail_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail
    assert detail["seed"] == 7 and detail["provenance"]["cpu_count"]
    expected = (dict(bench.END_TO_END) if not trace
                else layers.PER_LAYER_UNITS)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert not detail["failed_checks"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("failure-sweep", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
