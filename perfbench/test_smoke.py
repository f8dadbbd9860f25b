"""Smoke test: every workload prints every named metric, with its unit.

Run from the repository root with `python3 -m pytest -q perfbench/test_smoke.py`.
It takes about a minute: each run is short, but still makes at least 100 ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 100
    if workload != "cli":
        assert result["failed"] == 0, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


def test_refuses_to_run_without_the_package():
    scratch = HERE / "out" / "no-src"
    shutil.rmtree(scratch, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, scratch / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    try:
        proc = bench(scratch, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""
