"""Smoke test of the benchmark: the shortest run of every workload, untraced
and traced. It checks that every metric BENCHMARK.json declares is printed
with its unit, that the human-readable metrics are printed, and that no
operation failed. It asserts nothing about timings.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed(workload):
    lines, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"] and printed["value"] > 0
    assert any(line.startswith("stamp: ") for line in lines)
    assert any(line.startswith("metric failed_frac = 0 ratio") for line in lines)
    expected = ["setup_s", "wall_s", "steps_per_s", "peak_rss_mb"]
    if workload.startswith("pca"):
        expected += ["steps_per_s.rgd", "steps_per_s.spel", "steps_per_s.mm"]
    if workload == "pca-default":
        expected += ["iters_to_tol.spel", "iters_to_tol.mm"]
    for name in expected:
        assert any(line.startswith(f"metric {name} = ") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed(workload):
    _, result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if workload != "pca-default":
        assert result["metrics"]["linalg.msign_iterative.calls"]["value"] == 0
