"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no command fails, that traced work counts repeat across processes, that
a run of the benchmark's length holds no job twice, and that the benchmark
refuses to run without a source tree.
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
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload, trace, seconds, root=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.splitlines()


def check_printed(lines, result, metrics):
    for m in metrics:
        name, unit = m["name"], m["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_no_failures(workload):
    proc, lines = bench(workload, 0, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    n_jobs = len(run.job_list(workload, 3, 1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == run.PASSES * n_jobs
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    check_printed(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio = 0 ratio" in lines
    extra = "cells_per_s" if workload.startswith("eta-") else "exact_verdict_ratio"
    assert any(line.startswith(f"{extra} = ") for line in lines)


def test_traced_metrics_repeat_across_processes():
    counts = []
    for _ in range(2):
        proc, lines = bench("certify", 1, 2)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        check_printed(lines, result, SPEC["per_layer"])
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["proximality.decide.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_holds_no_job_twice(workload):
    for seed in range(5):
        todo = run.job_list(workload, seed, SPEC["run_seconds"])
        assert len({job.key for job in todo}) == len(todo)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench(WORKLOADS[0], 0, 1, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
