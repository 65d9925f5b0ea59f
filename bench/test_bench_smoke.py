"""Smoke test of the benchmark harness: each workload once, at a tiny size.

    python3 -m pytest bench/test_bench_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no operation fails, that a traced run's layer self times and
unattributed time add up to its traced pass time, and that the harness
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)


def result_of(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stdout
    assert result["correct"] is True
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(workload, trace=0)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_add_up(workload):
    metrics = result_of(workload, trace=1)
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_times + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)


def test_refuses_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bench)
    done = run(WORKLOADS[0], 0, bench)
    assert done.returncode != 0
    assert "correct" not in done.stdout
