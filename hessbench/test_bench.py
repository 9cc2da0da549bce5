"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest hessbench/test_bench.py

The first test runs every workload once untraced and once traced, which
takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hessbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in run.declared(bool(trace))}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_output_counts_as_failed(monkeypatch):
    from hessgkm.classify import ClassificationReport

    original = ClassificationReport.to_json_dict

    def corrupted(report):
        out = original(report)
        if report.n == 8:
            out["cell_dimension"] += 1
        return out

    def in_process(workload, seed, pass_index, mode, ends_by, trace=False):
        spec = {"workload": workload, "seed": seed, "pass": pass_index, "mode": mode, "trace": trace, "src": str(ROOT / "src")}
        return worker.run(spec)

    monkeypatch.setattr(ClassificationReport, "to_json_dict", corrupted)
    monkeypatch.setattr(run, "child", in_process)
    result = run.run_workload("classify", 1, 0.0, False)
    # With no time budget the run makes one pass: 50 rank-7 and 10 rank-8 ops.
    assert result["attempted"] == 60
    assert result["failed"] == 10
    assert not result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "hessbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "classify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
