"""hessgkm benchmark.

Usage, from the repository root:

    python3 hessbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

``--workload`` is classify, sweep, weyl, export, or all.  The run prints one
line per metric, then as its last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json (``end_to_end`` for ``--trace 0``,
``per_layer`` for ``--trace 1``).

Untraced run: five set-up probes, then passes until ``--seconds`` would be
exceeded (at least one).  Every probe and pass is a fresh interpreter
(worker.py) started only after the previous one has ended, so one process
and one thread generate all load.  Reported: the medians over passes of
the pass time (the sum of the pass's op latencies), of the p50 and p90 op
latency within the pass, and of peak RSS; and the median set-up time over
probes and passes.  The times are scaled to the reference CPU speed (see
worker.py), so that they do not follow the swings of a shared CPU; the
unscaled figures are printed on the lines before the result.  ``attempted`` counts
ops and ``failed`` counts ops that raised or whose output check failed.

Traced run (``--trace 1``): one untraced and one traced pass on the same
inputs.  The layer figures come from the traced pass; ``trace.overhead_s``
is its wall time minus the untraced one.  The spans are written to
``hessbench/out/spans-<workload>-<seed>.json``.  ``src.<module>.loc`` are
the line counts of ``src/hessgkm/*.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("classify", "sweep", "weyl", "export")
SETUP_PROBES = 5
# A run must end within 180 s; a worker still running at this limit is killed.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def child(workload: str, seed: int, pass_index: int, mode: str, ends_by: float, trace: bool = False) -> dict:
    spec = {
        "workload": workload,
        "seed": seed,
        "pass": pass_index,
        "mode": mode,
        "trace": trace,
        "src": str(SRC),
        "spans_out": str(BENCH_DIR / "out" / f"spans-{workload}-{seed}.json"),
    }
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=max(1.0, ends_by - time.perf_counter()),
        cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} {pass_index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def untraced(workload: str, seed: int, seconds: float, ends_by: float) -> tuple[dict, list[dict]]:
    deadline = time.perf_counter() + seconds
    probes = [child(workload, seed, i, "setup", ends_by) for i in range(SETUP_PROBES)]
    passes: list[dict] = []
    took: list[float] = []
    while True:
        start = time.perf_counter()
        passes.append(child(workload, seed, len(passes), "pass", ends_by))
        took.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(took) > deadline:
            break
    metrics = summary(probes, passes, scaled=True)
    unscaled = summary(probes, passes, scaled=False)
    kernel_ms = [k * 1000 for p in passes for k in p["kernel_s"]]
    print(
        f"# {workload} unscaled: " + " ".join(f"{k}={v:.4f}" for k, v in unscaled.items())
        + f" kernel_ms min/median/max={min(kernel_ms):.3f}/{statistics.median(kernel_ms):.3f}/{max(kernel_ms):.3f}"
    )
    return metrics, passes


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each rank's
    slice of [0, 1].  Unlike a single order statistic it does not jump
    when noise swaps two ops on either side of a gap in the op times."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # Simpson's rule with 8 intervals over each rank's slice.
    h = 1 / (8 * n)
    weights = [
        sum((1 if k in (0, 8) else 4 if k % 2 else 2) * density(i / n + k * h) for k in range(9)) * h / 3
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summary(probes: list[dict], passes: list[dict], scaled: bool) -> dict:
    """Medians over passes of each pass's figures.  Percentiles are taken
    within a pass, so that a workload whose passes repeat the same ops
    (sweep) reads the same ops on every run."""
    col = 3 if scaled else 1
    prefix = "ref_" if scaled else ""
    per_pass_ms = [[op[col] * 1000 for op in p["ops"]] for p in passes]
    return {
        "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
        "op_p50_ms": statistics.median(quantile(ms, 0.5) for ms in per_pass_ms),
        "op_p90_ms": statistics.median(quantile(ms, 0.9) for ms in per_pass_ms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in probes + passes),
    }


def traced(workload: str, seed: int, ends_by: float) -> tuple[dict, list[dict]]:
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    plain = child(workload, seed, 0, "pass", ends_by)
    with_trace = child(workload, seed, 0, "pass", ends_by, trace=True)
    metrics = dict(with_trace["layers"])
    for suite in workloads.SWEEP_EXPECTED:
        for field in ("s", "cases", "violations", "cache_currsize"):
            metrics.setdefault(f"verify.{suite}.{field}", 0)
    metrics["trace.wall_s"] = with_trace["ref_wall_s"]
    metrics["trace.overhead_s"] = with_trace["ref_wall_s"] - plain["ref_wall_s"]
    metrics.update(source_lines())
    return metrics, [plain, with_trace]


def source_lines() -> dict[str, int]:
    out = {}
    for path in sorted((SRC / "hessgkm").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out[f"src.{path.stem}.loc"] = sum(1 for _ in fh)
    out["src.total.loc"] = sum(out.values())
    return out


def declared(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ends_by = time.perf_counter() + RUN_LIMIT_S
    if trace:
        metrics, passes = traced(workload, seed, ends_by)
    else:
        metrics, passes = untraced(workload, seed, seconds, ends_by)
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for _, _, ok, _ in ops if not ok)
    out = {}
    for entry in declared(trace):
        name = entry["name"]
        # A module deleted from src/ has no lines; any other gap is a bug.
        if name not in metrics and not name.startswith("src."):
            raise BenchError(f"metric {name} is declared in BENCHMARK.json but not computed")
        out[name] = {"value": metrics.get(name, 0), "unit": entry["unit"]}
    print(
        f"# {workload}: seed={seed} passes={len(passes)} op_count={len(ops)} "
        f"failed={failed} fail_ratio={failed / len(ops):.4f} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    for name, m in out.items():
        print(f"{workload} {name} = {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hessgkm" / "__init__.py").is_file():
        print(f"error: no hessgkm sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
