"""One benchmark pass (or one set-up probe) in a fresh interpreter.

Started by run.py as ``python3 -I worker.py '<spec json>'``; prints one JSON
line.  Set-up time runs from just before ``import hessgkm`` to the end of
the workload's input generation.  A pass then runs the workload's ops one
after another on this single thread, timing each op and checking its
output outside the timed region.  An op that raises counts as failed, as
does one whose check is false.

Every time is also reported scaled to a reference CPU speed.  The speed of
a shared virtual CPU swings by a third or more over periods of seconds to
minutes, and a pure-Python program slows with it.  So the worker times a
fixed pure-Python kernel, which does not touch hessgkm, before set-up,
after set-up, and after every ``CALIBRATE_EVERY_S`` of op time.  A stretch
of work is scaled by ``REF_KERNEL_S`` over the mean kernel time at its two
ends: the time the same work would take on a CPU that runs the kernel in
``REF_KERNEL_S``.  The kernel runs outside every timed region.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_REPORTED_FAILURES = 5
# Kernel time on the reference machine (Python 3.11.7 on a 2-vCPU virtual
# machine) in its fast periods; it fixes the unit of every scaled time.
REF_KERNEL_S = 0.006
CALIBRATE_EVERY_S = 0.1
KERNEL_REPEATS = 3


def kernel() -> int:
    """Fixed pure-Python work of the kind hessgkm does: tuple slicing and
    sorting, dict and set updates."""
    counts: dict = {}
    prefixes = set()
    t = (3, 1, 4, 1, 5, 9, 2, 6)
    for i in range(6000):
        u = tuple(sorted(t[i % 8 :] + t[: i % 8]))
        counts[u] = counts.get(u, 0) + i
        prefixes.add(u[: i % 5])
        t = t[1:] + t[:1]
    return len(counts) + len(prefixes)


def calibrate() -> float:
    """Median time of a few kernel runs, in seconds."""
    perf = time.perf_counter
    took = []
    for _ in range(KERNEL_REPEATS):
        start = perf()
        kernel()
        took.append(perf() - start)
    return sorted(took)[KERNEL_REPEATS // 2]


def run(spec: dict) -> dict:
    before = calibrate()
    t0 = time.perf_counter()
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import hessgkm
    import hessgkm.cli  # the package does not import its command-line module

    if src not in Path(hessgkm.__file__).resolve().parents:
        raise SystemExit(f"hessgkm was imported from {hessgkm.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    ops, layers = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["pass"])
    setup_s = time.perf_counter() - t0
    kernel_s = [calibrate()]
    setup = {"setup_s": setup_s, "ref_setup_s": setup_s * 2 * REF_KERNEL_S / (before + kernel_s[0])}
    if spec["mode"] == "setup":
        return setup

    perf = time.perf_counter
    results = []
    reported = 0
    stretch = []  # results not yet scaled

    def scale_stretch():
        kernel_s.append(calibrate())
        factor = 2 * REF_KERNEL_S / (kernel_s[-2] + kernel_s[-1])
        for row in stretch:
            row.append(row[1] * factor)
        stretch.clear()

    for index, (kind, thunk, check) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        seconds = None
        start = perf()
        try:
            out = thunk()
            seconds = perf() - start
            ok = bool(check(out))
            problem = "gave a wrong result"
        except Exception:
            if seconds is None:
                seconds = perf() - start
            ok = False
            problem = "raised:\n" + traceback.format_exc()
        if not ok and reported < MAX_REPORTED_FAILURES:
            reported += 1
            print(f"op {index} ({kind}) {problem}", file=sys.stderr)
        results.append([kind, seconds, ok])
        stretch.append(results[-1])
        if sum(row[1] for row in stretch) >= CALIBRATE_EVERY_S:
            scale_stretch()
    if stretch:
        scale_stretch()
    report = {
        **setup,
        "wall_s": sum(row[1] for row in results),
        "ref_wall_s": sum(row[3] for row in results),
        "kernel_s": kernel_s,
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = {**tracer.layer_metrics(), **layers}
        tracer.dump(spec["spans_out"], {"workload": spec["workload"], "seed": spec["seed"], "pass": spec["pass"]})
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
