"""Time the scaling sweeps of one checkout of this repository.

    python3 tools/bench_rows.py ROOT OUT

Imports the library from ROOT's ``src/`` and the patterns
(``make_scaling_pattern``, ``hub``) from this checkout's
``tests/reference_engine.py``, so two checkouts are timed on the same
inputs.  Each sweep times one call at each of its sizes, REPEATS times,
each after ``gc.collect()`` with the collector disabled.  One row per
size gives the median seconds and their interquartile range, the growth
exponent fitted against the sweep's previous size, and the exponent the
code is meant to have.  The rows are appended to the JSON list in OUT,
which is created if absent.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

REPEATS = 5


def timed(fn, repeats: int) -> list:
    """Seconds of each of ``repeats`` calls of fn."""
    times = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        finally:
            gc.enable()
    return times


def row(workload, layer, sizes, axis, fn, intended, commit, before=None, repeats=REPEATS):
    """The row of fn at ``sizes``, its exponent in sizes[axis] fitted
    against ``before``, the row of the sweep's previous size (None for the
    first).  ``repeats`` is at least 2."""
    times = timed(fn, repeats)
    median = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4)
    exponent = None
    if before is not None:
        growth = sizes[axis] / before["sizes"][axis]
        exponent = math.log(median / before["median_s"]) / math.log(growth)
    return {
        "workload": workload,
        "layer": layer,
        "sizes": sizes,
        "axis": axis,
        "median_s": median,
        "iqr_s": q3 - q1,
        "repeats": repeats,
        "gc": "gc.collect() before each repeat, collector disabled during it",
        "exponent": exponent,
        "intended_exponent": intended,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
    }


def sweeps():
    """(workload, layer, axis, intended exponent, (sizes, fn) per size) of
    each sweep; an input is built only when its size comes up."""
    from reference_engine import hub, make_scaling_pattern
    from zimin import compose, compressed_embedding, matching

    def chain_ruler(fn):
        for k in (1000, 2000, 4000):
            pattern = make_scaling_pattern(50000, top_rank=k)
            yield {"n": 50000, "K": k}, lambda: fn(pattern)

    def zimin_halves():
        for p in (10**4, 10**5, 10**6):
            # c(Z_P) split at its peak: c(Z_{P-1}), then P and the falling letters
            left = (*range(1, p), *range(p - 2, 0, -1))
            parts = [left, (p,) + left[p - 2 :]]
            yield {"P": p}, lambda: compose(parts)

    def hubs():
        for m in (500, 1000, 2000):
            pattern = hub(m)
            yield {"M": m, "n": 3 * m}, lambda: matching._run(pattern, codes=False)

    return [
        ("chain plus ruler", "matching._run", "K", 0, chain_ruler(matching._run)),
        ("chain plus ruler", "matching.compressed_embedding", "K", 2, chain_ruler(compressed_embedding)),
        ("c(Z_P) split at its peak", "compressed.compose", "P", 1, zimin_halves()),
        ("hub, count walk (codes=False)", "matching._run", "M", 2, hubs()),
    ]


def commit_of(root: Path):
    """ROOT's HEAD, with -dirty when its src/ differs from it; None
    outside a git checkout."""
    git = ["git", "-C", str(root)]
    try:
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        clean = subprocess.run([*git, "diff", "--quiet", "HEAD", "--", "src"]).returncode == 0
    except (OSError, subprocess.CalledProcessError):
        return None
    return head.stdout.strip() + ("" if clean else "-dirty")


def main(argv) -> int:
    root, out = (Path(arg).resolve() for arg in argv)
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parents[1] / "tests")]
    commit = commit_of(root)
    rows = json.loads(out.read_text()) if out.exists() else []
    for workload, layer, axis, intended, points in sweeps():
        before = None
        for sizes, fn in points:
            before = row(workload, layer, sizes, axis, fn, intended, commit, before)
            rows.append(before)
            exponent = "" if before["exponent"] is None else f"  exponent {before['exponent']:.2f}"
            print(f"{layer} on {workload} {sizes}: {before['median_s'] * 1e3:.1f} ms{exponent}")
    out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
