"""Benchmark of the zimin library and its CLI.

    python3 perfbench/run.py --workload {codes,match,avoid,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``zimin`` from ``src/``
and nothing else.  One closed-loop client issues each op only after the
previous one returned, and every answer is checked (see workloads.py).

With ``--trace 0`` it repeats whole passes over the seed's pool of ops
until ``--seconds`` have passed, and takes each op's cost as the median of
its repetitions, which are spread over the whole run.  It prints:
  ops_per_s    ops of a round / summed costs of its ops, median over rounds
  op_p50_ms    median op cost
  op_tail_ms   op cost at the highest ladder percentile with >= 10 ops beyond
  success_rate correct answers / ops attempted, over every repetition
  peak_rss_mb  peak RSS of this process (cli: of the largest CLI process)
  setup_s      import of zimin plus input generation, median of 11
               set-ups spread over the run

With ``--trace 1`` it runs the seed's pool twice untraced and once traced,
prints the per-layer metrics of tracing.finalize plus
``trace.overhead_ratio`` (traced / second untraced busy time), and writes the
spans to perfbench/traces/; ``--seconds`` is not used.  A metric of a layer
the workload never reaches reads 0 and is listed under "not_reached"; a hook
that no longer resolves is listed under "absent".

The line before the result line holds details: the tail percentile and
sample count, and the cause of every failed op.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from collections import Counter, deque
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"
SETUP_SAMPLES = 11
# coarse steps, so that a run's sample count sits far from the count at
# which the reported percentile would change
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("words", "compressed", "boundary", "matching", "avoidability", "oracle", "cli")
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_zimin():
    """Import zimin afresh from the checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "zimin" or n.startswith("zimin.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("zimin")
    if Path(package.__file__).resolve().parent != SRC / "zimin":
        raise ImportError(f"zimin imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("zimin." + m) for m in MODULES})


def make_workload(name, lib):
    if name != "cli":
        return WORKLOADS[name](lib)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return WORKLOADS[name](lib, env=env, probe=[sys.executable, str(HERE / "cli_probe.py")], trace_dir=TRACES)


def setup(name, seed, rounds=None):
    t0 = perf_counter()
    workload = make_workload(name, import_zimin())
    pool = workload.generate(seed, rounds)
    return perf_counter() - t0, workload, pool


def canon(x):
    """Hashable form of an answer, for comparing repeats of a checked op."""
    if isinstance(x, (int, float, str, bool, type(None))):
        return x
    if isinstance(x, tuple) and all(type(v) is int for v in x):
        return x
    if isinstance(x, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple, deque)):
        return tuple(canon(v) for v in x)
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    if hasattr(x, "returncode"):
        return (x.returncode, x.stdout)
    return repr(x)


class Client:
    """Closed-loop client: one op at a time, each answer checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes: Counter = Counter()
        self.samples: dict = {}  # op key -> latency of each repetition, seconds
        self._checked: dict = {}

    def op(self, key, kind, inp, tracer=None) -> float:
        """Run one op; returns its latency in seconds."""
        out = failure = None
        inp = self.workload.prepare(kind, inp)
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.workload.call(kind, inp)
            else:
                tracer.recording = True
                out = tracer.span("op." + kind, self.workload.call, kind, inp)
        except Exception as exc:  # a failed op is counted and named, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
        self.attempted += 1
        self.samples.setdefault(key, []).append(dt)
        if failure is None:
            failure = self.workload.failure(out)
        if failure is None:
            fingerprint = hash(canon(out))
            if self._checked.get(key) != fingerprint:
                try:
                    wrong = self.workload.check(kind, inp, out)
                except Exception as exc:  # an answer the check cannot read
                    wrong = f"check raised {type(exc).__name__}: {exc}"
                if wrong:
                    self.wrong += 1
                    failure = "wrong answer: " + wrong
                else:
                    self._checked[key] = fingerprint
        if failure is not None:
            self.failed += 1
            self.causes[f"{kind}: {failure[:200]}"] += 1
        return dt

    def run_pool(self, pool, tracer=None):
        """One pass over the pool; returns busy seconds per round."""
        busy = []
        for r, ops in enumerate(pool):
            busy.append(sum(self.op((r, i), kind, inp, tracer) for i, (kind, inp) in enumerate(ops)))
        return busy


def tail(costs):
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it (nearest rank); the maximum when there is none."""
    ordered = sorted(costs)
    n = len(ordered)
    for p in LADDER:
        if n * (1 - p / 100.0) >= 10:
            return p, ordered[max(0, -(-int(p * n) // 100) - 1)]
    return 100.0, ordered[-1]


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(name, seed, seconds, rounds=None):
    client = Client(None)
    setup_times = []
    pool = None

    def set_up():
        nonlocal pool
        # the old workload and pool go first, so that two never coexist
        # and the peak RSS stays that of one
        client.workload = pool = None
        gc.collect()
        dt, client.workload, pool = setup(name, seed, rounds)
        setup_times.append(dt)

    # set-ups are repeated between passes, spread over the run; the same
    # seed makes the same pool, so the ops and their keys stay the same.
    # Like an op's cost, set-up time is taken as the median of its samples.
    set_up()
    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() < start + seconds:
        client.run_pool(pool)
        passes += 1
        due = start + len(setup_times) * seconds / SETUP_SAMPLES
        if len(setup_times) < SETUP_SAMPLES and perf_counter() >= due:
            set_up()
    while len(setup_times) < SETUP_SAMPLES:
        set_up()
    costs = [[statistics.median(client.samples[r, i]) * 1000.0 for i in range(len(ops))] for r, ops in enumerate(pool)]
    every = [c for round_costs in costs for c in round_costs]
    percentile, tail_ms = tail(every)
    metrics = {
        "ops_per_s": statistics.median(1000.0 * len(c) / sum(c) for c in costs),
        "op_p50_ms": statistics.median(every),
        "op_tail_ms": tail_ms,
        "success_rate": (client.attempted - client.failed) / client.attempted,
        "peak_rss_mb": peak_rss_mb(name),
        "setup_s": statistics.median(setup_times),
    }
    details = {
        "tail_percentile": percentile,
        "ops": len(every),
        "repetitions": passes,
        "setup_ms": [round(t * 1000.0, 3) for t in setup_times],
        "failures": dict(client.causes),
    }
    return client, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def trace(name, seed, rounds=None):
    _, workload, pool = setup(name, seed, rounds)
    client = Client(workload)
    client.run_pool(pool)  # warm-up, and the checks of every answer
    untraced = sum(client.run_pool(pool))
    tracer = tracing.Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        traced = sum(client.run_pool(pool, tracer))
        workload.after_trace(tracer)
    finally:
        workload.tracer = None
        tracer.uninstall()
    values = tracing.finalize(tracing.tally(tracer))
    tracing.write_spans(TRACES / f"{name}.spans.json.gz", tracer.dump())
    values["trace.overhead_ratio"] = traced / untraced
    metrics = {m: (values[m], unit) for m, unit in tracing.UNITS.items()}
    details = {
        "spans": len(tracer.start),
        "absent": sorted(tracer.absent),
        "not_reached": sorted(m for m, v in values.items() if v == 0),
        "failures": dict(client.causes),
    }
    return client, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measuring time; required unless --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and args.seconds is None:
        parser.error("--seconds is required with --trace 0")
    try:
        if args.trace:
            client, metrics, details = trace(args.workload, args.seed)
        else:
            client, metrics, details = measure(args.workload, args.seed, args.seconds)
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **details}
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": client.wrong == 0,
                "attempted": client.attempted,
                "failed": client.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
