"""Self-test of the benchmark: inputs, checks and counts are reproducible.

Runs of the benchmark go through subprocesses, because a run imports
zimin afresh and must not replace the modules the library tests hold.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# counts that must repeat exactly between two traced runs of one seed
COUNTED = ("graph_builds", "candidates", "free_set_checks", "calls", "cells")
COUNT_METRICS = [m for m in tracing.UNITS if m.rpartition(".")[2] in COUNTED]


def bench(call):
    """Run ``call`` (an expression over run.py's names returning
    (client, metrics, details)) on a one-round pool in a fresh interpreter."""
    code = (
        "import json, run\n"
        f"client, metrics, details = run.{call}\n"
        "print(json.dumps({'wrong': client.wrong, 'failed': client.failed, "
        "'metrics': {k: v for k, (v, _) in metrics.items()}, 'details': details}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=HERE,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {m.rpartition(".")[2] for m in COUNT_METRICS} == set(COUNTED)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    lib = SimpleNamespace(**{m: importlib.import_module("zimin." + m) for m in run.MODULES})
    first = run.make_workload(name, lib).generate(7, 2)
    again = run.make_workload(name, lib).generate(7, 2)
    other = run.make_workload(name, lib).generate(8, 2)
    assert first == again
    assert first != other
    assert [[kind for kind, _ in r] for r in first] == [[kind for kind, _ in r] for r in other]


def test_small_match_inputs_are_within_the_oracle_budget():
    lib = SimpleNamespace(**{m: importlib.import_module("zimin." + m) for m in run.MODULES})
    match = run.make_workload("match", lib)
    small = [(kind, inp) for r in match.generate(7, 2) for kind, inp in r if len(inp[0]) <= 8]
    assert sorted(kind for kind, _ in small) == ["count_instances"] * 4 + ["enumerate_instances"] * 4
    assert all(match.in_budget(*inp) for _, inp in small)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    result = bench(f"measure({name!r}, 3, 0.1, rounds=1)")
    details = result["details"]
    assert result["wrong"] == 0, details["failures"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    if name == "cli":
        # the 200-variable chain count exits 2, once per round
        assert result["failed"] == details["repetitions"]
        assert all("count: exit 2" in cause for cause in details["failures"])
    else:
        assert result["failed"] == 0, details["failures"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = bench(f"trace({name!r}, 5, rounds=1)")
    again = bench(f"trace({name!r}, 5, rounds=1)")
    assert first["wrong"] == again["wrong"] == 0
    assert set(first["metrics"]) == set(tracing.UNITS)
    assert first["details"]["absent"] == []
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == again["metrics"][metric], metric


def test_hook_that_no_longer_resolves_is_absent(monkeypatch):
    words = importlib.import_module("zimin.words")
    original = words.first_violation
    monkeypatch.setattr(
        tracing,
        "HOOKS",
        (
            ("boundary.graph_build", "zimin.boundary", "NoSuchGraph.__init__", None, None),
            ("matching._run", "zimin.matching", "no_such_run", None, None),
            ("words.first_violation", "zimin.words", "first_violation", None, None),
        ),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["boundary.graph_build", "matching._run"]
        assert words.first_violation is not original
        tracer.recording = True
        assert words.first_violation((1, 2, 1)) is None
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert words.first_violation is original
    values = tracing.finalize(tracing.tally(tracer))
    assert values["words.first_violation.calls"] == 1
    assert values["boundary.graph_builds"] == 0
