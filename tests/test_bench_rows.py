"""The row schema of ``tools/bench_rows.py``, on one tiny row."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from reference_engine import make_scaling_pattern
from zimin import matching

_spec = importlib.util.spec_from_file_location(
    "bench_rows", Path(__file__).resolve().parents[1] / "tools" / "bench_rows.py"
)
bench_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_rows)


def test_tiny_row_schema():
    pattern = make_scaling_pattern(40, top_rank=20)
    before = {"sizes": {"n": 40, "K": 10}, "median_s": 1e-6}
    out = bench_rows.row(
        "chain plus ruler", "matching._run", {"n": 40, "K": 20}, "K",
        lambda: matching._run(pattern), 0, "0" * 40, before, repeats=3,
    )
    assert list(out) == [
        "workload", "layer", "sizes", "axis", "median_s", "iqr_s", "repeats", "gc",
        "exponent", "intended_exponent", "python", "cpus", "commit",
    ]
    assert out["sizes"] == {"n": 40, "K": 20} and out["axis"] == "K"
    assert out["median_s"] > 0 and out["iqr_s"] >= 0 and out["repeats"] == 3
    assert isinstance(out["exponent"], float) and out["intended_exponent"] == 0
    assert out["cpus"] >= 1 and out["python"].count(".") == 2
    assert json.loads(json.dumps(out)) == out
    first = bench_rows.row("tiny", "none", {"n": 1}, "n", lambda: None, 0, None, repeats=2)
    assert first["exponent"] is None and first["commit"] is None
