"""Span tracing of the zimin layers, from outside the library.

The tracer wraps module-level names of ``zimin`` (functions, and the
constructors or methods of classes) with a timing shim.  A name that a
module imported from another module is wrapped there too, because the
caller looks it up in its own namespace.  A hook whose target no longer
resolves is reported as absent instead of failing the run.

Spans are (name, parent, start, end, outcome) rows kept in flat arrays
while the benchmark runs and written out once at exit.  Spans of one
benchmark op share the op's root span, which serves as the request id.
The library itself is not modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter


def _cells(result):
    return sum(len(code) for code in result.valuation.values())


def _observe_letters(tracer, args, result):
    tracer.count("words.letters", len(args[0]))


def _observe_letters_out(tracer, args, result):
    tracer.count("compressed.decompress.letters_out", len(result))


def _observe_match(tracer, args, result):
    if result is not None:
        tracer.count("matching.cells", _cells(result))
        tracer.count("matching.free_components", result.free_components)


# (span name, module, attribute path, observer of (args, result) or None,
#  outcome of result as 0/1 or None)
HOOKS = (
    ("words.first_violation", "zimin.words", "first_violation", _observe_letters, None),
    ("compressed.compress", "zimin.compressed", "compress", None, None),
    ("compressed.decompress", "zimin.compressed", "decompress", _observe_letters_out, None),
    ("compressed.compose", "zimin.compressed", "compose", None, None),
    ("compressed.check_concatenation", "zimin.compressed", "check_concatenation", None, None),
    ("compressed.reduce_extended", "zimin.compressed", "reduce_extended", None, None),
    ("boundary.graph_build", "zimin.boundary", "AdjacencyGraph.__init__", None, None),
    ("boundary.flags", "zimin.boundary", "AdjacencyGraph.flags_with", None, None),
    ("matching.RankedPattern", "zimin.matching", "RankedPattern.__init__", None, None),
    ("matching.validate_ranking", "zimin.matching", "validate_ranking", None,
     lambda result: 0 if result else 1),
    ("matching._run", "zimin.matching", "_run", None, None),
    ("matching.compressed_embedding", "zimin.matching", "compressed_embedding", _observe_match, None),
    ("matching.shortest_instance", "zimin.matching", "shortest_instance", _observe_match, None),
    ("matching.count_instances", "zimin.matching", "count_instances", None, None),
    ("matching.enumerate_instances", "zimin.matching", "enumerate_instances", None, None),
    ("avoidability.ranking", "zimin.avoidability", "is_unavoidable_by_ranking", None, None),
    ("avoidability.reduction", "zimin.avoidability", "is_unavoidable_by_reduction", None, None),
    ("avoidability.check_free_set", "zimin.avoidability", "check_free_set", None,
     lambda result: 0 if result is None else 1),
    ("cli.main", "zimin.cli", "main", None, None),
    ("cli.emit", "zimin.cli", "_emit", None, None),
)


class Tracer:
    """Records spans while ``recording`` is true; inert otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.recording = False
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current())
        self.outcome.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int):
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, func, *args):
        """Run ``func(*args)`` inside a recorded span named ``name``."""
        idx = self.open(self.name_id(name))
        try:
            return func(*args)
        finally:
            self.close(idx)

    def merge(self, dump: dict, parent: int):
        """Append spans written by another process under span ``parent``."""
        base = len(self.start)
        ids = [self.name_id(n) for n in dump["names"]]
        for name_id, par, start, end, outcome in dump["spans"]:
            self.name.append(ids[name_id])
            self.parent.append(parent if par < 0 else base + par)
            self.start.append(start)
            self.end.append(end)
            self.outcome.append(outcome)
        for key, value in dump["counts"].items():
            self.count(key, value)
        self.absent.extend(n for n in dump["absent"] if n not in self.absent)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.parent[i], self.start[i], self.end[i], self.outcome[i]]
                for i in range(len(self.start))
            ],
            "counts": self.counts,
            "absent": self.absent,
        }

    def current(self) -> int:
        """Index of the innermost open span, -1 outside any span."""
        return self._stack[-1] if self._stack else -1

    # -- hooks -----------------------------------------------------------

    def _wrap(self, orig, name_id: int, observe, outcome):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if outcome is not None:
                tracer.outcome[idx] = outcome(result)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self):
        """Wrap every hook target, wherever the zimin modules hold it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "zimin" or n.startswith("zimin.")]
        for name, module_name, path, observe, outcome in HOOKS:
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None or not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(orig, self.name_id(name), observe, outcome)
            if owner_path:
                # a method: patching the class covers every importer
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def write_spans(path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


def tally(tracer: Tracer) -> dict:
    """Additive per-layer sums over all recorded spans."""
    n = len(tracer.start)
    names = tracer.names
    ranking = tracer._name_ids.get("avoidability.ranking", -1)
    reduction = tracer._name_ids.get("avoidability.reduction", -1)
    in_ranking = bytearray(n)
    in_reduction = bytearray(n)
    child_ms = [0.0] * n
    sums: dict[str, float] = dict(tracer.counts)

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for i in range(n):
        nid = tracer.name[i]
        par = tracer.parent[i]
        ms = (tracer.end[i] - tracer.start[i]) * 1000.0
        if par >= 0:
            child_ms[par] += ms
            in_ranking[i] = in_ranking[par]
            in_reduction[i] = in_reduction[par]
        if nid == ranking:
            in_ranking[i] = 1
        if nid == reduction:
            in_reduction[i] = 1
        name = names[nid]
        add(name + ".ms", ms)
        add(name + ".calls", 1)
        if name == "matching.RankedPattern" and in_ranking[i]:
            add("ranking.candidates", 1)
        elif name == "matching.validate_ranking" and in_ranking[i]:
            add("ranking.validated", 1)
            add("ranking.valid", tracer.outcome[i])
        elif name == "avoidability.check_free_set" and in_reduction[i]:
            add("reduction.checks", 1)
            add("reduction.hits", tracer.outcome[i])
    run = tracer._name_ids.get("matching._run", -1)
    for i in range(n):
        if tracer.name[i] == run:
            add("matching._run.self_ms", (tracer.end[i] - tracer.start[i]) * 1000.0 - child_ms[i])
    return sums


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics and their units, as listed in BENCHMARK.json.
UNITS = {
    **{
        f"{name}.{what}": unit
        for name in (
            "words.first_violation",
            "compressed.compress",
            "compressed.decompress",
            "compressed.compose",
            "compressed.check_concatenation",
            "compressed.reduce_extended",
        )
        for what, unit in (("ms", "ms"), ("calls", "count"))
    },
    "words.letters_per_s": "1/s",
    "compressed.decompress.letters_out": "count",
    "boundary.graph_builds": "count",
    "boundary.graph_build.ms": "ms",
    "boundary.flags.ms": "ms",
    "matching._run.self_ms": "ms",
    "matching.compressed_embedding.ms": "ms",
    "matching.shortest_instance.ms": "ms",
    "matching.count_instances.ms": "ms",
    "matching.enumerate_instances.ms": "ms",
    "matching.cells": "count",
    "matching.free_components": "count",
    "matching.RankedPattern.ms": "ms",
    "matching.RankedPattern.calls": "count",
    "matching.validate_ranking.ms": "ms",
    "matching.validate_ranking.calls": "count",
    "avoidability.ranking.ms": "ms",
    "avoidability.reduction.ms": "ms",
    "avoidability.ranking.candidates": "count",
    "avoidability.ranking.valid_ratio": "ratio",
    "avoidability.reduction.free_set_checks": "count",
    "avoidability.reduction.hit_ratio": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.ms": "ms",
    "cli.emit.ms": "ms",
    **{f"cli.exit_codes.{code}": "count" for code in range(4)},
    "trace.overhead_ratio": "ratio",
}


def finalize(sums: dict) -> dict:
    """Per-layer metric values (names as in UNITS) from ``tally`` sums."""
    g = lambda key: sums.get(key, 0)  # noqa: E731
    out = {}
    for name in (
        "words.first_violation",
        "compressed.compress",
        "compressed.decompress",
        "compressed.compose",
        "compressed.check_concatenation",
        "compressed.reduce_extended",
        "matching.RankedPattern",
        "matching.validate_ranking",
    ):
        out[name + ".ms"] = g(name + ".ms")
        out[name + ".calls"] = g(name + ".calls")
    out["words.letters_per_s"] = _ratio(g("words.letters"), g("words.first_violation.ms") / 1000.0)
    out["compressed.decompress.letters_out"] = g("compressed.decompress.letters_out")
    out["boundary.graph_builds"] = g("boundary.graph_build.calls")
    out["boundary.graph_build.ms"] = g("boundary.graph_build.ms")
    out["boundary.flags.ms"] = g("boundary.flags.ms")
    out["matching._run.self_ms"] = g("matching._run.self_ms")
    for name in ("compressed_embedding", "shortest_instance", "count_instances", "enumerate_instances"):
        out[f"matching.{name}.ms"] = g(f"matching.{name}.ms")
    out["matching.cells"] = g("matching.cells")
    out["matching.free_components"] = g("matching.free_components")
    out["avoidability.ranking.ms"] = g("avoidability.ranking.ms")
    out["avoidability.reduction.ms"] = g("avoidability.reduction.ms")
    out["avoidability.ranking.candidates"] = g("ranking.candidates")
    out["avoidability.ranking.valid_ratio"] = _ratio(g("ranking.valid"), g("ranking.validated"))
    out["avoidability.reduction.free_set_checks"] = g("reduction.checks")
    out["avoidability.reduction.hit_ratio"] = _ratio(g("reduction.hits"), g("reduction.checks"))
    out["cli.main.ms"] = g("cli.main.ms")
    out["cli.emit.ms"] = g("cli.emit.ms")
    out["cli.import_ms"] = _ratio(g("cli.import_ms"), g("cli.processes"))
    out["cli.interpreter_ms"] = _ratio(g("cli.interpreter_ms"), g("cli.interpreter_runs"))
    for code in range(4):
        out[f"cli.exit_codes.{code}"] = g(f"cli.exit_codes.{code}")
    return out
