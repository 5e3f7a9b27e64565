"""Differential tests of the union-find level engine against the BFS
engine it replaced (``reference_engine``): identical valuations (as
tuples, in the same order), l, shortest matches and enumeration order.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import reference_engine as ref
from test_avoidability import canonical_patterns
from zimin import (
    EnumerationLimitError,
    RankedPattern,
    compressed_embedding,
    count_free_components,
    enumerate_instances,
    first_last,
    shortest_first_last,
    shortest_instance,
)
from zimin.matching import _run
from zimin.verification import make_scaling_pattern

ENUM_LIMIT = 64


def _frozen(val):
    return tuple((var, tuple(code)) for var, code in val.items())


def _reference(pattern, shortest):
    out = ref._run(pattern, shortest=shortest)
    return None if out is None else (_frozen(out[0]), out[1])


def _engine(pattern, shortest):
    match = (shortest_instance if shortest else compressed_embedding)(pattern, validate=False)
    return None if match is None else (_frozen(match.valuation), match.free_components)


def _enumeration(enumerate_fn, pattern):
    try:
        return [_frozen(val) for val in enumerate_fn(pattern, limit=ENUM_LIMIT)]
    except EnumerationLimitError as exc:
        return ("limit", exc.count)


def assert_same(pattern, enumerate_too=True):
    """Compare both engines; True when the pattern matches."""
    for shortest in (False, True):
        got = _engine(pattern, shortest)
        assert got == _reference(pattern, shortest), (pattern, shortest)
    if enumerate_too:
        listed = _enumeration(enumerate_instances, pattern)
        assert listed == _enumeration(ref.enumerate_instances, pattern), pattern
    return got is not None


def test_every_small_canonical_pattern_under_every_ranking():
    checked = matched = 0
    for symbols in canonical_patterns(max_vars=3, max_len=6):
        variables = tuple(dict.fromkeys(symbols))
        for ranks in product(range(1, 5), repeat=len(variables)):
            matched += assert_same(RankedPattern(symbols, dict(zip(variables, ranks))))
            checked += 1
    assert (checked, matched) == (8744, 140)


def test_seeded_patterns():
    rng = random.Random(2061)
    matched = 0
    for _ in range(2000):
        variables = "vwxyz"[: rng.randrange(1, 6)]
        symbols = tuple(rng.choice(variables) for _ in range(rng.randrange(1, 13)))
        ranks = {v: rng.randrange(1, 9) for v in sorted(set(symbols))}
        matched += assert_same(RankedPattern(symbols, ranks))
    assert matched == 264


def test_scaling_pattern():
    pattern = make_scaling_pattern(2000, top_rank=60)
    assert assert_same(pattern, enumerate_too=False)
    counts = []
    for enumerate_fn in (enumerate_instances, ref.enumerate_instances):
        with pytest.raises(EnumerationLimitError) as exc:
            enumerate_fn(pattern)
        counts.append(exc.value.count)
    assert counts[0] == counts[1]


def test_name_level_helpers():
    rng = random.Random(7)
    for _ in range(1000):
        pattern = tuple(rng.choice("abcde") for _ in range(rng.randrange(0, 10)))
        forced = tuple(v for v in sorted(set(pattern)) if rng.random() < 0.4)
        assert first_last(pattern, forced) == ref.first_last(pattern, forced)
        assert shortest_first_last(pattern, forced) == ref.shortest_first_last(pattern, forced)
        for minimize in (False, True):
            assert count_free_components(pattern, forced, minimize) == ref.count_free_components(
                pattern, forced, minimize
            )


def test_left_neighbour_counts():
    """Each level graph's ``left`` holds the exact number of distinct left
    neighbours per variable.  The outputs only read left > 0, which never
    falls as levels descend, so this is the check on the count itself."""
    graphs = 0
    for symbols in canonical_patterns(max_vars=3, max_len=6):
        variables = tuple(dict.fromkeys(symbols))
        for ranks in product(range(1, 5), repeat=len(variables)):
            ranks = dict(zip(variables, ranks))
            out = _run(RankedPattern(symbols, ranks), collect=2**64)
            if out is None:
                continue
            names = list(out[0])
            for level, _, active, graph, _ in out[2]:
                proj = [s for s in symbols if ranks[s] >= level]
                pairs = set(zip(proj, proj[1:]))
                assert graph.left == [sum(y == v for _, y in pairs) for v in names[:active]]
                graphs += 1
    assert graphs == 510
