"""Differential tests of the level engine, which keeps its junction
components across levels, against the per-level BFS engine
(``reference_engine``): identical valuations (as tuples, in the same
order), l, counts, shortest matches and enumeration order.
"""

from __future__ import annotations

import random
from itertools import chain, product

import pytest

import reference_engine as ref
from test_avoidability import canonical_patterns
from zimin import (
    EnumerationLimitError,
    RankedPattern,
    compressed_embedding,
    count_instances,
    enumerate_instances,
    instance_length,
    shortest_instance,
    validate_ranking,
)
from zimin.boundary import AdjacencyGraph
from zimin.compressed import decompressed_length
from zimin.matching import _peel_events
from zimin.verification import make_scaling_pattern

ENUM_LIMIT = 64


def _frozen(val):
    return tuple((var, tuple(code)) for var, code in val.items())


def _reference(pattern, shortest):
    out = ref._run(pattern, shortest=shortest)
    return None if out is None else (_frozen(out[0]), out[1])


def _engine(pattern, shortest):
    match = (shortest_instance if shortest else compressed_embedding)(pattern)
    return None if match is None else (_frozen(match.valuation), match.free_components)


def _enumeration(enumerate_fn, pattern, limit=ENUM_LIMIT):
    try:
        return [_frozen(val) for val in enumerate_fn(pattern, limit=limit)]
    except EnumerationLimitError as exc:
        return ("limit", exc.count)


def assert_same(pattern, enumerate_too=True):
    """Compare both engines; True when the pattern matches."""
    for shortest in (False, True):
        got = _engine(pattern, shortest)
        assert got == _reference(pattern, shortest), (pattern, shortest)
    # the count builds no code, so it is checked on its own
    walked = ref._run(pattern)
    assert count_instances(pattern) == (0 if walked is None else 1 << walked[1]), pattern
    if enumerate_too:
        listed = _enumeration(enumerate_instances, pattern)
        assert listed == _enumeration(ref.enumerate_instances, pattern), pattern
    return got is not None


def small_universe():
    """Every canonical pattern with <= 3 variables and length <= 6 under
    every ranking in {1..4}^vars."""
    for symbols in canonical_patterns(max_vars=3, max_len=6):
        variables = tuple(dict.fromkeys(symbols))
        for ranks in product(range(1, 5), repeat=len(variables)):
            yield RankedPattern(symbols, dict(zip(variables, ranks)))


def seeded_universe():
    """2,000 seeded patterns with <= 5 variables, length <= 12, ranks <= 8."""
    rng = random.Random(2061)
    for _ in range(2000):
        variables = "vwxyz"[: rng.randrange(1, 6)]
        symbols = tuple(rng.choice(variables) for _ in range(rng.randrange(1, 13)))
        ranks = {v: rng.randrange(1, 9) for v in sorted(set(symbols))}
        yield RankedPattern(symbols, ranks)


def gapped(pattern, scale=3, shift=5):
    """The same pattern with every rank r mapped to scale*r + shift, so
    that the levels below and between its ranks are gap levels."""
    ranks = {v: scale * r + shift for v, r in pattern.ranks.items()}
    return RankedPattern(pattern.symbols, ranks)


def test_every_small_canonical_pattern_under_every_ranking():
    checked = matched = 0
    for pattern in small_universe():
        matched += assert_same(pattern)
        checked += 1
    assert (checked, matched) == (8744, 140)


def test_seeded_patterns():
    matched = sum(map(assert_same, seeded_universe()))
    assert matched == 264


@pytest.mark.parametrize("universe", [small_universe, seeded_universe])
def test_gapped_ranks(universe):
    """Gap steps against the per-level reference: the same patterns with
    ranks 3r + 5 match exactly when the dense ones do, and canonical,
    shortest and enumeration (limit 64) agree on every one."""
    matched = sum(assert_same(gapped(pattern)) for pattern in universe())
    assert matched == {small_universe: 140, seeded_universe: 264}[universe]


def assert_no_match(pattern):
    assert compressed_embedding(pattern) is None
    assert shortest_instance(pattern) is None
    assert count_instances(pattern) == 0
    assert enumerate_instances(pattern) == []


@pytest.mark.parametrize("universe", [small_universe, seeded_universe])
def test_peel_scan_rejects_exactly_the_broken_rankings(universe):
    """The peel scan returns None exactly when validate_ranking reports a
    violation, dense and with ranks 3r + 5, and then every product
    answers no match."""
    broken = 0
    for dense in universe():
        for pattern in (dense, gapped(dense)):
            rejected = _peel_events(pattern) is None
            assert rejected == bool(validate_ranking(pattern)), pattern
            if rejected:
                assert_no_match(pattern)
                broken += 1
    assert broken == {small_universe: 2 * 8604, seeded_universe: 2 * 1735}[universe]


def test_peel_scan_rejects_long_broken_rankings():
    """Breaks shaped like the benchmark's: a second occurrence of the top
    variable in a chain plus ruler, and two adjacent equal ranks in a
    300-position ruler of distinct variables."""
    chain = make_scaling_pattern(82 + 127, top_rank=100, ruler_max=7)
    top = max(chain.ranks, key=chain.ranks.get)
    assert _peel_events(chain) is not None
    for pos in (0, 50, len(chain)):
        symbols = chain.symbols[:pos] + (top,) + chain.symbols[pos:]
        pattern = RankedPattern(symbols, chain.ranks)
        kinds = {v.kind for v in validate_ranking(pattern)}
        assert "max-rank-repeated" in kinds
        assert _peel_events(pattern) is None
        assert_no_match(pattern)
    symbols = tuple(range(300))
    ruler = {p: ((p + 1) & -(p + 1)).bit_length() + 10 for p in symbols}
    assert _peel_events(RankedPattern(symbols, ruler)) is not None
    for pos in (1, 150, 299):
        pattern = RankedPattern(symbols, {**ruler, pos: ruler[pos - 1]})
        assert validate_ranking(pattern)[0].kind == "equal-ranks-unseparated"
        assert _peel_events(pattern) is None
        assert_no_match(pattern)


def test_scaling_pattern():
    pattern = make_scaling_pattern(2000, top_rank=60)
    assert assert_same(pattern, enumerate_too=False)
    counts = []
    for enumerate_fn in (enumerate_instances, ref.enumerate_instances):
        with pytest.raises(EnumerationLimitError) as exc:
            enumerate_fn(pattern)
        counts.append(exc.value.count)
    assert counts[0] == counts[1]


def larger_universe():
    """1,500 seeded patterns with <= 11 variables, length <= 60 and ranks
    <= 13; 300 ruler-shaped patterns of <= 400 positions, each ruler value
    taken by one of up to three variables of that rank, so variables
    repeat; and one chain plus ruler of top rank 100.  Their components
    merge and split over many levels."""
    rng = random.Random(9)
    for _ in range(1500):
        variables = range(rng.randrange(1, 12))
        symbols = tuple(rng.choice(variables) for _ in range(rng.randrange(1, 61)))
        yield RankedPattern(symbols, {v: rng.randrange(1, 14) for v in set(symbols)})
    for _ in range(300):
        first = rng.randrange(1, 1 << 12)
        names = [rng.randrange(1, 4) for _ in range(14)]  # variables per ruler value
        symbols = []
        for p in range(first, first + rng.randrange(1, 401)):
            value = (p & -p).bit_length()
            symbols.append((value, rng.randrange(names[value])))
        yield RankedPattern(tuple(symbols), {s: s[0] for s in symbols})
    yield make_scaling_pattern(82 + 127, top_rank=100, ruler_max=7)


@pytest.mark.parametrize("ranks", ["dense", "3r+5"])
def test_larger_universe(ranks):
    """Canonical and shortest matches against the per-level reference on
    the larger universe, with its own ranks and with ranks 3r + 5."""
    patterns = larger_universe()
    if ranks == "3r+5":
        patterns = map(gapped, patterns)
    matched = sum(assert_same(pattern, enumerate_too=False) for pattern in patterns)
    assert matched == 368


def test_name_level_helpers():
    rng = random.Random(7)
    for _ in range(1000):
        pattern = tuple(rng.choice("abcde") for _ in range(rng.randrange(0, 10)))
        forced = tuple(v for v in sorted(set(pattern)) if rng.random() < 0.4)
        assert AdjacencyGraph._level_flags(pattern, forced) == ref.first_last(pattern, forced)


def test_gapped_enumeration():
    """Ranks 3r + 5 put l at 14 or more, past limit 64.  With ranks 2r
    the gaps are one level each and l is often small, so both universes
    are enumerated in full up to limit 256, gap steps included."""
    listed = 0
    for pattern in chain(small_universe(), seeded_universe()):
        pattern = gapped(pattern, 2, 0)
        got = _enumeration(enumerate_instances, pattern, 256)
        assert got == _enumeration(ref.enumerate_instances, pattern, 256), pattern
        listed += len(got) if isinstance(got, list) else 0
    assert listed == 4840


def test_instance_length_sums_per_occurrence():
    """instance_length sums each distinct variable's length times its
    occurrences; the integer equals the per-occurrence sum on every
    canonical and shortest match of both universes, dense and 3r + 5."""
    summed = 0
    for dense in chain(small_universe(), seeded_universe()):
        for pattern in (dense, gapped(dense)):
            for product_fn in (compressed_embedding, shortest_instance):
                match = product_fn(pattern)
                if match is None:
                    continue
                val = match.valuation
                want = sum(decompressed_length(val[s]) for s in pattern.symbols)
                assert instance_length(pattern, val) == want, pattern
                summed += 1
    assert summed == 4 * (140 + 264)
