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
    generate_zimin,
    instance_length,
    shortest_instance,
    validate_ranking,
)
from zimin import matching
from zimin.boundary import AdjacencyGraph
from zimin.compressed import decompressed_length
from zimin.matching import _peel
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


def random_rankings():
    """20,000 seeded rankings of <= 24 positions over <= 24 variables,
    ranks drawn from 1..m for a random m <= 7, so that both conditions
    break often and in every combination."""
    rng = random.Random(23)
    for _ in range(20000):
        n = rng.randrange(1, 25)
        symbols = [rng.randrange(rng.randrange(1, n + 1)) for _ in range(n)]
        m = rng.randrange(1, 8)
        yield RankedPattern(symbols, {v: rng.randrange(1, m + 1) for v in set(symbols)})


@pytest.mark.parametrize("universe", [small_universe, seeded_universe, random_rankings])
def test_validate_ranking_equals_stack_scan(universe):
    """validate_ranking, read off the peel scan, reports the same
    violations as the reference stack scan, kinds, positions and order,
    dense and with ranks 3r + 5."""
    for dense in universe():
        for pattern in (dense, gapped(dense)):
            assert validate_ranking(pattern) == ref.reference_validate_ranking(pattern), pattern


def _rejected(pattern):
    return bool(_peel(pattern.rank_sequence)[1])


@pytest.mark.parametrize("universe", [small_universe, seeded_universe])
def test_peel_scan_rejects_exactly_the_broken_rankings(universe):
    """The peel scan finds a pair exactly when the reference stack scan
    reports a violation, dense and with ranks 3r + 5, and then every
    product answers no match."""
    broken = 0
    for dense in universe():
        for pattern in (dense, gapped(dense)):
            rejected = _rejected(pattern)
            assert rejected == bool(ref.reference_validate_ranking(pattern)), pattern
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
    assert not _rejected(chain)
    for pos in (0, 50, len(chain)):
        symbols = chain.symbols[:pos] + (top,) + chain.symbols[pos:]
        pattern = RankedPattern(symbols, chain.ranks)
        kinds = {v.kind for v in validate_ranking(pattern)}
        assert "max-rank-repeated" in kinds
        assert _rejected(pattern)
        assert_no_match(pattern)
    symbols = tuple(range(300))
    ruler = {p: ((p + 1) & -(p + 1)).bit_length() + 10 for p in symbols}
    assert not _rejected(RankedPattern(symbols, ruler))
    for pos in (1, 150, 299):
        pattern = RankedPattern(symbols, {**ruler, pos: ruler[pos - 1]})
        assert validate_ranking(pattern)[0].kind == "equal-ranks-unseparated"
        assert _rejected(pattern)
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


def distinct_ruler(rng, length=300, shift=10, tail_first=False):
    """The benchmark's distinct ruler: one variable per position of a
    ruler window at a seeded offset, ranked its ruler value plus
    ``shift``, and a descending tail of fresh variables over ranks
    shift..1 before or after it, so that no level is empty."""
    block = 1 << length.bit_length()
    first = block * rng.randrange(1, 64) + rng.randrange(block - length)
    body = [("x", p) for p in range(first + 1, first + length + 1)]
    tail = [("t", rank) for rank in range(shift, 0, -1)]
    ranks = {x: (x[1] & -x[1]).bit_length() + shift for x in body}
    ranks.update((t, t[1]) for t in tail)
    return RankedPattern(tail + body if tail_first else body + tail, ranks)


def larger_universe():
    """1,500 seeded patterns with <= 11 variables, length <= 60 and ranks
    <= 13; 300 ruler-shaped patterns of <= 400 positions, each ruler value
    taken by one of up to three variables of that rank, so variables
    repeat; one chain plus ruler of top rank 100; and four distinct
    rulers of 300 positions, with the tail after and before in turn.
    Their components merge and split over many levels."""
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
    for seed in range(4):
        yield distinct_ruler(random.Random(seed), tail_first=seed % 2)


@pytest.mark.parametrize("ranks", ["dense", "3r+5"])
def test_larger_universe(ranks):
    """Canonical and shortest matches against the per-level reference on
    the larger universe, with its own ranks and with ranks 3r + 5."""
    patterns = larger_universe()
    if ranks == "3r+5":
        patterns = map(gapped, patterns)
    matched = sum(assert_same(pattern, enumerate_too=False) for pattern in patterns)
    assert matched == 372


def chain_in_ruler(at, top=100, ruler_top=7):
    """The benchmark's chain plus ruler: a decreasing chain of fresh
    variables over ranks top..ruler_top + 1, inserted at ``at`` into the
    ruler over ranks 1..ruler_top, one variable per ruler value."""
    part = [("w", (p & -p).bit_length()) for p in range(1, 1 << ruler_top)]
    chain = [("c", rank) for rank in range(top, ruler_top, -1)]
    ranks = {name: name[1] for name in part + chain}
    return RankedPattern(part[:at] + chain + part[at:], ranks)


@pytest.mark.parametrize("shape", ["distinct ruler", "chain in ruler"])
def test_match_workload_shapes(shape):
    """Canonical, shortest and count against the per-level reference on
    the two shapes of the match benchmark: the 300-position distinct
    ruler, whose ruler levels rebuild nearly every component, with its tail
    first and last, and the chain over ranks 100..8 at the start, middle
    and end of the 127-position ruler over ranks 1..7."""
    if shape == "distinct ruler":
        patterns = [
            distinct_ruler(random.Random(seed), tail_first=first)
            for seed in range(11, 14)
            for first in (True, False)
        ]
    else:
        patterns = [chain_in_ruler(at) for at in (0, 63, 127)]
    for pattern in patterns:
        assert assert_same(pattern, enumerate_too=False)


def hub(m, l_ranks=None, ruler=False):
    """The hub h l1 y1 h l2 y2 ... h lm ym, with rank(h) = m + 1, rank(l_j)
    = l_ranks[j - 1] (j by default) and rank(y_j) = m + 1 + j.  Every
    step inserts one l after an h, which touches the component that
    holds the end side of h and the start side of every y still after
    an h, and each side of h holds one slot per occurrence.  With
    ``ruler`` the y's are one variable per ruler value v of j, ranked
    m + 1 + v, and the pattern clashes from m = 3 on."""
    symbols, ranks = [], {"h": m + 1}
    for j, rank in enumerate(l_ranks or range(1, m + 1), 1):
        value = (j & -j).bit_length() if ruler else j
        y = ("y", value)
        symbols += ["h", ("l", j), y]
        ranks[("l", j)] = rank
        ranks[y] = m + 1 + value
    return RankedPattern(symbols, ranks)


def hub_universe():
    """The hub for m = 1..8: with l_j ranked j, with the l ranks shuffled
    by a fixed seed, and with ruler-ranked y's."""
    rng = random.Random(21)
    for m in range(1, 9):
        yield hub(m)
        yield hub(m, rng.sample(range(1, m + 1), m))
        yield hub(m, ruler=True)


@pytest.mark.parametrize("ranks", ["dense", "3r+5"])
def test_hub_family(ranks):
    """Canonical, shortest, count and enumeration (limit 64) against the
    per-level reference on the hub family, whose sides hold many slots,
    with its own ranks and with ranks 3r + 5."""
    patterns = hub_universe()
    if ranks == "3r+5":
        patterns = map(gapped, patterns)
    assert sum(map(assert_same, patterns)) == 8 + 8 + 2


def ruler_then_chain(k, chain_ranks, at=None, below=0):
    """Z_k over x1..xk with a chain of fresh variables inserted at ``at``
    (after the word by default).  The letters up to ``below`` are ranked
    their letter, the chain is ranked below + chain_ranks, and the other
    letters are ranked below + len(chain_ranks) + their letter.  With
    ascending ranks after the word every chain step inserts one c right
    after the word's last x1: it rewrites one slot of the end side of
    x1, whose 2^(k-1) slots hold k distinct pairs, and rebuilds that
    side's component.  With ``below`` a level of many insertions follows
    the chain's levels of few."""
    word = [("x", v) for v in generate_zimin(k)]
    ranks = {x: x[1] + (0 if x[1] <= below else below + len(chain_ranks)) for x in word}
    chain = [("c", j) for j in range(len(chain_ranks))]
    ranks.update(zip(chain, (below + rank for rank in chain_ranks)))
    at = len(word) if at is None else at
    return RankedPattern(word[:at] + chain + word[at:], ranks)


def counted_universe():
    """Inputs with sides of more than 8 slots on levels of few insertions,
    where the engine searches those sides through their counts: Z_4, Z_5
    and Z_6 with chains of 1..10 fresh variables, ranked ascending,
    descending and shuffled, after and inside the word, and ranked above
    none, one or two of its letters; and the hub for m = 9..12, with l_j
    ranked j and shuffled."""
    rng = random.Random(22)
    for k in (4, 5, 6):
        for m in range(1, 11):
            orders = (range(1, m + 1), range(m, 0, -1), rng.sample(range(1, m + 1), m))
            for chain_ranks, below in product(orders, range(3)):
                for at in (None, rng.randrange(1 << k)):
                    yield ruler_then_chain(k, list(chain_ranks), at, below)
    for m in range(9, 13):
        yield hub(m)
        yield hub(m, rng.sample(range(1, m + 1), m))


@pytest.mark.parametrize("ranks", ["dense", "3r+5"])
def test_counted_sides(ranks, monkeypatch):
    """Canonical, shortest, count and enumeration (limit 64) against the
    per-level reference where sides are searched through their counts,
    and those counts are moved slot by slot on some of these inputs."""
    moves = []
    shift = matching._shift
    monkeypatch.setattr(matching, "_shift", lambda *move: moves.append(move) or shift(*move))
    patterns = counted_universe()
    if ranks == "3r+5":
        patterns = map(gapped, patterns)
    assert sum(map(assert_same, patterns)) == 369
    assert moves


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
