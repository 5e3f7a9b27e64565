from __future__ import annotations

import random
import time
from itertools import product

import pytest
import reference_engine
from test_avoidability import canonical_patterns

from zimin import (
    EnumerationLimitError,
    RankedPattern,
    SizeLimitError,
    check_concatenation,
    compressed_embedding,
    count_instances,
    decompress,
    enumerate_instances,
    instance_length,
    is_zimin_factor,
    oracle_count,
    shortest_instance,
    uncompressed_embedding,
    validate_ranking,
)
from zimin import matching
from zimin.matching import MAX_RUN_CELLS

# the two embedding walkthroughs used throughout: a 5-variable pattern with
# ruler-like ranks, and a 6-variable one with a rich free-choice structure
EX1 = RankedPattern(
    tuple("dacblcadacba"),
    {"d": 4, "a": 1, "c": 3, "b": 2, "l": 5},
)
EX1_COMPRESSED = {"a": (1,), "b": (1, 2), "c": (2, 3), "d": (2, 4), "l": (1, 5, 1)}
EX1_UNCOMPRESSED = {
    "a": (1,),
    "b": (1, 2),
    "c": (2, 1, 3),
    "d": (2, 1, 4),
    "l": (1, 5, 1),
}

EX2 = RankedPattern(
    tuple("acbdeacbzea"),
    {"a": 1, "c": 3, "b": 2, "d": 4, "e": 5, "z": 6},
)
EX2_CANONICAL = {
    "a": (1,),
    "b": (1, 2),
    "c": (2, 3),
    "d": (1, 4),
    "e": (1, 2, 3, 5),
    "z": (1, 4, 6, 4),
}
# a non-canonical member of the same solution family
EX2_ALTERNATE = {
    "a": (1,),
    "b": (2,),
    "c": (3, 1),
    "d": (1, 4),
    "e": (1, 2, 3, 5, 2),
    "z": (1, 4, 6, 4),
}


def test_ranked_pattern_validation():
    with pytest.raises(ValueError, match="at least one symbol"):
        RankedPattern((), {})
    cover = "^ranks must cover exactly the occurring variables$"
    with pytest.raises(ValueError, match=cover):
        RankedPattern(("a",), {})  # missing rank
    with pytest.raises(ValueError, match=cover):
        RankedPattern(("a", "b"), {"a": 1})  # missing rank
    with pytest.raises(ValueError, match=cover):
        RankedPattern(("a",), {"a": 1, "b": 2})  # rank for absent variable
    for bad in (True, 1.0, "1", 0, -3):
        with pytest.raises(ValueError, match="^rank of 'a' must be a positive integer$"):
            RankedPattern(("a",), {"a": bad})
        # the first bad variable in the order of ranks, not of the symbols
        with pytest.raises(ValueError, match="^rank of 'b' must be a positive integer$"):
            RankedPattern(tuple("abc"), {"c": 1, "b": bad, "a": bad})
        with pytest.raises(ValueError, match="^rank of 'c' must be a positive integer$"):
            RankedPattern(tuple("abc"), {"a": 2, "b": 1, "c": bad})
    # an int subclass other than bool is a rank
    class Rank(int):
        pass

    pattern = RankedPattern(tuple("aba"), {"a": Rank(1), "b": 2})
    assert pattern.rank_sequence == (1, 2, 1)
    assert count_instances(pattern) == 1


def test_ranked_pattern_accessors():
    assert len(EX1) == 12
    assert EX1.max_rank == 5
    assert EX1.variables == ("d", "a", "c", "b", "l")
    assert EX1.rank_sequence == (4, 1, 3, 2, 5, 3, 1, 4, 1, 3, 2, 1)


def test_validate_ranking_accepts():
    assert validate_ranking(EX1) == ()
    assert validate_ranking(EX2) == ()
    assert validate_ranking(RankedPattern(("a", "b"), {"a": 1, "b": 3})) == ()


def test_validate_ranking_equal_unseparated():
    bad = RankedPattern(("a", "c", "b"), {"a": 1, "c": 1, "b": 2})
    kinds = {v.kind for v in validate_ranking(bad)}
    assert kinds == {"equal-ranks-unseparated"}
    (violation,) = validate_ranking(bad)
    assert violation.positions == (0, 1)


def test_validate_ranking_max_repeated():
    bad = RankedPattern(("a", "b"), {"a": 1, "b": 1})
    kinds = {v.kind for v in validate_ranking(bad)}
    assert kinds == {"equal-ranks-unseparated", "max-rank-repeated"}


def test_embedding_small_example():
    rp = RankedPattern(tuple("babca"), {"a": 2, "b": 1, "c": 3})
    result = compressed_embedding(rp)
    assert result.valuation == {"a": (2,), "b": (1,), "c": (3, 1)}
    assert result.free_components == 0
    assert count_instances(rp) == 1
    assert instance_length(rp, shortest_instance(rp).valuation) == 6
    word = tuple(x for s in rp.symbols for x in decompress(result.valuation[s]))
    assert word == (1, 2, 1, 3, 1, 2)


def test_embedding_example_one():
    result = compressed_embedding(EX1)
    assert result.valuation == EX1_COMPRESSED
    assert result.free_components == 1
    assert count_instances(EX1) == 2


def test_uncompressed_example_one():
    values = uncompressed_embedding(EX1)
    assert values == EX1_UNCOMPRESSED


def test_compressed_decompresses_to_uncompressed():
    result = compressed_embedding(EX1)
    assert {v: decompress(c) for v, c in result.valuation.items()} == uncompressed_embedding(EX1)


def test_embedding_example_two():
    result = compressed_embedding(EX2)
    assert result.valuation == EX2_CANONICAL
    assert result.free_components == 7
    assert count_instances(EX2) == 128


def test_enumerate_example_two():
    values = enumerate_instances(EX2, limit=128)
    assert len(values) == 128
    assert values[0] == EX2_CANONICAL
    assert EX2_ALTERNATE in values
    for valuation in values:
        codes = [valuation[s] for s in EX2.symbols]
        assert check_concatenation(codes)


def _assert_enumeration_distinct(rp):
    values = enumerate_instances(rp, limit=4096)
    match = compressed_embedding(rp)
    assert values[0] == match.valuation
    assert len(values) == 2**match.free_components
    assert len({tuple(v[s] for s in rp.variables) for v in values}) == len(values)


def test_enumeration_is_distinct_on_ruler():
    # a distinct variable per position, ranked by the ruler 1,2,1,3,1,2,1,4
    rp = RankedPattern(tuple("abcdefgh"), dict(zip("abcdefgh", (1, 2, 1, 3, 1, 2, 1, 4))))
    assert compressed_embedding(rp).free_components == 3
    _assert_enumeration_distinct(rp)


def test_enumeration_is_distinct_on_criterion_two_universe():
    checked = 0
    for symbols in canonical_patterns(max_vars=3, max_len=6):
        variables = tuple(dict.fromkeys(symbols))
        for ranks in product((1, 2, 3), repeat=len(variables)):
            rp = RankedPattern(symbols, dict(zip(variables, ranks)))
            if not validate_ranking(rp):
                _assert_enumeration_distinct(rp)
                checked += 1
    assert checked == 43


def test_enumerate_limit_carries_count():
    rp = RankedPattern(("x",), {"x": 3})
    assert count_instances(rp) == 16
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_instances(rp, limit=8)
    assert info.value.count == 16
    assert info.value.limit == 8
    assert enumerate_instances(rp, limit=16)[0] == {"x": (3,)}


def test_enumerate_negative_limit_is_bad_input():
    # refused alike whether the pattern matches or not
    for rp in (RankedPattern(("x",), {"x": 3}), RankedPattern(("a", "a"), {"a": 1})):
        with pytest.raises(ValueError, match="-1"):
            enumerate_instances(rp, limit=-1)


def test_single_variable_rank_two():
    rp = RankedPattern(("x",), {"x": 2})
    assert count_instances(rp) == 4
    values = enumerate_instances(rp)
    assert values == [
        {"x": (2,)},
        {"x": (1, 2)},
        {"x": (2, 1)},
        {"x": (1, 2, 1)},
    ]


def test_no_match_on_forced_conflict():
    # aa at the bottom level needs a 1 on exactly one side of the junction,
    # but rank-1 values are exactly the letter 1 on both sides
    rp = RankedPattern(("a", "a"), {"a": 1})
    assert compressed_embedding(rp) is None
    assert uncompressed_embedding(rp) is None
    assert count_instances(rp) == 0
    assert enumerate_instances(rp) == []
    assert shortest_instance(rp) is None


def test_invalid_ranking_rejected_by_validation():
    bad = RankedPattern(("a", "c", "b"), {"a": 1, "c": 1, "b": 2})
    assert compressed_embedding(bad) is None
    # the level walk with no precheck still yields no match, via the flag conflicts
    assert reference_engine._run(bad) is None


def test_conditions_are_not_sufficient():
    # no condition is violated, yet a level system clashes in the engine
    # and in the explicit-word reference, and the brute-force oracle finds
    # no match either
    rp = RankedPattern(tuple("xyzxwy"), {"x": 3, "y": 2, "z": 4, "w": 1})
    assert validate_ranking(rp) == ()
    assert compressed_embedding(rp) is None
    assert uncompressed_embedding(rp) is None
    assert oracle_count(rp) == 0


def test_gapped_ranking_matches():
    rp = RankedPattern(("a", "b"), {"a": 1, "b": 3})
    result = compressed_embedding(rp)
    assert result.valuation == {"a": (1,), "b": (3,)}
    assert result.free_components == 3
    assert count_instances(rp) == 8


def test_sparse_aba_count_is_exact():
    for b in range(2, 2001):
        rp = RankedPattern(tuple("aba"), {"a": 1, "b": b})
        assert count_instances(rp) == 2 ** (2 * b - 4)


def _best_ms(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000)
    return min(times)


def test_aba_at_huge_rank():
    """Cost grows with the distinct ranks, not with b: at b = 10**18 both
    matches are exact, l = 2b - 4, and count refuses 2**l."""
    b = 10**18
    rp = RankedPattern(tuple("aba"), {"a": 1, "b": b})
    for product_fn in (compressed_embedding, shortest_instance):
        res = product_fn(rp)
        assert res.valuation == {"a": (1,), "b": (b,)}
        assert res.free_components == 2 * b - 4
        assert _best_ms(lambda: product_fn(rp)) < 10
    assert instance_length(rp, shortest_instance(rp).valuation) == 3

    def refuse():
        with pytest.raises(SizeLimitError):
            count_instances(rp)

    assert _best_ms(refuse) < 50
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_instances(rp)
    assert info.value.free_components == 2 * b - 4
    assert f"2^{2 * b - 4} solutions" in str(info.value)


def test_run_cells_cap():
    """cab with c = r, b = r - 1, a = 1 gives b the code 2..r-1: exact
    at r = 10**5, and past MAX_RUN_CELLS a SizeLimitError, fast."""
    r = 10**5
    res = compressed_embedding(RankedPattern(tuple("cab"), {"c": r, "b": r - 1, "a": 1}))
    assert res.valuation == {"c": (r,), "b": tuple(range(2, r)), "a": (1,)}
    assert res.free_components == 3 * r - 6
    assert check_concatenation([res.valuation[s] for s in "cab"])
    huge = RankedPattern(tuple("cab"), {"c": 10**18, "b": 10**18 - 1, "a": 1})

    def refuse():
        with pytest.raises(SizeLimitError, match=f"cap is {MAX_RUN_CELLS}"):
            compressed_embedding(huge)

    assert _best_ms(refuse) < 50


def test_run_cells_cap_is_exact(monkeypatch):
    """cab with c = r, b = r - 1, a = 1 spells the codes r, 2..r-1 and 1,
    r cells in all: at a cap of 100, r = 100 matches and r = 101 is
    refused."""
    monkeypatch.setattr(matching, "MAX_RUN_CELLS", 100)

    def cab(r):
        return RankedPattern(tuple("cab"), {"c": r, "b": r - 1, "a": 1})

    assert compressed_embedding(cab(100)).valuation["b"] == tuple(range(2, 100))
    with pytest.raises(SizeLimitError, match="^codes would hold 101 cells, cap is 100$"):
        compressed_embedding(cab(101))
    # counting spells no code, so the cap does not bind it
    assert count_instances(cab(101)) == 2**297


def test_run_cells_cap_counts_runs_past_sys_maxsize():
    """A run longer than sys.maxsize letters, which len() rejects, is
    still counted exactly."""
    r = 10**30
    rp = RankedPattern(tuple("cab"), {"c": r, "b": r - 1, "a": 1})
    with pytest.raises(SizeLimitError, match=f"^codes would hold {r} cells, cap is {MAX_RUN_CELLS}$"):
        compressed_embedding(rp)


def test_run_cells_cap_binds_a_decreasing_chain():
    """A decreasing chain of 5,000 fresh variables has no rank gap, yet its
    codes would hold 12,497,501 cells: both spelling products refuse it
    fast, and counting it is past MAX_EXPONENT."""
    n = 5000
    rp = RankedPattern([f"v{r}" for r in range(n, 0, -1)], {f"v{r}": r for r in range(n, 0, -1)})
    for spell_fn in (compressed_embedding, shortest_instance):

        def refuse():
            with pytest.raises(SizeLimitError, match=f"^codes would hold 12497501 cells, cap is {MAX_RUN_CELLS}$"):
                spell_fn(rp)

        assert _best_ms(refuse) < 1000
    with pytest.raises(SizeLimitError, match="exponent cap"):
        count_instances(rp)


def test_count_is_not_bound_by_run_cells():
    """w x0 w x1 ... x999 w with w = 10,001 and x_i = 10,002 + i: its
    codes would hold 10,509,502 cells, past MAX_RUN_CELLS, but
    l = 519,500 is within MAX_EXPONENT, so the count is exact, fast."""
    w = 10_001
    symbols, ranks = ["w"], {"w": w}
    for i in range(1000):
        symbols += [f"x{i}", "w"]
        ranks[f"x{i}"] = w + 1 + i
    rp = RankedPattern(symbols, ranks)
    assert count_instances(rp) == 2**519_500
    assert _best_ms(lambda: count_instances(rp)) < 200
    message = f"^codes would hold 10509502 cells, cap is {MAX_RUN_CELLS}$"
    with pytest.raises(SizeLimitError, match=message):
        compressed_embedding(rp)


def test_enumerate_limit_message():
    """The count is shown in decimal up to 2**64, as 2^l past it."""
    with pytest.raises(EnumerationLimitError, match="^4611686018427387904 solutions exceed"):
        enumerate_instances(RankedPattern(("x",), {"x": 32}), limit=8)
    with pytest.raises(EnumerationLimitError, match="^2\\^66 solutions exceed") as info:
        enumerate_instances(RankedPattern(("x",), {"x": 34}), limit=8)
    assert info.value.count == 2**66


def test_shortest_instance_is_minimal():
    for rp in [EX1, EX2, RankedPattern(("x",), {"x": 3})]:
        values = enumerate_instances(rp, limit=1024)
        best = min(instance_length(rp, v) for v in values)
        short = shortest_instance(rp)
        assert instance_length(rp, short.valuation) == best


def test_instance_length_counts_occurrences():
    rp = RankedPattern(tuple("babca"), {"a": 2, "b": 1, "c": 3})
    valuation = compressed_embedding(rp).valuation
    total = sum(len(decompress(valuation[s])) for s in rp.symbols)
    assert instance_length(rp, valuation) == total == 6


def test_refused_enumeration_spells_nothing(monkeypatch):
    """l is checked against the limit before any code is spelled: cab with
    c = r, b = r - 1, a = 1 is refused with l = 3r - 6 at r = 10**7,
    where spelling b's code would pass MAX_RUN_CELLS."""

    def spell(run):
        raise AssertionError("a refused enumeration spelled its codes")

    monkeypatch.setattr(matching, "_spell", spell)
    r = 10**7
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_instances(RankedPattern(tuple("cab"), {"c": r, "b": r - 1, "a": 1}))
    assert info.value.free_components == 3 * r - 6 == 29_999_994


def _random_ranked_pattern(rng):
    k = rng.randrange(1, 5)
    pool = "abcd"[:k]
    n = rng.randrange(1, 8)
    symbols = tuple(rng.choice(pool) for _ in range(n))
    present = sorted(set(symbols))
    ranks = {v: rng.randrange(1, 5) for v in present}
    return RankedPattern(symbols, ranks)


def test_differential_compressed_vs_uncompressed():
    rng = random.Random(57)
    checked = 0
    for _ in range(800):
        rp = _random_ranked_pattern(rng)
        compressed = compressed_embedding(rp)
        explicit = uncompressed_embedding(rp)
        if compressed is None:
            assert explicit is None
            continue
        checked += 1
        assert {v: decompress(c) for v, c in compressed.valuation.items()} == explicit
    assert checked > 100


def test_instances_substitute_to_factors():
    rng = random.Random(91)
    for _ in range(300):
        rp = _random_ranked_pattern(rng)
        if validate_ranking(rp):
            continue
        result = compressed_embedding(rp)
        if result is None:
            continue
        word = tuple(x for s in rp.symbols for x in decompress(result.valuation[s]))
        assert is_zimin_factor(word), (rp.symbols, rp.ranks, word)
        top = max(rp.ranks[v] for v in rp.ranks)
        assert max(word) == top
