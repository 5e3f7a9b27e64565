from __future__ import annotations

import random

import pytest

from zimin import (
    OracleBudget,
    RankedPattern,
    SizeLimitError,
    compressed_embedding,
    count_instances,
    decompress,
    enumerate_instances,
    generate_zimin,
    instance_length,
    is_zimin_factor,
    oracle_count,
    oracle_enumerate,
    oracle_is_factor,
    oracle_min_length,
    shortest_instance,
    validate_ranking,
)


def test_oracle_is_factor_against_windows():
    z = generate_zimin(6)
    for i in range(0, len(z), 3):
        for j in range(i + 1, min(i + 15, len(z)) + 1):
            assert oracle_is_factor(z[i:j])


def test_oracle_is_factor_rejects():
    assert not oracle_is_factor((1, 1))
    assert not oracle_is_factor((2, 1, 2))
    assert not oracle_is_factor((1, 2, 1, 2))
    assert oracle_is_factor(())
    with pytest.raises(ValueError):
        oracle_is_factor((0,))
    with pytest.raises(SizeLimitError):
        oracle_is_factor((13,))  # beyond the substring table cap


def test_oracle_agrees_with_projection_test():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randrange(1, 9)
        word = tuple(rng.randrange(1, 5) for _ in range(n))
        assert oracle_is_factor(word) == is_zimin_factor(word), word


def test_oracle_enumerate_two_variables():
    rp = RankedPattern(("a", "b"), {"a": 1, "b": 2})
    assert oracle_enumerate(rp) == {((1,), (2,)), ((1,), (2, 1))}
    assert oracle_count(rp) == 2
    assert oracle_min_length(rp) == 2


def test_oracle_enumerate_single_variable():
    rp = RankedPattern(("x",), {"x": 2})
    assert oracle_enumerate(rp) == {
        ((2,),),
        ((1, 2),),
        ((2, 1),),
        ((1, 2, 1),),
    }
    assert oracle_min_length(rp) == 1


def test_oracle_no_match():
    rp = RankedPattern(("a", "a"), {"a": 1})
    assert oracle_enumerate(rp) == set()
    assert oracle_count(rp) == 0
    assert oracle_min_length(rp) is None


def test_oracle_budget():
    with pytest.raises(SizeLimitError):
        oracle_enumerate(RankedPattern(("a",), {"a": 5}))
    with pytest.raises(SizeLimitError):
        oracle_enumerate(RankedPattern(tuple("abcabcabc"), {"a": 1, "b": 2, "c": 3}))
    # both caps can be lifted explicitly
    wide = OracleBudget(max_k=5, max_pattern_len=16)
    assert oracle_count(RankedPattern(("a",), {"a": 5}), budget=wide) == 256


def test_oracle_cross_checks_fast_path():
    rng = random.Random(29)
    for _ in range(120):
        k = rng.randrange(1, 4)
        pool = "abc"[:k]
        n = rng.randrange(1, 6)
        symbols = tuple(rng.choice(pool) for _ in range(n))
        ranks = {v: rng.randrange(1, 4) for v in set(symbols)}
        rp = RankedPattern(symbols, ranks)
        if validate_ranking(rp):
            continue
        expected = oracle_enumerate(rp)
        assert count_instances(rp) == len(expected)
        if expected:
            values = enumerate_instances(rp, limit=4096)
            as_words = {
                tuple(decompress(v[s]) for s in rp.variables) for v in values
            }
            assert as_words == expected
            assert instance_length(rp, shortest_instance(rp).valuation) == oracle_min_length(rp)
        else:
            assert compressed_embedding(rp) is None
