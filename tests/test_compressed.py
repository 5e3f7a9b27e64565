from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from zimin import (
    NotAFactorError,
    SizeLimitError,
    ZBlock,
    block_code,
    check_concatenation,
    compose,
    compress,
    decompress,
    decompressed_length,
    expand_tokens,
    extend,
    generate_zimin,
    is_valid_code,
    is_zimin_factor,
    reduce_extended,
    token_code,
)
from zimin.compressed import MAX_EXPONENT


def test_compress_zimin_words():
    assert compress(generate_zimin(1)) == (1,)
    assert compress(generate_zimin(2)) == (1, 2, 1)
    assert compress(generate_zimin(4)) == (1, 2, 3, 4, 3, 2, 1)


def test_compress_worked_example():
    # 2141213121512131 sits inside Z_5; its records are 2,4 from the left
    # and 1,3,5 from the right
    word = (2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5, 1, 2, 1, 3, 1)
    assert compress(word) == (2, 4, 5, 3, 1)


def test_compress_preserves_ends():
    rng = random.Random(7)
    z = generate_zimin(8)
    for _ in range(200):
        i = rng.randrange(len(z))
        j = rng.randrange(i + 1, len(z) + 1)
        word = z[i:j]
        code = compress(word)
        assert code[0] == word[0]
        assert code[-1] == word[-1]


def test_compress_rejects_non_factor():
    with pytest.raises(NotAFactorError):
        compress((1, 1))
    with pytest.raises(NotAFactorError) as info:
        compress((1, 2, 1, 2))
    assert "2" in str(info.value)


def test_code_validation():
    assert is_valid_code((2, 4, 5, 3, 1))
    assert is_valid_code((1,))
    assert is_valid_code(())
    assert not is_valid_code((1, 2, 2, 1))  # plateau
    assert not is_valid_code((1, 3, 2, 3, 1))  # two peaks
    assert not is_valid_code((2, 1, 3))  # not unimodal


def test_decompress_examples():
    assert decompress((1, 2, 3, 4, 3, 2, 1)) == generate_zimin(4)
    assert decompress((2, 4, 5, 3, 1)) == (
        2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5, 1, 2, 1, 3, 1,
    )
    # gap between adjacent records a, b expands to Z_{min(a,b)-1}
    assert decompress((2, 4)) == (2, 1, 4)
    assert decompress((1, 4, 6, 4)) == (
        1, 4, 1, 2, 1, 3, 1, 2, 1, 6, 1, 2, 1, 3, 1, 2, 1, 4,
    )


def test_decompressed_length_exact():
    for code in [(1,), (1, 2, 1), (2, 4, 5, 3, 1), (1, 2, 3, 4, 3, 2, 1)]:
        assert decompressed_length(code) == len(decompress(code))
    # stays exact far beyond anything expandable
    big = tuple(range(1, 201)) + tuple(range(199, 0, -1))
    assert decompressed_length(big) == 2**200 - 1


def test_decompressed_length_huge_letters():
    # only the letters off the peak carry gaps, so a huge peak costs nothing
    assert decompressed_length((10**18,)) == 1
    assert decompressed_length((1, 10**18, 7)) == 1 + 1 + 2**6
    # a long run is summed in time linear in its bit length
    assert decompressed_length(tuple(range(1, 100_001))) == 2**99_999
    assert decompressed_length((MAX_EXPONENT + 1, 10**18)) == 1 + 2**MAX_EXPONENT
    for code in [(MAX_EXPONENT + 2, 10**18), (1, 10**18, 10**18 - 1)]:
        with pytest.raises(SizeLimitError, match="exponent cap"):
            decompressed_length(code)
        with pytest.raises(SizeLimitError):
            decompress(code)


def test_decompressed_length_matches_gap_sum():
    # the per-gap definition, 2**(min(a,b)-1) - 1 letters between records
    rng = random.Random(5)
    for _ in range(300):
        top = rng.randrange(1, 40)
        up = sorted(rng.sample(range(1, top), rng.randrange(0, top)))
        down = sorted(rng.sample(range(1, top), rng.randrange(0, top)), reverse=True)
        code = tuple(up) + (top,) + tuple(down)
        gaps = sum(2 ** (min(a, b) - 1) - 1 for a, b in zip(code, code[1:]))
        assert decompressed_length(code) == len(code) + gaps


def test_expand_tokens_huge_block():
    with pytest.raises(SizeLimitError):
        expand_tokens([ZBlock(10**18)])
    with pytest.raises(SizeLimitError):
        expand_tokens([ZBlock(3)], max_letters=6)
    assert expand_tokens([ZBlock(3)], max_letters=7) == generate_zimin(3)


def test_decompress_size_cap():
    big = tuple(range(1, 201)) + tuple(range(199, 0, -1))
    with pytest.raises(SizeLimitError):
        decompress(big)
    # explicit budget
    with pytest.raises(SizeLimitError):
        decompress((1, 2, 3, 2, 1), max_letters=4)


def test_round_trip_all_factors_of_z7():
    z = generate_zimin(7)
    seen = set()
    for i in range(len(z)):
        for j in range(i + 1, len(z) + 1):
            word = z[i:j]
            if word in seen:
                continue
            seen.add(word)
            assert decompress(compress(word)) == word


def test_round_trip_random_codes():
    # any strictly unimodal sequence is the code of some factor
    rng = random.Random(11)
    for _ in range(300):
        peak = rng.randrange(1, 10)
        up = sorted(rng.sample(range(1, peak + 1), rng.randrange(1, peak + 1)))
        down = sorted(rng.sample(range(1, peak), rng.randrange(0, peak)), reverse=True)
        code = tuple(up) + tuple(down)
        if not is_valid_code(code):
            continue
        word = decompress(code)
        assert is_zimin_factor(word)
        assert compress(word) == code


@pytest.mark.parametrize(
    "parts, ok",
    [
        ([(1, 3, 2), (1, 4, 3, 1), (2, 5, 3, 2), (1, 4, 3, 1)], True),
        ([(1,), (1,)], False),
        ([(1, 2, 1), (2, 1)], False),
        ([(2,), (1,), (2,)], False),  # 212 never occurs
        ([(2,), (1,), (3,)], True),
        ([(1, 2, 1)], True),
        ([], True),
        ([(1, 3, 1), (2,), (1,), (4, 1)], True),
    ],
)
def test_check_concatenation(parts, ok):
    assert check_concatenation(parts) is ok


def test_check_concatenation_matches_explicit_expansion():
    z6 = generate_zimin(6)
    factors = sorted(
        {z6[i:j] for i in range(len(z6)) for j in range(i + 1, min(i + 9, len(z6)) + 1)}
    )
    rng = random.Random(3)
    for _ in range(400):
        parts = [rng.choice(factors) for _ in range(rng.randrange(1, 4))]
        joined = tuple(x for part in parts for x in part)
        assert check_concatenation([compress(p) for p in parts]) == is_zimin_factor(joined)


def test_compose_worked_example():
    parts = [(1, 3, 2), (1, 4, 3, 1), (2, 5, 3, 2), (1, 4, 3, 1)]
    assert compose(parts) == (1, 3, 4, 5, 4, 3, 1)


def test_compose_rejects_bad_junction():
    with pytest.raises(NotAFactorError):
        compose([(1,), (1,)])
    with pytest.raises(NotAFactorError):
        compose([(1, 2, 1), (2, 1)])


def test_compose_rejects_bad_codes_like_check_concatenation():
    for parts in ([(1, 2, 1), (2, 2)], [(2, 1), (0, 1)], [(1, 3, 2, 4)]):
        with pytest.raises(ValueError) as composed:
            compose(parts)
        with pytest.raises(ValueError) as checked:
            check_concatenation(parts)
        assert str(composed.value) == str(checked.value)


def test_compose_equals_compress_of_concatenation():
    z4 = generate_zimin(4)
    factors = sorted({z4[i:j] for i in range(len(z4)) for j in range(i + 1, len(z4) + 1)})
    codes = [compress(f) for f in factors]
    for (wa, ca), (wb, cb) in product(zip(factors, codes), repeat=2):
        joined = wa + wb
        if is_zimin_factor(joined):
            assert compose([ca, cb]) == compress(joined)
        else:
            with pytest.raises(NotAFactorError):
                compose([ca, cb])


def test_compose_triples_accepting():
    # cutting a factor into three pieces always composes back to it
    z6 = generate_zimin(6)
    rng = random.Random(19)
    for _ in range(500):
        a = rng.randrange(len(z6))
        b = rng.randrange(a + 3, min(a + 40, len(z6)) + 1) if a + 3 <= len(z6) else None
        if b is None:
            continue
        word = z6[a:b]
        i = rng.randrange(1, len(word) - 1)
        j = rng.randrange(i + 1, len(word))
        parts = [word[:i], word[i:j], word[j:]]
        assert compose([compress(p) for p in parts]) == compress(word)


def test_compose_triples_rejecting():
    z6 = generate_zimin(6)
    factors = sorted(
        {z6[i:j] for i in range(len(z6)) for j in range(i + 1, min(i + 12, len(z6)) + 1)}
    )
    rng = random.Random(19)
    for _ in range(1000):
        words = [rng.choice(factors) for _ in range(3)]
        joined = words[0] + words[1] + words[2]
        codes = [compress(w) for w in words]
        if is_zimin_factor(joined):
            assert compose(codes) == compress(joined)
        else:
            with pytest.raises(NotAFactorError):
                compose(codes)


def test_block_code():
    assert block_code(1) == (1,)
    assert block_code(3) == (1, 2, 3, 2, 1)
    assert decompress(block_code(5)) == generate_zimin(5)
    with pytest.raises(ValueError):
        block_code(0)


def test_extend_examples():
    assert extend((1, 3, 2)) == [ZBlock(1), 3, ZBlock(1), 2]
    assert extend((1, 4, 3, 1)) == [ZBlock(1), 4, ZBlock(2), 3, ZBlock(1)]
    assert extend((2, 5, 3, 2)) == [2, ZBlock(1), 5, ZBlock(2), 3, ZBlock(1), 2]
    assert extend((1,)) == [ZBlock(1)]
    assert extend((2,)) == [2]


def test_extend_expands_to_original_word():
    rng = random.Random(5)
    z6 = generate_zimin(6)
    for _ in range(200):
        i = rng.randrange(len(z6))
        j = rng.randrange(i + 1, len(z6) + 1)
        code = compress(z6[i:j])
        assert expand_tokens(extend(code)) == z6[i:j]


def test_reduce_extended_worked_chain():
    ext = extend((1, 3, 2)) + extend((1, 4, 3, 1)) + extend((2, 5, 3, 2)) + extend((1, 4, 3, 1))
    assert len(ext) == 21
    reduced = reduce_extended(ext)
    assert reduced == [
        ZBlock(1), 3, ZBlock(2), 4, ZBlock(3), 5, ZBlock(3), 4, ZBlock(2), 3, ZBlock(1),
    ]
    # reduction only regroups, the underlying word is unchanged
    assert expand_tokens(reduced) == expand_tokens(ext)


def test_reduce_extended_rejects_non_factor():
    with pytest.raises(NotAFactorError):
        reduce_extended([ZBlock(1), 2, ZBlock(1), 2])
    with pytest.raises(NotAFactorError):
        reduce_extended([ZBlock(1), ZBlock(1)])


def test_reduce_extended_small_cases():
    assert reduce_extended([]) == []
    assert reduce_extended([ZBlock(1), 2, ZBlock(1)]) == [ZBlock(2)]
    assert reduce_extended([ZBlock(2), 3, ZBlock(2)]) == [ZBlock(3)]
    assert reduce_extended([ZBlock(1), 2]) == [ZBlock(1), 2]
    assert reduce_extended([2, ZBlock(1), 3]) == [2, ZBlock(1), 3]


def test_reduce_extended_agrees_with_compose():
    z5 = generate_zimin(5)
    factors = sorted({z5[i:j] for i in range(len(z5)) for j in range(i + 1, len(z5) + 1)})
    rng = random.Random(23)
    for _ in range(500):
        words = [rng.choice(factors) for _ in range(rng.randrange(1, 5))]
        joined = tuple(x for w in words for x in w)
        ext = [t for w in words for t in extend(compress(w))]
        if is_zimin_factor(joined):
            reduced = reduce_extended(ext)
            assert expand_tokens(reduced) == joined
            assert expand_tokens(extend(compose([compress(w) for w in words]))) == joined
        else:
            with pytest.raises(NotAFactorError):
                reduce_extended(ext)


def test_token_code():
    assert token_code(ZBlock(3)) == (1, 2, 3, 2, 1)
    assert token_code(5) == (5,)


def test_zblock_basics():
    assert repr(ZBlock(2)) == "Z2"
    assert ZBlock(2) == ZBlock(2)
    assert ZBlock(2) != ZBlock(3)
    with pytest.raises(ValueError):
        ZBlock(0)
