from __future__ import annotations

import random
import tracemalloc
from collections import Counter, deque
from itertools import chain, combinations, product, repeat

import pytest

from zimin import (
    NotAFactorError,
    SizeLimitError,
    ZBlock,
    check_concatenation,
    compose,
    compress,
    decompress,
    decompressed_length,
    expand_tokens,
    extend,
    generate_zimin,
    is_zimin_factor,
    reduce_extended,
    validate_code,
)
import zimin.compressed
import zimin.words
from zimin.compressed import MAX_EXPONENT, _bits, is_unimodal
from zimin.words import _scan


def _records(seq):
    """Left-to-right maxima followed by right-to-left maxima of a
    sequence whose maximum is unique, keeping that maximum once."""
    prefix: list[int] = []
    best = 0
    for x in seq:
        if x > best:
            prefix.append(x)
            best = x
    suffix: list[int] = []
    best = 0
    for x in reversed(seq):
        if x > best:
            suffix.append(x)
            best = x
    suffix.reverse()
    return tuple(prefix[:-1] + suffix)


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


def _check_compress(word):
    code = compress(word)
    assert code == _records(word), word
    assert decompress(code) == word
    assert _scan(word)[1] == word.index(max(word))


def test_compress_reads_records_off_the_peak_index_z8():
    z = generate_zimin(8)
    for i in range(len(z)):
        for j in range(i + 1, len(z) + 1):
            _check_compress(z[i:j])


def test_compress_reads_a_word_given_once_as_a_generator():
    """The factor scan and the peak lookup both read the word, so an
    iterator is made a sequence first; first_violation takes one too."""
    z = generate_zimin(8)
    for i in range(len(z)):
        for j in range(i + 1, len(z) + 1):
            window = z[i:j]
            assert compress(x for x in window) == compress(window), window
    assert is_zimin_factor(x for x in (1, 2, 1))
    with pytest.raises(NotAFactorError):
        compress(x for x in (1, 1))
    tracemalloc.start()
    try:
        for value in (0, 10**12):
            with pytest.raises(TypeError):
                compress(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_compress_reads_records_off_the_peak_index_long_windows():
    rng = random.Random(17)
    z = generate_zimin(17)
    for _ in range(2000):
        # log-uniform lengths up to 2^16
        length = rng.randrange(1, (1 << rng.randrange(1, 17)) + 1)
        start = rng.randrange(len(z) - length + 1)
        _check_compress(z[start : start + length])


def test_compress_letters_past_a_byte():
    assert compress((1, 300)) == (1, 300)
    assert compress((300,)) == (300,)
    assert compress([1, 2, 1, 300, 1, 2, 1]) == (1, 2, 300, 2, 1)
    assert compress((2, 1, 400, 1)) == (2, 400, 1)
    assert _scan((1, 2, 1, 300, 1))[1] == 3
    with pytest.raises(NotAFactorError):
        compress((300, 1, 300))


def test_compress_rejects_non_factor():
    with pytest.raises(NotAFactorError):
        compress((1, 1))
    with pytest.raises(NotAFactorError) as info:
        compress((1, 2, 1, 2))
    assert "2" in str(info.value)


def test_code_validation():
    for code in ((2, 4, 5, 3, 1), (1,), ()):
        assert validate_code(code) == code
    for code in ((1, 2, 2, 1), (1, 3, 2, 3, 1), (2, 1, 3)):  # plateau, two peaks, not unimodal
        with pytest.raises(ValueError):
            validate_code(code)


def test_decompress_examples():
    assert decompress((1, 2, 3, 4, 3, 2, 1)) == generate_zimin(4)
    assert decompress((1, 2, 3, 4, 5, 4, 3, 2, 1)) == generate_zimin(5)
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
        if down and down[0] == up[-1]:  # a plateau
            with pytest.raises(ValueError):
                validate_code(code)
            continue
        assert validate_code(code) == code
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


def reference_extend(code):
    """extend as it ran before blocks were shared: a new ZBlock per token."""
    tokens = []
    for i, x in enumerate(code):
        tokens.append(ZBlock(1) if x == 1 else x)
        if i + 1 < len(code) and min(x, code[i + 1]) >= 2:
            tokens.append(ZBlock(min(x, code[i + 1]) - 1))
    return tokens


def _fresh(tokens):
    return [ZBlock(t.order) if isinstance(t, ZBlock) else t for t in tokens]


def test_extend_and_reduce_equal_fresh_blocks():
    z6 = generate_zimin(6)
    for i in range(len(z6)):
        for j in range(i + 1, len(z6) + 1):
            code = compress(z6[i:j])
            tokens = extend(code)
            assert tokens == reference_extend(code) == _fresh(tokens)
            assert [type(t) for t in tokens] == [type(t) for t in reference_extend(code)]
            reduced = reduce_extended(tokens)
            assert reduced == _fresh(reduced)
            assert all(type(t) in (int, ZBlock) for t in reduced)
    for tokens in _z4_splits():
        reduced = reduce_extended(tokens)
        assert reduced == _fresh(reduce_extended(_fresh(tokens)))


def test_reduce_extended_accepts_caller_blocks_and_letters():
    assert reduce_extended([ZBlock(2), 3, 1, 2, 1]) == [ZBlock(3)]
    assert reduce_extended([1, 2, ZBlock(1), 3, ZBlock(2)]) == [ZBlock(3)]
    assert reduce_extended([2, ZBlock(1), 4, ZBlock(3)]) == [2, ZBlock(1), 4, ZBlock(3)]
    assert reduce_extended([1]) == [ZBlock(1)]
    assert reduce_extended([ZBlock(1), 2, 1, 3, ZBlock(2), 4, ZBlock(3)]) == [ZBlock(4)]
    with pytest.raises(ValueError):
        reduce_extended([ZBlock(1), 0])
    with pytest.raises(NotAFactorError):
        reduce_extended([ZBlock(2), 2])


def test_code_layers_keep_no_module_level_state():
    """The README promises no mutable global state: no dict, list or set
    sits at module level, so no memo outlives a call."""
    state = [
        (module.__name__, name)
        for module in (zimin.words, zimin.compressed)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set, bytearray)) and not name.startswith("__")
    ]
    assert state == []


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


def reference_reduce_extended(tokens) -> list:
    """Merge a token sequence into its shortest equivalent form.

    Z_{i-1} i Z_{i-1} collapses to Z_i; merges cascade bottom-up along a
    max-Cartesian tree of the tokens (leftmost maximum at the root), so
    each token is touched O(depth) times.  Raises NotAFactorError when
    the spelled word is not a Zimin factor.
    """
    items: list = []
    for tok in tokens:
        if isinstance(tok, ZBlock):
            items.append(tok)
        elif tok == 1:
            items.append(ZBlock(1))
        elif tok >= 2:
            items.append(tok)
        else:
            raise ValueError("letters must be positive integers")
    if not items:
        return []

    def priority(tok) -> int:
        return tok.order if isinstance(tok, ZBlock) else tok

    n = len(items)
    left = [-1] * n
    right = [-1] * n
    stack: list[int] = []
    for i in range(n):
        last = -1
        while stack and priority(items[stack[-1]]) < priority(items[i]):
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    root = stack[0]

    merged: dict[int, list] = {}
    # iterative post-order; recursion depth can hit the token count
    todo = [(root, False)]
    while todo:
        node, ready = todo.pop()
        if not ready:
            todo.append((node, True))
            if left[node] >= 0:
                todo.append((left[node], False))
            if right[node] >= 0:
                todo.append((right[node], False))
            continue
        lt = merged.pop(left[node], [])
        rt = merged.pop(right[node], [])
        tok = items[node]
        if (
            not isinstance(tok, ZBlock)
            and lt
            and rt
            and lt[-1] == ZBlock(tok - 1)
            and rt[0] == ZBlock(tok - 1)
        ):
            merged[node] = lt[:-1] + [ZBlock(tok)] + rt[1:]
        else:
            merged[node] = lt + [tok] + rt
    result = merged[root]

    # c(Z_m) is 1, 2, ..., m, ..., 2, 1
    codes = [(*range(1, t.order), *range(t.order, 0, -1)) if isinstance(t, ZBlock) else (t,) for t in result]
    if not reference_joins(codes):
        raise NotAFactorError("token sequence does not spell a Zimin factor")
    return result


def _reduce_outcome(fn, tokens):
    try:
        return fn(tokens)
    except (ValueError, NotAFactorError) as exc:
        return type(exc)


def _has_mergeable_triple(tokens) -> bool:
    return any(
        a == c == ZBlock(b - 1)
        for a, b, c in zip(tokens, tokens[1:], tokens[2:])
        if not isinstance(b, ZBlock)
    )


def _z4_splits():
    """Every split of every window of Z_4 of at most 8 letters, as the
    concatenated extend tokens of its parts."""
    z4 = generate_zimin(4)
    for i in range(len(z4)):
        for j in range(i + 1, min(i + 8, len(z4)) + 1):
            window = z4[i:j]
            for cuts in product((False, True), repeat=len(window) - 1):
                bounds = [0] + [k + 1 for k, cut in enumerate(cuts) if cut] + [len(window)]
                yield [
                    tok for a, b in zip(bounds, bounds[1:]) for tok in extend(compress(window[a:b]))
                ]


def _random_token_sequences(count, seed):
    """Blocks and letters of order up to 5, letters below 1 included;
    most sequences are no factor."""
    rng = random.Random(seed)
    for _ in range(count):
        picks = (int(11 * rng.random()) for _ in range(int(9 * rng.random())))
        yield [ZBlock(k + 1) if k < 5 else k - 5 for k in picks]


def test_reduce_extended_equals_reference():
    """The stack pass gives the Cartesian-tree reduction's list, or its
    exception type, and leaves no Z_{i-1} i Z_{i-1} triple."""
    splits = list(_z4_splits())
    assert len(splits) == 2287
    outcomes = Counter()
    for tokens in chain(splits, _random_token_sequences(20000, 8)):
        got = _reduce_outcome(reduce_extended, tokens)
        assert got == _reduce_outcome(reference_reduce_extended, tokens), tokens
        if isinstance(got, list):
            assert not _has_mergeable_triple(got), tokens
        outcomes[got if isinstance(got, type) else list] += 1
    assert outcomes == {list: 7308, NotAFactorError: 9089, ValueError: 5890}


def test_zblock_basics():
    assert repr(ZBlock(2)) == "Z2"
    assert ZBlock(2) == ZBlock(2)
    assert ZBlock(2) != ZBlock(3)
    with pytest.raises(ValueError):
        ZBlock(0)


def reference_is_unimodal(seq) -> bool:
    """is_unimodal as it ran before the one forward pass."""
    if not seq:
        return True
    top = seq.index(max(seq))
    for i in range(top):
        if seq[i] >= seq[i + 1]:
            return False
    for i in range(top, len(seq) - 1):
        if seq[i] <= seq[i + 1]:
            return False
    return True


def reference_validate_code(code):
    code = tuple(code)
    if code and min(code) < 1:
        raise ValueError("code letters must be positive integers")
    if not reference_is_unimodal(code):
        raise ValueError(f"not a strictly unimodal sequence: {code}")
    return code


# the level-by-level _joins that check_concatenation ran before the fold
def reference_joins(codes) -> bool:
    """check_concatenation on codes that are already validated."""
    active = [deque(code) for code in codes if code]
    level = 1
    while len(active) > 1:
        for left, right in zip(active, active[1:]):
            if (left[-1] == level) == (right[0] == level):
                return False
        for rep in active:
            if rep[-1] == level:
                rep.pop()
            if rep and rep[0] == level:
                rep.popleft()
        active = [rep for rep in active if rep]
        level += 1
    return True


def reference_check_concatenation(parts) -> bool:
    """check_concatenation as it ran before the bitmask fold."""
    return reference_joins([reference_validate_code(p) for p in parts])


def reference_compose(parts):
    codes = [reference_validate_code(p) for p in parts]
    if not reference_joins(codes):
        raise NotAFactorError("concatenation is not a Zimin factor")
    return _records([x for code in codes for x in code])


def _concat_outcome(fn, parts):
    try:
        return fn(parts)
    except (ValueError, TypeError, NotAFactorError) as exc:
        return type(exc), str(exc)


def _assert_concat_matches_reference(parts):
    got = _concat_outcome(check_concatenation, parts)
    assert got == _concat_outcome(reference_check_concatenation, parts), parts
    assert _concat_outcome(compose, parts) == _concat_outcome(reference_compose, parts), parts
    return got


def _codes_up_to(top):
    """Every nonempty strictly unimodal code with letters <= top."""
    codes = []
    for peak in range(1, top + 1):
        below = range(1, peak)
        for up in chain.from_iterable(combinations(below, k) for k in range(peak)):
            for down in chain.from_iterable(combinations(below, k) for k in range(peak)):
                codes.append(up + (peak,) + down[::-1])
    return codes


def test_concatenation_fold_equals_reference_on_all_pairs():
    codes = _codes_up_to(5)
    assert len(codes) == 341
    outcomes = Counter(
        _assert_concat_matches_reference([left, right]) for left in codes for right in codes
    )
    assert sum(outcomes.values()) == 341**2
    assert 0 < outcomes[True] < outcomes[False]


def _random_part(rng, codes):
    """A valid code most of the time, else an empty, bool or invalid part."""
    roll = rng.random()
    if roll < 0.8:
        return rng.choice(codes)
    if roll < 0.85:
        return ()
    if roll < 0.9:
        return tuple(True if x == 1 else x for x in rng.choice(codes))
    return tuple(rng.randrange(-1, 7) for _ in range(rng.randrange(1, 5)))


def test_concatenation_fold_equals_reference_on_random_tuples():
    rng = random.Random(29)
    codes = _codes_up_to(6)
    outcomes = Counter()
    for _ in range(200_000):
        parts = tuple(_random_part(rng, codes) for _ in range(rng.randrange(2, 5)))
        got = _assert_concat_matches_reference(parts)
        outcomes[got if isinstance(got, bool) else got[0]] += 1
    assert set(outcomes) == {True, False, ValueError}


def test_concatenation_fold_equals_reference_on_split_windows():
    """Splits of Z_12 windows compose back; a duplicated, dropped or
    shuffled part mostly does not."""
    rng = random.Random(31)
    z = generate_zimin(12)
    outcomes = Counter()
    for _ in range(1500):
        start = rng.randrange(len(z))
        word = z[start : start + rng.randrange(1, 400)]
        cuts = sorted(rng.sample(range(1, len(word) + 1), min(len(word), rng.randrange(1, 12))))
        bounds = [0] + cuts + ([len(word)] if cuts[-1] != len(word) else [])
        parts = [compress(word[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert _assert_concat_matches_reference(parts) is True
        assert compose(parts) == compress(word)
        i = rng.randrange(len(parts))
        changed = [
            parts[: i + 1] + parts[i:],
            parts[:i] + parts[i + 1 :],
            rng.sample(parts, len(parts)),
        ]
        for other in changed:
            outcomes[_assert_concat_matches_reference(other)] += 1
    assert outcomes[True] and outcomes[False]


def test_concatenation_fold_empty_parts_and_bool_letters():
    cases = [
        [(), ()],
        [(), (1,), ()],
        [(1, 2), (), (1,)],
        [(True,), (2, True)],
        [(True, 2), (True,)],
        [(True,), (True,)],
        [(2, True), [], (3,)],
        [[1, 3], [2], (1,)],
        [],
        [()],
    ]
    for parts in cases:
        _assert_concat_matches_reference(parts)
    assert compose([(True,), (2, True)]) == (True, 2, True)
    # any iterable is a part, read once
    assert compose([[1, 3], iter([1]), (2,)]) == (1, 3, 2)
    assert not check_concatenation([[1, 3], iter([2]), (1,)])


def test_concatenation_fold_invalid_part_at_every_position():
    """The first bad part, in order, raises validate_code's own message,
    also when a later part is bad too or the junctions already fail."""
    valid = [(1, 3, 2), (1,), (2, 4, 1), (1, 2), (3,)]
    bad = [
        (1, 3, 0),
        (1, 3, 2, -1),
        (2, 5, 0, 1),
        (0,),
        (-4,),
        (1, 2, 2),
        (2, 1, 3),
        (1, 3, 1, 3),
        (3, 4, 0, 5),
        (5, 4, 4, 0),
        (100, 101, 99, 100),
        (70, 0),
        (2, 1, 5000),
        (1, 5000, 4999, 5000),
        (3, 5000, 0),
    ]
    for part in bad:
        with pytest.raises(ValueError) as info:
            validate_code(part)
        with pytest.raises(ValueError) as ref:
            reference_validate_code(part)
        assert str(info.value) == str(ref.value)
        for at in range(len(valid) + 1):
            parts = valid[:at] + [part] + valid[at:]
            got = _assert_concat_matches_reference(parts)
            assert got == (ValueError, str(ref.value)), parts
            _assert_concat_matches_reference(parts + [(0, 1)])
    # every part is made a tuple before any is validated, so a part that is
    # not iterable raises first: the deque fold raised the ValueError
    for parts in ([(0,), 5], [(1,), (0,), None]):
        with pytest.raises(TypeError, match="not iterable"):
            check_concatenation(parts)
        with pytest.raises(TypeError, match="not iterable"):
            compose(parts)
        with pytest.raises(ValueError, match="positive"):
            reference_check_concatenation(parts)


def test_concatenation_fold_huge_letters_build_no_huge_mask():
    cases = {
        ((10**18,), (1,)): True,
        ((1, 10**18), (1,)): True,
        ((10**18 + 1,), (10**18,)): False,
        ((10**18,), (10**18,)): False,
        ((3, 10**18, 2), (1,)): True,
        ((1,), (10**18,), (1,)): True,
        ((1,), (10**18,), (2,)): False,
        ((2,), (1,), (10**18,), (1,), (2,)): True,
    }
    tracemalloc.start()
    try:
        for parts, ok in cases.items():
            assert _assert_concat_matches_reference(list(parts)) is ok, parts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_concatenation_fold_long_codes_against_reference():
    """Peaks past the letter count, or past 4096, take the bytearray path."""
    rng = random.Random(37)
    for _ in range(200):
        top = rng.choice([rng.randrange(60, 200), rng.randrange(4090, 4200)])
        up = sorted(rng.sample(range(1, top), rng.randrange(0, top)))
        down = sorted(rng.sample(range(1, top), rng.randrange(0, top)), reverse=True)
        code = tuple(up) + (top,) + tuple(down)
        i = rng.randrange(len(code) + 1)
        for parts in ([code[:i], code[i:]], [code, code[-1:]], [code[:1], code], [code, (1,)]):
            _assert_concat_matches_reference(parts)


def test_concatenation_float_letters():
    """Floats were compared as numbers.  One that could be a mask bit, at
    most the parts' letter count, now raises TypeError; a larger one is
    past every bit a junction reads, and the result is as before."""
    for parts in ([(1.5,), (1,)], [(2.0,), (1,)], [(1,), (1, 2.0)], [(1,), (1,), (1.5,)]):
        with pytest.raises(TypeError):
            check_concatenation(parts)
        with pytest.raises(TypeError):
            compose(parts)
    for parts in ([(1.5,)], [(1, 100.0)], [(100.0, 2)], [(2.5,), (1,)], [(1,), (1,), (1, 100.0)]):
        _assert_concat_matches_reference(parts)
    assert compose([(2.5,), (1,)]) == (2.5, 1)
    # a bad part before the float still raises its ValueError
    with pytest.raises(ValueError, match="positive"):
        check_concatenation([(0,), (1.5,)])


def test_one_pass_is_unimodal_equals_reference():
    rng = random.Random(41)
    seqs = [(), (5,), (-3,), (0, 0), "abc", "aba", "aab", (1, 2, 1), (2, 2), [-5, -1, -3]]
    for _ in range(20_000):
        seqs.append(tuple(rng.randrange(-2, 6) for _ in range(rng.randrange(0, 7))))
    for seq in seqs:
        assert is_unimodal(seq) == reference_is_unimodal(seq), seq
        assert _concat_outcome(validate_code, seq) == _concat_outcome(reference_validate_code, seq)


def test_reduce_extended_huge_blocks_and_letters():
    assert reduce_extended([ZBlock(10**18)]) == [ZBlock(10**18)]
    assert reduce_extended([1, 10**18]) == [ZBlock(1), 10**18]
    assert reduce_extended([ZBlock(3), 10**18, ZBlock(3)]) == [ZBlock(3), 10**18, ZBlock(3)]
    with pytest.raises(NotAFactorError):
        reduce_extended([ZBlock(10**18), 1])
    # two huge letters: no junction can read their bits, and the fold's cap
    # is the bits the blocks and letters supply, not the second peak
    tracemalloc.start()
    try:
        for tokens in ([10**18, 10**18], [10**11, 10**11], [ZBlock(2), 10**18, 10**18]):
            with pytest.raises(NotAFactorError):
                reduce_extended(tokens)
            with pytest.raises(NotAFactorError):
                reference_reduce_extended(tokens)
        assert reduce_extended([ZBlock(2), 10**18, ZBlock(2)]) == [ZBlock(2), 10**18, ZBlock(2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# The expansions and concatenations as they ran when Zimin words were
# spelled as lists of ints and every part had its own walk and fold step,
# kept as parity references for the bytes spelling and the one loop.
def list_generate_zimin(k: int, max_order: int = zimin.words.DEFAULT_MAX_ORDER):
    """Return Z_k as a tuple of letters."""
    if k < 1:
        raise ValueError(f"Zimin words are indexed from 1, got {k}")
    if k > max_order:
        raise SizeLimitError(f"Z_{k} has 2^{k} - 1 letters, above cap 2^{max_order} - 1")
    word = [1]
    for letter in range(2, k + 1):
        word = word + [letter] + word
    return tuple(word)


def tuple_decompress(code, max_letters: int = zimin.compressed.DEFAULT_MAX_LETTERS):
    code = validate_code(code)
    if not code:
        return ()
    n = decompressed_length(code)
    if n > max_letters:
        raise SizeLimitError(f"decompressed word has {n} letters, cap is {max_letters}")
    gaps = {}
    out = [code[0]]
    for a, b in zip(code, code[1:]):
        m = min(a, b) - 1
        if m > 0:
            out.extend(gaps.get(m) or gaps.setdefault(m, list_generate_zimin(m)))
        out.append(b)
    return tuple(out)


def tuple_expand_tokens(tokens, max_letters: int = zimin.compressed.DEFAULT_MAX_LETTERS):
    total = 0
    for tok in tokens:
        if isinstance(tok, ZBlock):
            total += 2 ** min(tok.order, max_letters.bit_length() + 1) - 1
        else:
            total += 1
        if total > max_letters:
            raise SizeLimitError(f"token expansion exceeds cap {max_letters}")
    out = []
    for tok in tokens:
        if isinstance(tok, ZBlock):
            out.extend(list_generate_zimin(tok.order))
        else:
            if tok < 1:
                raise ValueError("letters must be positive integers")
            out.append(tok)
    return tuple(out)


def walk_check_concatenation(parts) -> bool:
    codes = [tuple(part) for part in parts]
    cap = sum(map(len, codes))
    walks = map(_walk, codes, repeat(cap))
    return _fold(walks, cap) & all(walks)


def _walk(code, cap: int):
    start = end = peak = prev = 0
    for x in code:
        if x > peak and prev == peak:
            if x > cap or x > 4096:
                rest = code[code.index(x) :]
                if not is_unimodal(rest) or rest[-1] < 1:
                    validate_code(code)
                i, top = rest.index(peak := max(rest)), min(peak, cap)
                return peak, start | _bits(rest[: i + 1], top), _bits(rest[i:], top)
            start |= (end := 1 << x)
            peak = x
        elif 0 < x < prev:
            end |= 1 << x
        else:
            validate_code(code)
        prev = x
    return peak, start, end


def _fold(sides, cap: int) -> bool:
    a = end = 0
    for b, start_b, end_b in sides:
        m = a if a < b else b
        if m > cap or (end ^ start_b) & (need := (2 << m) - 2) != need:
            return False
        a, end = (a if a > b else b), end & -(2 << m) | end_b
    return True


def records_compose(parts):
    codes = [tuple(part) for part in parts]
    if not walk_check_concatenation(codes):
        raise NotAFactorError("concatenation is not a Zimin factor")
    return _records([x for code in codes for x in code])


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError, NotAFactorError, SizeLimitError) as exc:
        return type(exc), str(exc)


def _assert_parity(parts):
    got = _outcome(check_concatenation, parts)
    assert got == _outcome(walk_check_concatenation, parts), parts
    assert _outcome(compose, parts) == _outcome(records_compose, parts), parts
    return got


def test_bytes_spelling_equals_list_spelling():
    for k in range(1, 18):
        assert generate_zimin(k) == list_generate_zimin(k)
    for args in ((0,), (-1,), (26,), (10**18,), (6, 5), (2.5,), (True,), (3, 0)):
        assert _outcome(generate_zimin, *args) == _outcome(list_generate_zimin, *args), args
    z = generate_zimin(8)
    for i in range(len(z)):
        for j in range(i + 1, len(z) + 1):
            code = compress(z[i:j])
            assert decompress(code) == tuple_decompress(code) == z[i:j]
    rng = random.Random(43)
    z = generate_zimin(17)
    for _ in range(2000):
        length = rng.randrange(1, (1 << rng.randrange(1, 17)) + 1)
        start = rng.randrange(len(z) - length + 1)
        code = compress(z[start : start + length])
        assert decompress(code) == tuple_decompress(code)


def test_bytes_spelling_keeps_big_letters_and_errors():
    cases = [
        ((3, 300, 2), {}),
        ((1, 300), {}),
        ((5000, 4, 1), {}),
        ((2, 10**18, 7), {}),
        ((1, 2, 300, 299, 5), {}),
        ((10**18,), {}),
        ((0,), {}),
        ((1, 1), {}),
        ((2, 1, 3), {}),
        ((1, 2, 3, 2, 1), {"max_letters": 4}),
        ((1, 30, 1), {}),
        # past the letter cap, a gap past Z_25 is refused by its own order
        ((28, 27, 1), {"max_letters": 2**40}),
        ((27, 28, 29), {"max_letters": 2**40}),
        ((1, 27, 30, 26), {"max_letters": 2**40}),
    ]
    for code, kwargs in cases:
        got = _outcome(decompress, code, **kwargs)
        assert got == _outcome(tuple_decompress, code, **kwargs), code
    assert decompress((3, 300, 2)) == (3, 1, 2, 1, 300, 1, 2)
    assert _outcome(decompress, (28, 27, 1), max_letters=2**40) == (
        SizeLimitError, "Z_26 has 2^26 - 1 letters, above cap 2^25 - 1"
    )
    tokens = [
        [ZBlock(3), 300, ZBlock(2), 5000],
        [ZBlock(2), ZBlock(4), ZBlock(1), 10**18],
        [0, ZBlock(26)],
        [ZBlock(26), 0],
        [ZBlock(26), ZBlock(27)],
        [ZBlock(27), ZBlock(26)],
        [ZBlock(3), "a"],
        [ZBlock(3)] * 5,
    ]
    for toks in tokens:
        assert _outcome(expand_tokens, toks, max_letters=2**40) == _outcome(
            tuple_expand_tokens, toks, max_letters=2**40
        ), toks
    assert _outcome(expand_tokens, [ZBlock(9)]) == _outcome(tuple_expand_tokens, [ZBlock(9)])


def _splits(word, parts):
    """Every split of ``word`` into at most ``parts`` nonempty parts."""
    for k in range(parts):
        for cuts in combinations(range(1, len(word)), k):
            bounds = (0, *cuts, len(word))
            yield [word[a:b] for a, b in zip(bounds, bounds[1:])]


def test_one_loop_concatenation_equals_walk_and_fold_on_z6_splits():
    """Every split into at most 4 parts of every window of Z_6 of at most
    12 letters, as given and with two parts swapped."""
    z = generate_zimin(6)
    windows = {z[i:j] for i in range(len(z)) for j in range(i + 1, min(i + 12, len(z)) + 1)}
    codes = {w: compress(w) for w in windows}  # every part is a window too
    rng = random.Random(47)
    outcomes = Counter()
    for window in sorted(windows):
        for split in _splits(window, 4):
            parts = [codes[p] for p in split]
            assert _assert_parity(parts) is True
            assert compose(parts) == codes[window]
            if len(parts) > 1:
                i, j = rng.sample(range(len(parts)), 2)
                parts[i], parts[j] = parts[j], parts[i]
                outcomes[_assert_parity(parts)] += 1
    assert outcomes[True] and outcomes[False]


def test_one_loop_concatenation_big_letters_and_late_bad_parts():
    cases = [
        [(3, 300), (1, 2)],
        [(300,), (1,), (2,)],
        [(1, 5000, 3), (1,), (2, 1)],
        [(5000,), (4999,)],
        [(1, 10**18), (1,)],
        [(2,), (10**18, 2), (1,)],
        [(1, 300, 2), (1,), (5000, 1)],
        # the junction fails at the second part; the third is still validated
        [(1,), (1,), (0,)],
        [(1,), (1,), (2, 1, 3)],
        [(1, 2, 1), (2, 1), (1, 5000, 4999, 5000)],
        [(2,), (2,), (3, 5000, 0)],
        [(1,), (1,), (1.5,)],
        [(1,), (1,), (1, 2), (0, 1)],
    ]
    for parts in cases:
        _assert_parity(parts)
    assert compose([(3, 300), (1, 2)]) == (3, 300, 2)


def test_compose_and_check_agree_with_the_spelled_word_on_z12_windows():
    rng = random.Random(53)
    z = generate_zimin(12)
    swapped = Counter()
    for _ in range(600):
        start = rng.randrange(len(z))
        window = z[start : start + rng.randrange(1, 600)]
        cuts = sorted(rng.sample(range(1, len(window)), min(len(window) - 1, rng.randrange(0, 10))))
        bounds = (0, *cuts, len(window))
        words = [window[a:b] for a, b in zip(bounds, bounds[1:])]
        codes = [compress(w) for w in words]
        assert compose(codes) == compress(window)
        assert check_concatenation(codes) is True
        for code in codes:
            assert decompressed_length(code) == len(decompress(code))
        if len(words) > 1:
            i, j = rng.sample(range(len(words)), 2)
            words[i], words[j] = words[j], words[i]
            codes[i], codes[j] = codes[j], codes[i]
            spelled = tuple(x for w in words for x in w)
            ok = check_concatenation(codes)
            assert ok is is_zimin_factor(spelled)
            refused = (NotAFactorError, "concatenation is not a Zimin factor")
            assert _outcome(compose, codes) == (compress(spelled) if ok else refused)
            swapped[ok] += 1
    assert swapped[True] and swapped[False]
