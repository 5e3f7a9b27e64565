from __future__ import annotations

import random
import tracemalloc

import pytest

from zimin import (
    SizeLimitError,
    compress,
    first_violation,
    generate_zimin,
    is_zimin_factor,
)
import zimin.words
from zimin.oracle import apply_mu
from zimin.words import _scan, format_word, parse_word

# Z_1 .. Z_4, written out once so nothing below depends on the generator.
Z1 = (1,)
Z2 = (1, 2, 1)
Z3 = (1, 2, 1, 3, 1, 2, 1)
Z4 = (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1)


@pytest.mark.parametrize("k, expected", [(1, Z1), (2, Z2), (3, Z3), (4, Z4)])
def test_generate_zimin_small(k, expected):
    assert generate_zimin(k) == expected


def test_generate_zimin_recurrence():
    for k in range(2, 12):
        prev = generate_zimin(k - 1)
        assert generate_zimin(k) == prev + (k,) + prev


def test_generate_zimin_length():
    for k in range(1, 16):
        assert len(generate_zimin(k)) == 2**k - 1


def test_generate_zimin_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        generate_zimin(0)
    with pytest.raises(SizeLimitError):
        generate_zimin(26)
    with pytest.raises(SizeLimitError, match="2\\^1000000000000000000 - 1 letters"):
        generate_zimin(10**18)
    # the cap is exact: at MAX_ORDER = 5, Z_5 is spelled and Z_6 refused
    monkeypatch.setattr(zimin.words, "MAX_ORDER", 5)
    assert generate_zimin(5) == Z4 + (5,) + Z4
    with pytest.raises(SizeLimitError, match="^Z_6 has 2\\^6 - 1 letters, above cap 2\\^5 - 1$"):
        generate_zimin(6)


def test_apply_mu_sends_zimin_to_next():
    for k in range(1, 8):
        assert apply_mu(generate_zimin(k)) == generate_zimin(k + 1)


def test_apply_mu_letters():
    assert apply_mu((1,)) == (1, 2, 1)
    assert apply_mu((2,)) == (3,)
    assert apply_mu((1, 3, 2)) == (1, 2, 1, 4, 3)
    assert apply_mu(()) == ()


@pytest.mark.parametrize(
    "word",
    [
        (1,),
        (2,),
        (1, 2),
        (2, 1),
        Z4,
        (2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5, 1, 2, 1, 3, 1),  # interior factor of Z_5
        (3, 1, 2, 1, 4),
        (1, 3, 1, 2),
        (1, 2, 1, 5),
    ],
)
def test_factor_accepts(word):
    assert is_zimin_factor(word)
    assert first_violation(word) is None


@pytest.mark.parametrize(
    "word, level",
    [
        ((1, 1), 1),
        ((2, 2), 1),
        ((1, 2, 2, 1), 1),
        ((1, 2, 1, 2), 2),  # 1s alternate fine, projection 2 2 fails
        ((1, 2, 1, 3, 1, 3, 1), 2),
        ((1, 2, 1, 3, 1, 2, 1, 3), 3),
        ((3, 1, 2, 1, 3), 3),  # consecutive 3s are never separated by just 121
    ],
)
def test_factor_rejects_at_level(word, level):
    assert first_violation(word) == level
    assert not is_zimin_factor(word)


def test_factor_empty_and_bad_letters():
    assert first_violation(()) is None
    with pytest.raises(ValueError):
        first_violation((0, 1))
    with pytest.raises(ValueError):
        first_violation((1, -2))


def test_every_window_of_zimin_is_factor():
    z = generate_zimin(6)
    for i in range(len(z)):
        for j in range(i + 1, min(i + 20, len(z)) + 1):
            assert is_zimin_factor(z[i:j]), z[i:j]


def test_parse_word_forms():
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("121") == (1, 2, 1)  # compact digits
    assert parse_word("12") == (1, 2)
    assert parse_word("7") == (7,)
    assert parse_word("10") == (10,)  # contains 0, so a single letter
    assert parse_word("1 10 1") == (1, 10, 1)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("1 x 1")


def test_format_word_round_trip():
    for word in [(1, 2, 1), (1,), (10,), (1, 10, 1), (2, 9, 2), (1, 12, 1)]:
        assert parse_word(format_word(word)) == word
    assert format_word((1, 2, 1)) == "121"
    assert format_word((1, 10, 1)) == "1 10 1"
    assert format_word((10,)) == "10"
    # the one ambiguous corner: a lone zero-free letter >= 10 reads as
    # compact digits, by design
    assert parse_word("12") == (1, 2)


def reference_first_violation(word):
    """The halving loop on a list, as it ran before the byte path."""
    if not word:
        return None
    if min(word) < 1:
        raise ValueError("letters must be positive integers")
    current = list(word)
    level = 1
    while len(current) > 1:
        evens, odds = current[0::2], current[1::2]
        at_even, at_odd = evens.count(level), odds.count(level)
        if at_even == len(evens) and at_odd == 0:
            current = odds
        elif at_odd == len(odds) and at_even == 0:
            current = evens
        else:
            return level
        level += 1
    return None


def _outcome(fn, word):
    try:
        return fn(word)
    except (TypeError, ValueError) as exc:
        return type(exc)


def test_byte_and_list_paths_agree():
    """Letters of one byte take the bytearray path, a letter >= 256 the
    list path; both give the reference's level and the same peak index."""
    rng = random.Random(3)
    z = generate_zimin(9)
    for _ in range(3000):
        i = rng.randrange(len(z))
        word = list(z[i : i + rng.randrange(1, 70)])
        if rng.random() < 0.5:
            word[rng.randrange(len(word))] = rng.randrange(1, 12)
        raised = list(word)
        raised[word.index(max(word))] += 256
        for w in (tuple(word), tuple(raised)):
            assert first_violation(w) == reference_first_violation(w), w
        # raising the unique peak changes neither the verdict nor the peak
        if word.count(max(word)) == 1:
            assert _scan(word) == _scan(raised)
        # a letter >= 256 that is not the peak
        word[rng.randrange(len(word))] = 256 + rng.randrange(3)
        assert first_violation(word) == reference_first_violation(word), word


def test_bad_letters_raise_value_error_on_both_paths():
    for word in [(0,), (-1,), (1, 0), (1, -1), (300, 0), (300, -1), (0, 300), [2, 1, 0]]:
        with pytest.raises(ValueError, match="positive"):
            first_violation(word)


def test_int_argument_raises_type_error_without_allocating():
    tracemalloc.start()
    try:
        for value in (5, 10**12):
            with pytest.raises(TypeError):
                first_violation(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_non_int_sequences_behave_as_before():
    cases = [
        "121",
        "1",
        (1, 2.0, 1),
        (1.0, 1.0),
        (True, 2, True),
        b"\x01\x02\x01",
        bytearray(b"\x01\x02\x02"),
        range(1, 4),
        [1, "2", 1],
        ("a", "b"),
        (1, None),
        (1, 2.5, 300),
    ]
    for word in cases:
        assert _outcome(first_violation, word) == _outcome(reference_first_violation, word), word


def test_falsy_non_iterables_raise_type_error():
    """Only an empty iterable is the empty word; 0, None and False were
    once read as it."""
    for value in (0, None, False, 5):
        for fn in (first_violation, is_zimin_factor, compress):
            with pytest.raises(TypeError):
                fn(value)
    for empty in ((), [], range(0), b"", ""):
        assert first_violation(empty) is None
        assert is_zimin_factor(empty)
        assert _scan(empty) == (None, 0)
        assert compress(empty) == ()
