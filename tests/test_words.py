from __future__ import annotations

import pytest

from zimin import (
    SizeLimitError,
    apply_mu,
    first_violation,
    format_word,
    generate_zimin,
    is_zimin_factor,
    parse_word,
    project,
)

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


def test_generate_zimin_input_validation():
    with pytest.raises(ValueError):
        generate_zimin(0)
    with pytest.raises(SizeLimitError):
        generate_zimin(26)
    with pytest.raises(SizeLimitError, match="2\\^1000000000000000000 - 1 letters"):
        generate_zimin(10**18)
    # explicit cap override
    assert generate_zimin(5, max_order=5) == generate_zimin(5)
    with pytest.raises(SizeLimitError):
        generate_zimin(6, max_order=5)


def test_apply_mu_sends_zimin_to_next():
    for k in range(1, 8):
        assert apply_mu(generate_zimin(k)) == generate_zimin(k + 1)


def test_apply_mu_letters():
    assert apply_mu((1,)) == (1, 2, 1)
    assert apply_mu((2,)) == (3,)
    assert apply_mu((1, 3, 2)) == (1, 2, 1, 4, 3)
    assert apply_mu(()) == ()


def test_project_keeps_letters_at_least_j():
    word = (1, 2, 1, 3, 1, 2, 1)
    assert project(word, 1) == word
    assert project(word, 2) == (2, 3, 2)
    assert project(word, 3) == (3,)
    assert project(word, 4) == ()


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
