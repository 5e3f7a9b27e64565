"""Zimin words and the factor test.

The n-th Zimin word is defined by Z_1 = 1 and Z_n = Z_{n-1} n Z_{n-1},
so |Z_n| = 2^n - 1.  Positions are 1-based in the literature; here words
are plain tuples of positive ints and indexing stays 0-based.

A word is a factor of some Zimin word iff for every letter j, the
occurrences of letters >= j sit at alternating positions among
themselves with j on one fixed parity class.  ``first_violation``
implements that test by repeated halving, which is linear in the input
length.  Level j keeps the odd class iff j fills the even one, so the
classes kept spell the peak's index in binary, one digit per level.
The morphism mu (Z_n into Z_{n+1}) lives in ``oracle``, its one user.
"""

from __future__ import annotations

from .errors import SizeLimitError

Word = tuple[int, ...]

# the one cap on explicit words: none is spelled past Z_25, 2^25 - 1 letters
MAX_ORDER = 25


def generate_zimin(k: int) -> Word:
    """Return Z_k as a tuple of letters; SizeLimitError past MAX_ORDER."""
    return tuple(_spell_zimin(k))


def _spell_zimin(k: int, word: bytes = b"") -> bytes:
    """Z_k as bytes, one letter a byte, doubled on from ``word``, which is
    empty or Z_j for some j < k; Z_j is Z_k's first 2^j - 1 letters."""
    if k < 1:
        raise ValueError(f"Zimin words are indexed from 1, got {k}")
    if k > MAX_ORDER:
        raise SizeLimitError(f"Z_{k} has 2^{k} - 1 letters, above cap 2^{MAX_ORDER} - 1")
    for letter in range(len(word).bit_length() + 1, k + 1):
        word = bytes((letter,)).join((word, word))
    return word


def first_violation(word):
    """Return the smallest letter level at which ``word`` fails the factor
    condition, or None if it is a Zimin factor.

    Level j fails when, among the positions holding letters >= j, the
    letter j itself does not occupy exactly one full parity class.
    """
    return _scan(word)[0]


def _scan(word):
    """first_violation(word) and the index of the last letter the halving
    keeps, on a factor its peak.  Letters that all fit a byte are halved
    as a bytearray, whose counts and slices run in C; iter() keeps an int
    from being read as a length, and raises TypeError on any non-iterable."""
    try:
        current = bytearray(word if isinstance(word, (tuple, list)) else iter(word))
        bad = 0 in current
    except (TypeError, ValueError):
        current = list(word)
        bad = min(current) < 1
    if bad:
        raise ValueError("letters must be positive integers")
    level, pos, stride = 1, 0, 1
    while len(current) > 1:
        evens = current[0::2]
        odds = current[1::2]
        at_even = evens.count(level)
        at_odd = odds.count(level)
        if at_even == len(evens) and at_odd == 0:
            current = odds
            pos += stride
        elif at_odd == len(odds) and at_even == 0:
            current = evens
        else:
            return level, pos
        level += 1
        stride <<= 1
    return None, pos


def is_zimin_factor(word) -> bool:
    """True iff ``word`` occurs as a factor of Z_n for some n.

    The empty word counts as a factor.
    """
    return first_violation(word) is None


def parse_word(text: str) -> Word:
    """Parse a word from text.

    Two encodings are accepted: whitespace-separated integers
    ("1 2 1 3"), or a single run of digits ("1213") read one letter per
    character.  The compact form is only unambiguous when every letter
    is a single digit, so a lone token containing a '0' or of length 1
    is read as one integer.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty word")
    if len(tokens) == 1:
        tok = tokens[0]
        if tok.isdigit() and len(tok) > 1 and "0" not in tok:
            return tuple(int(ch) for ch in tok)
        return (int(tok),)
    return tuple(int(tok) for tok in tokens)


def format_word(word) -> str:
    """Render a word; compact digits when possible, else space separated."""
    if not word:
        return ""
    if len(word) > 1 and all(1 <= x <= 9 for x in word):
        return "".join(str(x) for x in word)
    return " ".join(str(x) for x in word)
