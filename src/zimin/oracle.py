"""Brute-force ground truth over explicit Zimin words.

Everything here is deliberately naive: factor queries become substring
searches, match queries try every block split of every substring.  The
point is an independent reference the fast implementations are tested
against, so the oracles share no code with them.  The one exception is
``uncompressed_embedding``, the explicit-word construction of the
canonical match: it solves each level on ``boundary.AdjacencyGraph``,
which the engine does not use, and it prechecks with the engine's
``validate_ranking``.  It owns the morphism mu (``apply_mu``) that
carries explicit values from one level down to the next.
"""

from __future__ import annotations

from collections import namedtuple

from .boundary import AdjacencyGraph
from .compressed import MAX_LETTERS
from .errors import SizeLimitError
from .matching import validate_ranking
from .words import Word, generate_zimin

# a word with maximum letter M is a Zimin factor iff it occurs in Z_M
SUBSTRING_MAX_K = 12


OracleBudget = namedtuple("OracleBudget", "max_k max_pattern_len", defaults=(4, 8))


def _as_string(word) -> str:
    return "".join(map(chr, word))


def oracle_is_factor(word) -> bool:
    word = tuple(word)
    if not word:
        return True
    if min(word) < 1:
        raise ValueError("letters must be positive integers")
    top = max(word)
    if top > SUBSTRING_MAX_K:
        raise SizeLimitError(f"explicit check needs Z_{top}, cap is Z_{SUBSTRING_MAX_K}")
    return _as_string(word) in _as_string(generate_zimin(top))


def oracle_enumerate(pattern, budget: OracleBudget = OracleBudget()):
    """Every valuation matching the ranked pattern, by exhaustion.

    Any matched instance has maximum letter max_rank, hence occurs in
    Z_max_rank, so trying every distinct substring of it is complete.
    Valuations come back as block tuples in first-occurrence variable
    order.
    """
    top = pattern.max_rank
    if top > budget.max_k:
        raise SizeLimitError(f"max rank {top} above oracle budget {budget.max_k}")
    if len(pattern.symbols) > budget.max_pattern_len:
        raise SizeLimitError(
            f"pattern length {len(pattern.symbols)} above oracle budget"
            f" {budget.max_pattern_len}"
        )
    z = generate_zimin(top)
    n = len(z)
    substrings = {z[i:j] for i in range(n) for j in range(i + 1, n + 1)}
    symbols = pattern.symbols
    ranks = pattern.ranks
    order = pattern.variables
    results: set = set()

    def rec(w, idx: int, start: int, chosen: dict):
        if idx == len(symbols):
            if start == len(w):
                results.add(tuple(chosen[v] for v in order))
            return
        var = symbols[idx]
        if var in chosen:
            block = chosen[var]
            end = start + len(block)
            if w[start:end] == block:
                rec(w, idx + 1, end, chosen)
            return
        rank = ranks[var]
        seen = 0
        for end in range(start + 1, len(w) + 1):
            letter = w[end - 1]
            if letter > rank:
                break
            if letter > seen:
                seen = letter
            if seen == rank:
                chosen[var] = w[start:end]
                rec(w, idx + 1, end, chosen)
                del chosen[var]

    for w in substrings:
        rec(w, 0, 0, {})
    return results


def oracle_count(pattern, budget: OracleBudget = OracleBudget()) -> int:
    return len(oracle_enumerate(pattern, budget))


def oracle_min_length(pattern, budget: OracleBudget = OracleBudget()):
    """Length of the shortest matched instance, None when nothing matches."""
    occurrences: dict = {}
    for s in pattern.symbols:
        occurrences[s] = occurrences.get(s, 0) + 1
    best = None
    for valuation in oracle_enumerate(pattern, budget):
        total = sum(
            len(block) * occurrences[var]
            for var, block in zip(pattern.variables, valuation)
        )
        if best is None or total < best:
            best = total
    return best


def apply_mu(word) -> Word:
    """Apply the morphism 1 -> 121, i -> i+1 (for i >= 2).

    Mu maps Z_n onto Z_{n+1} with the first and last letter removed, which
    is what makes value propagation between consecutive ranks work.
    """
    out: list[int] = []
    for x in word:
        if x == 1:
            out.extend((1, 2, 1))
        else:
            out.append(x + 1)
    return tuple(out)


def uncompressed_embedding(pattern):
    """Explicit-word reference construction of the canonical match.

    Works on fully spelled values: descending a level applies the
    morphism and then fixes up the boundary letters per the solved
    flags.  Values grow exponentially, so past compressed.MAX_LETTERS
    letters in all it raises SizeLimitError; meant for cross-checking
    the compressed engine, not for real inputs.
    """
    if validate_ranking(pattern):
        return None
    seq = pattern.rank_sequence
    val: dict = {}
    for level in range(pattern.max_rank, 0, -1):
        proj = [s for s, r in zip(pattern.symbols, seq) if r >= level]
        forced = tuple(dict.fromkeys(s for s in proj if pattern.ranks[s] == level))
        for var in val:
            val[var] = apply_mu(val[var])
        flags = AdjacencyGraph._level_flags(proj, forced)
        if flags is None:
            return None
        for var, (first, last) in flags.items():
            if pattern.ranks[var] == level:
                val[var] = (1,)
                continue
            word = val[var]
            if first and word[0] != 1:
                word = (1,) + word
            elif not first and word[0] == 1:
                word = word[1:]
            if last and word[-1] != 1:
                word = word + (1,)
            elif not last and word[-1] == 1:
                word = word[:-1]
            val[var] = word
        if sum(map(len, val.values())) > MAX_LETTERS:
            raise SizeLimitError(f"explicit values exceed cap {MAX_LETTERS}")
    return val
