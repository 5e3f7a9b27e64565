"""Acceptance gate for the library.

Five criteria, each check reported as one [acceptance] line.  The checks pin
exact expected values for the worked examples, differential-test the
fast paths against brute-force oracles, and smoke-test the advertised
complexity at desk scale.  Budgets are wall-clock seconds and generous
on purpose; blowing one means an algorithmic regression, not noise.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from time import perf_counter

import reference_engine as ref
from test_engine_reference import distinct_ruler
from zimin import (
    RankedPattern,
    Verdict,
    ZBlock,
    check_concatenation,
    compose,
    compress,
    compressed_embedding,
    count_instances,
    decompress,
    enumerate_instances,
    extend,
    generate_zimin,
    instance_length,
    is_unavoidable_by_ranking,
    is_unavoidable_by_reduction,
    is_zimin_factor,
    oracle_enumerate,
    oracle_is_factor,
    oracle_min_length,
    reduce_extended,
    shortest_instance,
    uncompressed_embedding,
    validate_ranking,
)
from zimin import matching
from zimin.verification import make_scaling_pattern


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    return ok


def _canonical_patterns(max_vars: int, max_len: int):
    """All patterns up to variable renaming: restricted growth strings."""
    alphabet = "abc"
    out = []

    def grow(prefix, used):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for v in range(min(used + 1, max_vars)):
            prefix.append(alphabet[v])
            grow(prefix, max(used, v + 1))
            prefix.pop()

    grow([], 0)
    return out


def test_criterion_1_worked_examples():
    start = perf_counter()
    ok = True

    ok &= generate_zimin(1) == (1,)
    ok &= generate_zimin(2) == (1, 2, 1)
    ok &= generate_zimin(3) == (1, 2, 1, 3, 1, 2, 1)
    ok &= generate_zimin(4) == (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1)

    word = (2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5, 1, 2, 1, 3, 1)
    ok &= compress(word) == (2, 4, 5, 3, 1)
    ok &= decompress((2, 4, 5, 3, 1)) == word
    ok &= compress(generate_zimin(4)) == (1, 2, 3, 4, 3, 2, 1)
    ok &= decompress((1, 2, 3, 4, 3, 2, 1)) == generate_zimin(4)

    ok &= extend((1, 3, 2)) == [ZBlock(1), 3, ZBlock(1), 2]
    ok &= extend((1, 4, 3, 1)) == [ZBlock(1), 4, ZBlock(2), 3, ZBlock(1)]
    ok &= extend((2, 5, 3, 2)) == [2, ZBlock(1), 5, ZBlock(2), 3, ZBlock(1), 2]
    ok &= compose([(1, 3, 2), (1, 4, 3, 1), (2, 5, 3, 2), (1, 4, 3, 1)]) == (
        1, 3, 4, 5, 4, 3, 1,
    )
    chain = (
        extend((1, 3, 2))
        + extend((1, 4, 3, 1))
        + extend((2, 5, 3, 2))
        + extend((1, 4, 3, 1))
    )
    ok &= reduce_extended(chain) == [
        ZBlock(1), 3, ZBlock(2), 4, ZBlock(3), 5, ZBlock(3), 4, ZBlock(2), 3, ZBlock(1),
    ]

    ok &= ref.first_last(("b", "a", "b", "c", "a"), forced=("a",)) == {
        "a": (True, True),
        "b": (False, False),
        "c": (True, False),
    }

    ruler = RankedPattern(
        tuple("dacblcadacba"), {"d": 4, "a": 1, "c": 3, "b": 2, "l": 5}
    )
    ok &= uncompressed_embedding(ruler) == {
        "a": (1,),
        "b": (1, 2),
        "c": (2, 1, 3),
        "d": (2, 1, 4),
        "l": (1, 5, 1),
    }

    rich = RankedPattern(
        tuple("acbdeacbzea"),
        {"a": 1, "c": 3, "b": 2, "d": 4, "e": 5, "z": 6},
    )
    result = compressed_embedding(rich)
    ok &= result is not None and check_concatenation(
        [result.valuation[s] for s in rich.symbols]
    )
    family = enumerate_instances(rich, limit=4096)
    ok &= {
        "a": (1,),
        "b": (2,),
        "c": (3, 1),
        "d": (1, 4),
        "e": (1, 2, 3, 5, 2),
        "z": (1, 4, 6, 4),
    } in family

    elapsed = perf_counter() - start
    ok &= elapsed < 1.0
    assert _report("criterion 1, worked examples", ok, f"elapsed {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = perf_counter()
    patterns = _canonical_patterns(max_vars=3, max_len=6)
    assert len(patterns) == 185

    def check(rp) -> bool:
        expected = oracle_enumerate(rp)
        match = compressed_embedding(rp)
        if (match is not None) != bool(expected):
            return False
        if count_instances(rp) != len(expected):
            return False
        short = shortest_instance(rp)
        if short is None:
            return match is None
        return instance_length(rp, short.valuation) == oracle_min_length(rp)

    checked = 0
    bad = None
    for symbols in patterns:
        variables = sorted(set(symbols))
        for ranks in product((1, 2, 3), repeat=len(variables)):
            rp = RankedPattern(symbols, dict(zip(variables, ranks)))
            if validate_ranking(rp):
                continue
            checked += 1
            if not check(rp):
                bad = rp
                break
        if bad:
            break

    sampled = 0
    rng = random.Random(2026)
    while bad is None and sampled < 500:
        symbols = rng.choice(patterns)
        variables = sorted(set(symbols))
        ranks = {v: rng.randrange(1, 5) for v in variables}
        if 4 not in ranks.values():
            continue
        rp = RankedPattern(symbols, ranks)
        if validate_ranking(rp):
            continue
        sampled += 1
        if not check(rp):
            bad = rp

    elapsed = perf_counter() - start
    # adjacent repeats rule out every ranking for most patterns, so the
    # exhaustive universe is small; 43 is its exact size
    ok = bad is None and checked == 43 and sampled == 500 and elapsed < 60.0
    assert _report(
        "criterion 2, oracle equivalence",
        ok,
        f"exhaustive {checked}, sampled {sampled}, "
        f"first mismatch {bad}, elapsed {elapsed:.2f}s",
    )


def test_criterion_3_factor_equivalence():
    start = perf_counter()
    z10 = generate_zimin(10)
    n = len(z10)

    bad = None
    for i in range(n):
        for j in range(i + 1, n + 1):
            if not is_zimin_factor(z10[i:j]):
                bad = (i, j)
                break
        if bad:
            break

    rejected = 0
    rng = random.Random(331)
    while bad is None and rejected < 10_000:
        length = rng.randrange(2, 41)
        word = tuple(rng.randrange(1, 7) for _ in range(length))
        if oracle_is_factor(word):
            continue
        rejected += 1
        if is_zimin_factor(word):
            bad = word
            break

    z8 = generate_zimin(8)
    if bad is None:
        for i in range(len(z8)):
            for j in range(i + 1, len(z8) + 1):
                w = z8[i:j]
                if decompress(compress(w)) != w:
                    bad = (i, j)
                    break
            if bad:
                break

    elapsed = perf_counter() - start
    ok = bad is None and elapsed < 30.0
    assert _report(
        "criterion 3, factor test and round trip",
        ok,
        f"counterexample {bad}, elapsed {elapsed:.2f}s",
    )


def test_criterion_4_basic_verdicts():
    ok = is_unavoidable_by_reduction(("a", "b", "a")).verdict is Verdict.UNAVOIDABLE
    ok &= is_unavoidable_by_ranking(("a", "b", "a")).verdict is Verdict.UNAVOIDABLE
    ok &= is_unavoidable_by_reduction(("a", "a")).verdict is Verdict.AVOIDABLE
    ok &= is_unavoidable_by_ranking(("a", "a")).verdict is Verdict.AVOIDABLE
    for k in (2, 3, 4):
        pattern = tuple(chr(ord("a") + x - 1) for x in generate_zimin(k))
        ok &= is_unavoidable_by_reduction(pattern).verdict is Verdict.UNAVOIDABLE
        ok &= is_unavoidable_by_ranking(pattern).verdict is Verdict.UNAVOIDABLE
    assert _report("criterion 4, basic verdicts", ok)


# two interleaved near-copies of one variable: a and d play the same role
FIFTEEN = tuple("abacdbacabdcdbd")


def _first_occurrence_form(word) -> tuple:
    """Rename symbols 0, 1, 2, ... in order of first occurrence."""
    names: dict = {}
    return tuple(names.setdefault(s, len(names)) for s in word)


def test_criterion_4_fifteen_symbol_unavoidable_claim():
    # Both exhaustive deciders must call the pattern AVOIDABLE.  Two facts
    # prove that verdict independently of them, by Zimin's theorem (a
    # pattern on 4 variables is unavoidable iff Z_4 encounters it):
    # - in every factor of a Zimin word the largest letter occurs exactly
    #   once, so the variable whose image holds it occurs once in the
    #   pattern; here no variable occurs exactly once;
    # - |FIFTEEN| = |Z_4| = 15, so a non-erasing image inside Z_4 would be
    #   Z_4 itself, one letter per variable, making the pattern a renaming
    #   of Z_4; its first-occurrence form differs from Z_4's.
    once = sorted(v for v, c in Counter(FIFTEEN).items() if c == 1)
    z4 = generate_zimin(4)
    form, z4_form = _first_occurrence_form(FIFTEEN), _first_occurrence_form(z4)
    reduction = is_unavoidable_by_reduction(FIFTEEN).verdict
    ranking = is_unavoidable_by_ranking(FIFTEEN).verdict
    ok = not once
    ok &= len(FIFTEEN) == len(z4) and form != z4_form
    ok &= reduction is Verdict.AVOIDABLE and ranking is Verdict.AVOIDABLE
    assert _report(
        "criterion 4, fifteen-symbol pattern avoidable",
        ok,
        f"reduction={reduction.value}, ranking={ranking.value}, "
        f"occurring once {once}, length {len(FIFTEEN)} vs |Z_4| {len(z4)}, "
        f"form {form} vs Z_4 {z4_form}",
    )


def test_criterion_4_fifteen_symbol_singleton_search():
    result = is_unavoidable_by_reduction(FIFTEEN, max_free_set_size=1)
    ok = result.verdict is Verdict.INCONCLUSIVE
    assert _report(
        "criterion 4, singleton-only search inconclusive",
        ok,
        f"got {result.verdict.value}",
    )


def test_criterion_4_methods_agree():
    start = perf_counter()
    bad = None
    for pattern in _canonical_patterns(max_vars=3, max_len=6):
        by_reduction = is_unavoidable_by_reduction(pattern).verdict
        by_ranking = is_unavoidable_by_ranking(pattern).verdict
        if by_reduction is not by_ranking:
            bad = (pattern, by_reduction, by_ranking)
            break
        if by_reduction is Verdict.INCONCLUSIVE:
            bad = (pattern, by_reduction, by_ranking)
            break
    elapsed = perf_counter() - start
    ok = bad is None
    assert _report(
        "criterion 4, deciders agree", ok, f"mismatch {bad}, elapsed {elapsed:.2f}s"
    )


def test_criterion_5_complexity_smoke():
    n, top = 100_000, 1000

    rp_half = make_scaling_pattern(n // 2, top_rank=top)
    t0 = perf_counter()
    compressed_embedding(rp_half)
    t_half = perf_counter() - t0

    rp = make_scaling_pattern(n, top_rank=top)
    t0 = perf_counter()
    result = compressed_embedding(rp)
    t_full = perf_counter() - t0

    ok = result is not None
    ok &= t_full < 5.0
    ok &= t_full <= 2.5 * max(t_half, 0.05)

    cells = sum(len(code) for code in result.valuation.values())
    ok &= cells <= 2 * (n + top * top)

    length = instance_length(rp, result.valuation)
    ok &= length > 2**500

    assert _report(
        "criterion 5, complexity smoke test",
        ok,
        f"t({n//2})={t_half:.2f}s t({n})={t_full:.2f}s "
        f"cells={cells} length_bits={length.bit_length()}",
    )


def _ruler_then_chain(k: int, m: int) -> RankedPattern:
    """Z_k over x1..xk, each ranked m + its letter, then an ascending
    chain of m fresh variables ranked 1..m."""
    symbols = [f"x{v}" for v in generate_zimin(k)] + [f"c{j}" for j in range(1, m + 1)]
    ranks = {f"x{v}": m + v for v in range(1, k + 1)}
    ranks.update((f"c{j}", j) for j in range(1, m + 1))
    return RankedPattern(symbols, ranks)


def test_criterion_5_repeated_pairs_smoke():
    """Each chain level inserts one c right after the word's last x1, so
    it rewrites one slot of the end side of x1 (2^16 slots, 17 distinct
    pairs) and rebuilds its component.  A rebuild that reads every slot
    makes the time grow with m * 2^17; one that reads distinct pairs
    keeps it near the cost of the word alone."""
    k, m = 17, 2000

    rp_short = _ruler_then_chain(k, m // 8)
    t0 = perf_counter()
    compressed_embedding(rp_short)
    t_short = perf_counter() - t0

    rp = _ruler_then_chain(k, m)
    t0 = perf_counter()
    result = compressed_embedding(rp)
    t_full = perf_counter() - t0

    ok = result is not None
    ok &= t_full < 5.0
    ok &= t_full <= 2.5 * max(t_short, 0.05)
    assert _report(
        "criterion 5, repeated pairs smoke test",
        ok,
        f"t(m={m // 8})={t_short:.2f}s t(m={m})={t_full:.2f}s",
    )


def test_criterion_5_distinct_ruler_smoke():
    """Every ruler level rebuilds nearly every component: a position of
    each ruler value lies between any two positions of larger values, so
    the level's insertions touch nearly every old side.  The count's walk
    must stay linear in the positions."""
    n = 1 << 16
    times = []
    for length in (n // 2, n):
        rp = distinct_ruler(random.Random(5), length=length)
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            walked = matching._run(rp, codes=False)
            best = min(best, perf_counter() - t0)
        assert walked is not None
        times.append(best)
    t_half, t_full = times

    ok = t_full < 5.0
    ok &= t_full <= 2.5 * max(t_half, 0.05)
    assert _report(
        "criterion 5, distinct ruler smoke test",
        ok,
        f"t({n // 2})={t_half:.3f}s t({n})={t_full:.3f}s",
    )
