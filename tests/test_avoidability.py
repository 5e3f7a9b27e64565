from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from reference_engine import count_free_components
from zimin import (
    FreeSetWitness,
    MatchResult,
    RankingResult,
    ReductionResult,
    SizeLimitError,
    Verdict,
    check_concatenation,
    check_free_set,
    compressed_embedding,
    decompress,
    generate_zimin,
    is_unavoidable_by_ranking,
    is_unavoidable_by_reduction,
    is_zimin_factor,
    oracle_enumerate,
    RankedPattern,
    validate_ranking,
)
from zimin.avoidability import MAX_VARIABLES, _canonical, delete_variables

# the 15-symbol, 4-variable pattern built from two near-copies of the same
# variable; no sequence of free-set deletions empties it
FIFTEEN = tuple("abacdbacabdcdbd")


def zimin_pattern(k):
    return tuple(chr(ord("a") + x - 1) for x in generate_zimin(k))


def test_verdict_values():
    assert Verdict.UNAVOIDABLE.value == "unavoidable"
    assert Verdict.AVOIDABLE.value == "avoidable"
    assert Verdict.INCONCLUSIVE.value == "inconclusive"


def test_check_free_set_witnesses():
    w = check_free_set(("x", "y"), ("x",))
    assert w.free_set == frozenset({"x"})
    assert w.a_set == frozenset()
    assert w.b_set == frozenset({"x"})

    assert check_free_set(("x", "y"), ("x", "y")) is None

    w = check_free_set(("a", "b", "a"), ("a",))
    assert w.a_set == frozenset({"b"})
    assert w.b_set == frozenset({"a"})


def test_check_free_set_validation():
    with pytest.raises(ValueError, match="must be nonempty"):
        check_free_set(("a", "b"), ())
    unknown = "candidate free set holds 'q', which does not occur in the pattern"
    with pytest.raises(ValueError, match=unknown):
        check_free_set(("a", "b"), ("q",))
    with pytest.raises(ValueError, match=unknown):
        check_free_set((), ("q",))


def test_delete_variables():
    assert delete_variables(FIFTEEN, {"a", "d"}) == tuple("bcbcbcb")
    assert delete_variables(("a", "b", "a"), {"a"}) == ("b",)
    assert delete_variables(("a",), {"a"}) == ()


def test_reduction_on_simple_patterns():
    result = is_unavoidable_by_reduction(("a", "b", "a"))
    assert result.verdict is Verdict.UNAVOIDABLE
    assert result.trace == (
        (("a", "b", "a"), frozenset({"a"})),
        (("b",), frozenset({"b"})),
    )
    assert is_unavoidable_by_reduction(("a", "a")).verdict is Verdict.AVOIDABLE
    assert is_unavoidable_by_reduction(()).verdict is Verdict.UNAVOIDABLE


def test_reduction_trace_replays_to_empty():
    for pattern in [("a", "b", "a"), zimin_pattern(3), zimin_pattern(4)]:
        result = is_unavoidable_by_reduction(pattern)
        assert result.verdict is Verdict.UNAVOIDABLE
        current = pattern
        for step_pattern, free_set in result.trace:
            assert step_pattern == current
            assert check_free_set(current, sorted(free_set)) is not None
            current = delete_variables(current, free_set)
        assert current == ()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_zimin_patterns_unavoidable(k):
    pattern = zimin_pattern(k)
    assert is_unavoidable_by_reduction(pattern).verdict is Verdict.UNAVOIDABLE
    result = is_unavoidable_by_ranking(pattern)
    assert result.verdict is Verdict.UNAVOIDABLE
    # the witness ranking embeds the pattern into Z_k itself
    assert max(result.ranking.values()) <= k


def test_ranking_on_simple_patterns():
    result = is_unavoidable_by_ranking(("a", "b", "a"))
    assert result.verdict is Verdict.UNAVOIDABLE
    assert result.ranking == {"a": 1, "b": 2}
    assert result.match.valuation == {"a": (1,), "b": (2,)}
    assert is_unavoidable_by_ranking(("a", "a")).verdict is Verdict.AVOIDABLE
    assert is_unavoidable_by_ranking(()).verdict is Verdict.UNAVOIDABLE


def test_ranking_witness_is_checkable():
    pattern = zimin_pattern(3)
    result = is_unavoidable_by_ranking(pattern)
    rp = RankedPattern(pattern, result.ranking)
    assert validate_ranking(rp) == ()
    again = compressed_embedding(rp)
    assert again is not None
    word = tuple(x for s in pattern for x in decompress(again.valuation[s]))
    assert is_zimin_factor(word)


def test_fifteen_symbol_pattern():
    # every free set is a subset of {a, d} or of {b, c}, and every deletion
    # order runs into an irreducible remainder
    assert is_unavoidable_by_reduction(FIFTEEN).verdict is Verdict.AVOIDABLE
    assert is_unavoidable_by_ranking(FIFTEEN).verdict is Verdict.AVOIDABLE


def test_fifteen_symbol_needs_pair_deletions():
    # restricted to singleton free sets the search cannot finish the job
    # either way, so it must not claim avoidability
    result = is_unavoidable_by_reduction(FIFTEEN, max_free_set_size=1)
    assert result.verdict is Verdict.INCONCLUSIVE


def test_fifteen_symbol_pair_deletion_exists():
    # {a, d} is free and its deletion leaves bcbcbcb, which then reduces
    # only into dead ends; the singletons {a}, {b}, {c}, {d} are free too,
    # and the singleton-limited search is inconclusive only because a
    # truncated search reports every miss as INCONCLUSIVE
    w = check_free_set(FIFTEEN, ("a", "d"))
    assert w is not None
    assert w.free_set == frozenset({"a", "d"})
    assert delete_variables(FIFTEEN, {"a", "d"}) == tuple("bcbcbcb")


def test_variable_cap():
    pattern = tuple("abcdefghi")  # 9 distinct variables
    with pytest.raises(SizeLimitError):
        is_unavoidable_by_reduction(pattern)
    with pytest.raises(SizeLimitError):
        is_unavoidable_by_ranking(pattern)


def test_methods_agree_on_random_patterns():
    rng = random.Random(77)
    seen = set()
    for _ in range(300):
        k = rng.randrange(1, 5)
        pool = "abcd"[:k]
        n = rng.randrange(1, 9)
        pattern = tuple(rng.choice(pool) for _ in range(n))
        if pattern in seen:
            continue
        seen.add(pattern)
        by_reduction = is_unavoidable_by_reduction(pattern).verdict
        by_ranking = is_unavoidable_by_ranking(pattern).verdict
        assert by_reduction is by_ranking, pattern
        assert by_reduction in (Verdict.UNAVOIDABLE, Verdict.AVOIDABLE)


def test_reduction_size_cap_must_be_positive():
    for size in (0, -3):
        with pytest.raises(ValueError):
            is_unavoidable_by_reduction(("a", "b", "a"), size)


def test_doubled_pattern_avoidable():
    # any pattern containing xx for some variable is avoidable
    for pattern in [("a", "a"), ("a", "b", "b", "a"), ("c", "a", "a", "c")]:
        assert is_unavoidable_by_reduction(pattern).verdict is Verdict.AVOIDABLE


def test_node_counts():
    assert is_unavoidable_by_reduction(("a", "b", "a")).nodes == 3
    assert is_unavoidable_by_ranking(("a", "b", "a")).nodes >= 2
    # at most one layer system per (placed set, nonempty layer) pair
    for pattern in [tuple("abcdefghabcdefgh"), zimin_pattern(8)]:
        result = is_unavoidable_by_ranking(pattern)
        assert result.nodes <= 3**8 - 2**8, (pattern, result.nodes)


def reference_ranking_search(pattern) -> RankingResult:
    """The exhaustive decider the layer search replaced: every ranking onto
    an interval {1..m}, in lexicographic order, through the full engine."""
    pattern = tuple(pattern)
    variables = tuple(dict.fromkeys(pattern))
    if not pattern:
        return RankingResult(Verdict.UNAVOIDABLE, {}, MatchResult({}, 0))
    k = len(variables)
    if k > MAX_VARIABLES:
        raise SizeLimitError(
            f"{k} variables, ranking search is capped at {MAX_VARIABLES}"
        )

    assign: dict = {}
    used: set[int] = set()

    def rec(i: int):
        if i == k:
            rp = RankedPattern(pattern, dict(assign))
            if validate_ranking(rp):
                return None
            match = compressed_embedding(rp)
            if match is None:
                return None
            return dict(assign), match
        remaining = k - i
        cur_max = max(used, default=0)
        for rank in range(1, k + 1):
            added = rank not in used
            # every rank below the running max must still be coverable
            if max(cur_max, rank) - (len(used) + added) > remaining - 1:
                continue
            assign[variables[i]] = rank
            if added:
                used.add(rank)
            hit = rec(i + 1)
            if added:
                used.discard(rank)
            del assign[variables[i]]
            if hit:
                return hit
        return None

    hit = rec(0)
    if hit:
        return RankingResult(Verdict.UNAVOIDABLE, hit[0], hit[1])
    return RankingResult(Verdict.AVOIDABLE, None, None)


def reference_check_free_set(pattern, candidate):
    """The free-set test before it ran on the junction solver, a dict
    union-find over ("a", x) and ("b", y) vertices.  Witness that
    ``candidate`` is a free set of the pattern, or None.

    Freeness asks for sets A, B with x in A iff y in B for every
    adjacent occurrence pair x y, and the candidate inside B minus A.
    That is a system of equalities between per-variable booleans, solved
    here on its connected components.
    """
    variables = tuple(dict.fromkeys(pattern))
    cand = frozenset(candidate)
    if not cand:
        raise ValueError("candidate free set must be nonempty")
    if not cand <= set(variables):
        raise ValueError("candidate contains variables not in the pattern")

    parent: dict = {}
    for x in variables:
        parent[("a", x)] = ("a", x)
        parent[("b", x)] = ("b", x)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in zip(pattern, pattern[1:]):
        parent[find(("a", x))] = find(("b", y))

    value: dict = {}
    for f in cand:
        for vert, want in ((("b", f), True), (("a", f), False)):
            root = find(vert)
            if value.get(root, want) != want:
                return None
            value[root] = want
    a_set = frozenset(x for x in variables if value.get(find(("a", x)), False))
    b_set = frozenset(x for x in variables if value.get(find(("b", x)), False))
    return FreeSetWitness(cand, a_set, b_set)


def reference_reduction_search(pattern, max_free_set_size=None) -> ReductionResult:
    """The reduction decider before it solved each node once: every
    candidate through ``reference_check_free_set``.  Search for a chain
    of free deletions emptying the pattern.

    With max_free_set_size the search is truncated and a miss is only
    INCONCLUSIVE; unrestricted (or covering all variables) it is a
    decision procedure.
    """
    pattern = tuple(pattern)
    variables = tuple(dict.fromkeys(pattern))
    if len(variables) > MAX_VARIABLES:
        raise SizeLimitError(
            f"{len(variables)} variables, reduction search is capped at {MAX_VARIABLES}"
        )
    if not pattern:
        return ReductionResult(Verdict.UNAVOIDABLE, ())
    complete = max_free_set_size is None or max_free_set_size >= len(variables)

    dead: set = set()
    trace: list = []
    nodes = 0

    def dfs(p) -> bool:
        nonlocal nodes
        nodes += 1
        if not p:
            return True
        key = _canonical(p)
        if key in dead:
            return False
        pvars = tuple(dict.fromkeys(p))
        bound = len(pvars) if max_free_set_size is None else min(
            max_free_set_size, len(pvars)
        )
        for size in range(1, bound + 1):
            for combo in combinations(pvars, size):
                if reference_check_free_set(p, combo) is None:
                    continue
                deleted = frozenset(combo)
                trace.append((p, deleted))
                if dfs(delete_variables(p, deleted)):
                    return True
                trace.pop()
        dead.add(key)
        return False

    if dfs(pattern):
        return ReductionResult(Verdict.UNAVOIDABLE, tuple(trace), nodes)
    verdict = Verdict.AVOIDABLE if complete else Verdict.INCONCLUSIVE
    return ReductionResult(verdict, (), nodes)


def canonical_patterns(max_vars, max_len):
    """Every pattern up to renaming (restricted growth strings)."""
    out = []

    def grow(pattern, k):
        if pattern:
            out.append(tuple(pattern))
        if len(pattern) < max_len:
            for v in range(min(k + 1, max_vars)):
                grow(pattern + ["abcdefgh"[v]], max(k, v + 1))

    grow([], 0)
    return out


def assert_witness(pattern, result):
    """An UNAVOIDABLE witness ranks onto {1..m}, m <= k, and its codes
    concatenate, in pattern order, to a Zimin factor."""
    k = len(set(pattern))
    ranks = set(result.ranking.values())
    assert ranks == set(range(1, len(ranks) + 1)) and len(ranks) <= k, result.ranking
    assert list(result.ranking) == list(dict.fromkeys(pattern))
    codes = [result.match.valuation[s] for s in pattern]
    assert check_concatenation(codes), (pattern, result.ranking)


def test_layer_search_matches_reference_exhaustively():
    patterns = canonical_patterns(max_vars=4, max_len=8)
    assert len(patterns) == 3771
    for pattern in patterns:
        result = is_unavoidable_by_ranking(pattern)
        assert result.verdict is reference_ranking_search(pattern).verdict, pattern
        if result.verdict is Verdict.UNAVOIDABLE:
            assert_witness(pattern, result)


def _five_variable_patterns(rng, rounds):
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for _ in range(rounds):
        v = rng.sample(letters, 5)
        out.append(v + rng.sample(v, 5))  # a square u u'
        shuffle = [x for x in rng.sample(letters, 5) for _ in range(rng.choice((2, 3)))]
        rng.shuffle(shuffle)
        out.append(shuffle)
        z = generate_zimin(rng.choice((5, 6, 7)))
        while True:  # a factor of Z_5..Z_7 on five letters, renamed
            i = rng.randrange(len(z))
            j = rng.randrange(i + 1, len(z) + 1)
            if len(set(z[i:j])) == 5:
                break
        rename = dict(zip(sorted(set(z[i:j])), rng.sample(letters, 5)))
        out.append([rename[x] for x in z[i:j]])
    return [tuple(p) for p in out]


def test_layer_search_matches_reference_on_five_variables():
    patterns = _five_variable_patterns(random.Random(4), 40)
    assert len(patterns) == 120
    for pattern in patterns:
        result = is_unavoidable_by_ranking(pattern)
        assert result.verdict is reference_ranking_search(pattern).verdict, pattern
        if result.verdict is Verdict.UNAVOIDABLE:
            assert_witness(pattern, result)


def test_shared_rank_layer_needed():
    # every matching ranking of this pattern gives two variables the same
    # rank, so a search placing one variable per rank would miss it
    pattern = tuple("abacbdebec")
    result = is_unavoidable_by_ranking(pattern)
    assert result.verdict is Verdict.UNAVOIDABLE
    assert_witness(pattern, result)
    assert len(set(result.ranking.values())) < len(result.ranking)
    variables = tuple(dict.fromkeys(pattern))
    assert not any(
        compressed_embedding(RankedPattern(pattern, dict(zip(variables, ranks))))
        for ranks in permutations(range(1, len(variables) + 1))
    )
    assert is_unavoidable_by_reduction(pattern).verdict is Verdict.UNAVOIDABLE


def test_layer_search_matches_oracle():
    # independent of both deciders: some ranking in {1..k}^vars has a
    # match found by brute force in Z_k
    for pattern in canonical_patterns(max_vars=3, max_len=6):
        variables = tuple(dict.fromkeys(pattern))
        k = len(variables)
        matched = any(
            oracle_enumerate(RankedPattern(pattern, dict(zip(variables, ranks))))
            for ranks in product(range(1, k + 1), repeat=k)
        )
        verdict = is_unavoidable_by_ranking(pattern).verdict
        assert (verdict is Verdict.UNAVOIDABLE) is matched, pattern


def _free_sets_match_reference(patterns):
    """Every nonempty candidate of every pattern: the same None or the
    same witness as the dict union-find.  Returns how many candidates
    were tried and how many of them are free."""
    pairs = free = 0
    for pattern in patterns:
        variables = tuple(dict.fromkeys(pattern))
        for size in range(1, len(variables) + 1):
            for combo in combinations(variables, size):
                pairs += 1
                expected = reference_check_free_set(pattern, combo)
                assert check_free_set(pattern, combo) == expected, (pattern, combo)
                free += expected is not None
    return pairs, free


def test_free_sets_match_reference():
    assert _free_sets_match_reference(canonical_patterns(max_vars=4, max_len=8)) == (42377, 5080)


def _free_set_sample(rng, rounds):
    """Squares, shuffles and random words on 5 to 8 variables."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for _ in range(rounds):
        k = rng.randint(5, 8)
        v = rng.sample(letters, k)
        out.append(v + rng.sample(v, k))  # a square u u'
        shuffle = [x for x in v for _ in range(rng.choice((2, 3)))]
        rng.shuffle(shuffle)
        out.append(shuffle)
        word = v + rng.choices(v, k=rng.randrange(2 * k))  # every variable at least once
        rng.shuffle(word)
        out.append(word)
    return [tuple(p) for p in out]


def test_free_sets_match_reference_past_four_variables():
    patterns = _free_set_sample(random.Random(20), 12)
    assert len(patterns) == 36
    assert all(5 <= len(set(p)) <= 8 for p in patterns)
    assert _free_sets_match_reference(patterns) == (4572, 163)


def _assert_reduction_matches_reference(pattern, max_free_set_size=None):
    result = is_unavoidable_by_reduction(pattern, max_free_set_size)
    expected = reference_reduction_search(pattern, max_free_set_size)
    assert result == expected, (pattern, max_free_set_size)


def test_reduction_matches_reference_exhaustively():
    for pattern in canonical_patterns(max_vars=4, max_len=8):
        _assert_reduction_matches_reference(pattern)
        _assert_reduction_matches_reference(pattern, 1)


def test_reduction_matches_reference_on_five_variables():
    patterns = _five_variable_patterns(random.Random(6), 100)
    assert len(patterns) == 300
    for pattern in patterns:
        _assert_reduction_matches_reference(pattern)
        _assert_reduction_matches_reference(pattern, 1)


def large_reference_patterns():
    """Z_5..Z_8, abcdefghabcdefgh, Z_7 x Z_7 x and FIFTEEN."""
    z7 = zimin_pattern(7)
    return [
        *(zimin_pattern(k) for k in range(5, 9)),
        tuple("abcdefghabcdefgh"),
        z7 + ("x",) + z7 + ("x",),
        FIFTEEN,
    ]


def test_reduction_matches_reference_on_large_patterns():
    for pattern in large_reference_patterns():
        _assert_reduction_matches_reference(pattern)
        _assert_reduction_matches_reference(pattern, 1)


def layer_search_reference(pattern) -> RankingResult:
    """The layer search as it was when every node solved its own level
    system: the projection onto P | layer, with the layer forced, through
    the reference ``count_free_components``.  Same search order and memo,
    so the same result, nodes included."""
    pattern = tuple(pattern)
    variables = tuple(dict.fromkeys(pattern))
    if not pattern:
        return RankingResult(Verdict.UNAVOIDABLE, {}, MatchResult({}, 0))
    k = len(variables)
    if k > MAX_VARIABLES:
        raise SizeLimitError(
            f"{k} variables, ranking search is capped at {MAX_VARIABLES}"
        )

    bit = {v: 1 << i for i, v in enumerate(variables)}
    masks = [bit[s] for s in pattern]
    everything = (1 << k) - 1
    dead: set[int] = set()
    layers: list[int] = []  # top layer first
    nodes = 0

    def place(placed: int) -> bool:
        nonlocal nodes
        if placed == everything:
            return True
        if placed in dead:
            return False
        rest = everything ^ placed
        layer = rest
        while layer:
            nodes += 1
            shown = placed | layer
            projection = tuple(s for s, m in zip(pattern, masks) if m & shown)
            forced = tuple(v for v in variables if bit[v] & layer)
            if count_free_components(projection, forced) is not None:
                layers.append(layer)
                if place(shown):
                    return True
                layers.pop()
            layer = (layer - 1) & rest  # next smaller subset of rest
        dead.add(placed)
        return False

    if not place(0):
        return RankingResult(Verdict.AVOIDABLE, None, None, nodes)
    top = len(layers)
    ranking = {
        v: top - i for v in variables for i, layer in enumerate(layers) if layer & bit[v]
    }
    match = compressed_embedding(RankedPattern(pattern, ranking))
    if match is None:
        raise RuntimeError(
            f"layer search accepted ranking {ranking} but the engine rejects it"
        )
    return RankingResult(Verdict.UNAVOIDABLE, ranking, match, nodes)


def test_ranking_matches_layer_search_reference():
    # whole results: verdict, ranking, match and nodes
    patterns = [
        *canonical_patterns(max_vars=4, max_len=8),
        *_five_variable_patterns(random.Random(6), 100),
        *large_reference_patterns(),
    ]
    assert len(patterns) == 3771 + 300 + 7
    for pattern in patterns:
        assert is_unavoidable_by_ranking(pattern) == layer_search_reference(pattern), pattern


def test_reduction_hard_avoidable_probe():
    # Z_7 x Z_7 x: 8 variables, 256 symbols, avoidable because no variable
    # occurs once; the old search took over a second on it
    z7 = zimin_pattern(7)
    pattern = z7 + ("x",) + z7 + ("x",)
    assert (len(pattern), len(set(pattern))) == (256, 8)
    result = is_unavoidable_by_reduction(pattern)
    assert result.verdict is Verdict.AVOIDABLE
    assert result.nodes == 255
    assert is_unavoidable_by_ranking(pattern).verdict is Verdict.AVOIDABLE
