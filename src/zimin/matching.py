"""Matching ranked patterns into Zimin words.

A ranking assigns each pattern variable a positive rank; a match is a
valuation sending each variable to a Zimin factor whose largest letter
is the rank, such that the image of the whole pattern is again a Zimin
factor.  Values are handled in compressed form throughout, so matched
instances may be astronomically longer than anything materialized here.

The engine walks rank levels downward.  At level i the projection onto
ranks >= i is refined: variables of rank i enter with value (i), and
every junction of the projection needs exactly one letter i, which is
the boundary system solved per level.  Each level contributes its free
component count to l, and the instance count is 2**l.  Levels between
two distinct ranks repeat one unforced system, so they are taken in one
step and the cost grows with the number of distinct ranks, not with
their numeric values.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress, product

from .boundary import AdjacencyGraph, first_last
from .compressed import DEFAULT_MAX_LETTERS, decompressed_length, power_of_two
from .errors import EnumerationLimitError, SizeLimitError
from .words import apply_mu

DEFAULT_ENUM_LIMIT = 4096

# the letter runs that rank gaps add to the codes of one match, in cells
# all told; the 4.05M cells of a 50k-position ruler lifted by 80 ranks fit
MAX_RUN_CELLS = 1 << 23


@dataclass(frozen=True)
class RankedPattern:
    """A pattern (sequence of variable occurrences) plus a ranking.

    ``ranks`` must cover exactly the variables that occur.  Ranks do not
    need to be contiguous; missing levels just insert no new variables.
    """

    symbols: tuple
    ranks: dict

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "ranks", dict(self.ranks))
        if not self.symbols:
            raise ValueError("pattern must have at least one symbol")
        occurring = set(self.symbols)
        if set(self.ranks) != occurring:
            raise ValueError("ranks must cover exactly the occurring variables")
        for var, rank in self.ranks.items():
            if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
                raise ValueError(f"rank of {var!r} must be a positive integer")

    def __len__(self):
        return len(self.symbols)

    @property
    def max_rank(self) -> int:
        return max(self.ranks.values())

    @property
    def rank_sequence(self) -> tuple[int, ...]:
        return tuple(self.ranks[s] for s in self.symbols)

    @property
    def variables(self) -> tuple:
        return tuple(dict.fromkeys(self.symbols))


@dataclass(frozen=True)
class RankingViolation:
    kind: str  # "equal-ranks-unseparated" or "max-rank-repeated"
    positions: tuple


@dataclass(frozen=True)
class MatchResult:
    valuation: dict  # variable -> compressed value
    free_components: int  # l: total free bits over all levels


def validate_ranking(pattern: RankedPattern):
    """Violations of the two matchability conditions, in scan order.

    (equal-ranks-unseparated) two equal ranks with nothing larger in
    between, (max-rank-repeated) the top rank occurring more than once.
    Both conditions are necessary, not sufficient: a ranking with a
    violation admits no match, but ``xyzxwy`` with x=3, y=2, z=4, w=1
    has none and admits no match either.  Only the level systems of the
    engine decide.
    """
    seq = pattern.rank_sequence
    violations = []
    stack: list = []  # (rank, position), ranks strictly decreasing
    for pos, rank in enumerate(seq):
        while stack and stack[-1][0] < rank:
            stack.pop()
        if stack and stack[-1][0] == rank:
            violations.append(
                RankingViolation("equal-ranks-unseparated", (stack[-1][1], pos))
            )
            stack[-1] = (rank, pos)
        else:
            stack.append((rank, pos))
    top = max(seq)
    tops = tuple(pos for pos, rank in enumerate(seq) if rank == top)
    if len(tops) > 1:
        violations.append(RankingViolation("max-rank-repeated", tops))
    return tuple(violations)


def _peel_events(pattern: RankedPattern):
    """Deletion records of the projection linked list, per distinct rank.

    Replayed in reverse they re-insert the rank-i positions when the
    engine descends to level i, so every position costs O(1) overall.
    """
    seq = pattern.rank_sequence
    n = len(seq)
    prv = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    by_rank: dict[int, list[int]] = {}
    for pos, rank in enumerate(seq):
        by_rank.setdefault(rank, []).append(pos)
    events: dict[int, list[tuple[int, int, int]]] = {}
    for level in sorted(by_rank):
        recs = []
        for pos in by_rank[level]:
            left, right = prv[pos], nxt[pos]
            recs.append((pos, left, right))
            if left >= 0:
                nxt[left] = right
            if right < n:
                prv[right] = left
        events[level] = recs
    return events


def _run(pattern: RankedPattern, shortest: bool = False, collect=None):
    """Descend the distinct ranks, maintaining compressed values.

    Returns (valuation, l, steps) or None when a level system clashes.
    Every ranking that violates a condition clashes, and so do some that
    violate none (see validate_ranking).  Variables are interned in the
    order they enter, by rank and then last occurrence, both descending,
    so the active ones are always a prefix.

    The levels strictly between a rank and the next lower one (or 0)
    form a gap: they keep that rank's projection and force nothing, so
    one unforced graph serves them all.  Each gap level adds the graph's
    component count to l, and its flags are the same at every gap level,
    so a flagged code gains one run of letters.  Dense ranks have no
    gaps, and the work grows with the distinct ranks, not their values.
    Runs adding more than MAX_RUN_CELLS cells in all raise
    SizeLimitError.

    With ``collect`` (an enumeration limit), steps keeps each level's
    (level, variables above it, active variables, graph, free roots),
    one per level, gap levels included, while 2**l stays within the
    limit.
    """
    symbols = pattern.symbols
    ranks = pattern.ranks
    n = len(symbols)
    events = _peel_events(pattern)
    last_pos = {var: pos for pos, var in enumerate(symbols)}
    names = sorted(last_pos, key=lambda var: (-ranks[var], -last_pos[var]))
    ids = {var: i for i, var in enumerate(names)}
    vid = [ids[s] for s in symbols]
    end = [2 * v for v in vid]
    start = [e + 1 for e in end]

    head = -1
    pair_count: dict[tuple, int] = {}  # (end vertex, start vertex) -> count
    # has a left neighbour; positions only enter, so a flag never clears
    left = [False] * len(names)
    entering = Counter(ranks.values())  # level -> variables of that rank
    vals: list = []
    active = total_free = run_cells = 0
    steps = [] if collect is not None else None
    levels = sorted(events, reverse=True)

    for level, below in zip(levels, levels[1:] + [0]):
        for pos, lft, rgt in reversed(events[level]):
            if lft >= 0 and rgt < n:
                key = (end[lft], start[rgt])
                cnt = pair_count[key] - 1
                if cnt:
                    pair_count[key] = cnt
                else:
                    del pair_count[key]
            if lft >= 0:
                key = (end[lft], start[pos])
                pair_count[key] = pair_count.get(key, 0) + 1
                left[vid[pos]] = True
            else:
                head = pos
            if rgt < n:
                key = (end[pos], start[rgt])
                pair_count[key] = pair_count.get(key, 0) + 1
                left[vid[rgt]] = True

        above = active
        active += entering[level]
        vals.extend(deque((level,)) for _ in range(above, active))
        # a kept graph needs the flags of its own level
        kept_left = left if steps is None else left[:active]
        graph = AdjacencyGraph(active, pair_count, kept_left)
        free = graph.force(range(above, active))
        if free is None:
            return None
        total_free += free
        if steps is not None:
            steps.append((level, above, active, graph, graph.free_roots(active)))
            if _exceeds(total_free, collect):
                steps = None  # over the limit: stop keeping graphs
        if shortest:
            # the tail's last flag is already False wherever it is free
            graph.pin(start[head], False)
        firsts, lasts = graph.flags_with({}, above)
        for code in compress(vals, firsts):
            code.appendleft(level)
        for code in compress(vals, lasts):
            code.append(level)

        gap = level - below - 1
        if not gap:
            continue
        graph = AdjacencyGraph(active, pair_count, kept_left)
        free = graph.components
        if steps is not None:
            # free >= 1, so at most collect.bit_length() levels are kept
            roots = graph.free_roots(active)
            kept_free = total_free
            for lvl in range(level - 1, below, -1):
                steps.append((lvl, active, active, graph, roots))
                kept_free += free
                if _exceeds(kept_free, collect):
                    steps = None
                    break
        total_free += gap * free
        if shortest:
            graph.pin(start[head], False)
        firsts, lasts = graph.flags_with({}, active)
        heads = list(compress(vals, firsts))
        tails = list(compress(vals, lasts))
        run_cells += gap * (len(heads) + len(tails))
        if run_cells > MAX_RUN_CELLS:
            raise SizeLimitError(
                f"rank gaps would add {run_cells} code cells, cap is {MAX_RUN_CELLS}"
            )
        run = range(level - 1, below, -1)
        for code in heads:
            code.extendleft(run)
        for code in tails:
            code.extend(run)

    return {var: tuple(code) for var, code in zip(names, vals)}, total_free, steps


def _exceeds(l: int, limit: int) -> bool:
    """2**l > limit, without building 2**l."""
    return limit < 0 or l >= limit.bit_length()


def compressed_embedding(pattern: RankedPattern, *, validate: bool = True):
    """Canonical match, or None when the ranking admits none.

    With validate=False the two ranking conditions are not prechecked;
    invalid rankings still come back as None because their projections
    force clashing boundary flags.
    """
    if validate and validate_ranking(pattern):
        return None
    out = _run(pattern)
    return None if out is None else MatchResult(out[0], out[1])


def shortest_instance(pattern: RankedPattern, *, validate: bool = True):
    """Match whose instance is shortest possible.

    Junction letters are fixed by the systems; only the flags at the two
    projection ends are genuinely optional, and turning them off level
    by level is globally optimal.
    """
    if validate and validate_ranking(pattern):
        return None
    out = _run(pattern, shortest=True)
    return None if out is None else MatchResult(out[0], out[1])


def count_instances(pattern: RankedPattern) -> int:
    """Exact number of distinct matches (2**l), 0 when there is none.

    Raises SizeLimitError when l exceeds MAX_EXPONENT."""
    res = compressed_embedding(pattern)
    return 0 if res is None else power_of_two(res.free_components)


def enumerate_instances(pattern: RankedPattern, limit: int = DEFAULT_ENUM_LIMIT):
    """All matches, canonical one first.

    The per-level systems do not depend on the bits chosen, so matches
    are exactly the 2**l combinations of the free component bits, all
    distinct.  Raises EnumerationLimitError (carrying l) instead of
    materializing more than ``limit`` results.
    """
    if validate_ranking(pattern):
        return []
    run = _run(pattern, collect=limit)
    if run is None:
        return []
    canonical, total_free, steps = run
    if _exceeds(total_free, limit):
        raise EnumerationLimitError(total_free, limit)

    # each level's flags under every choice of anchors for its free
    # components, in product order; a match picks one choice per level
    choices = [
        [
            graph.flags_with(dict(zip(roots, bits)), above)
            for bits in product((False, True), repeat=len(roots))
        ]
        for _, above, _, graph, roots in steps
    ]
    out = []
    for picked in product(*choices):
        vals: list = []
        for (level, above, active, _, _), (firsts, lasts) in zip(steps, picked):
            for code in compress(vals, firsts):
                code.appendleft(level)
            for code in compress(vals, lasts):
                code.append(level)
            vals.extend(deque((level,)) for _ in range(above, active))
        out.append(dict(zip(canonical, map(tuple, vals))))
    return out


def instance_length(pattern: RankedPattern, valuation) -> int:
    """Length of the matched Zimin factor, as an exact integer.

    Raises SizeLimitError when a code's gap exponent exceeds
    MAX_EXPONENT (see decompressed_length)."""
    return sum(decompressed_length(valuation[s]) for s in pattern.symbols)


def min_instance_length(pattern: RankedPattern):
    res = shortest_instance(pattern)
    return None if res is None else instance_length(pattern, res.valuation)


def uncompressed_embedding(
    pattern: RankedPattern,
    *,
    validate: bool = True,
    max_letters: int = DEFAULT_MAX_LETTERS,
):
    """Explicit-word reference construction of the canonical match.

    Works on fully spelled values: descending a level applies the
    morphism and then fixes up the boundary letters per the solved
    flags.  Values grow exponentially, hence the letter cap; meant for
    cross-checking the compressed engine, not for real inputs.
    """
    if validate and validate_ranking(pattern):
        return None
    seq = pattern.rank_sequence
    val: dict = {}
    for level in range(pattern.max_rank, 0, -1):
        proj = [s for s, r in zip(pattern.symbols, seq) if r >= level]
        forced = tuple(dict.fromkeys(s for s in proj if pattern.ranks[s] == level))
        for var in val:
            val[var] = apply_mu(val[var])
        flags = first_last(proj, forced)
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
        if sum(map(len, val.values())) > max_letters:
            raise SizeLimitError(f"explicit values exceed cap {max_letters}")
    return val
