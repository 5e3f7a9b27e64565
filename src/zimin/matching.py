"""Matching ranked patterns into Zimin words.

A ranking assigns each pattern variable a positive rank; a match is a
valuation sending each variable to a Zimin factor whose largest letter
is the rank, such that the image of the whole pattern is again a Zimin
factor.  Values are handled in compressed form throughout, so matched
instances may be astronomically longer than anything materialized here.

The engine walks rank levels downward.  At level i the projection onto
ranks >= i is refined: the positions of rank i, all occurrences of the
variables that enter with value (i), are inserted, and every junction
of the projection needs exactly one letter i, which is the boundary
system of that level.  Each level contributes its free component count
to l, and the instance count is 2**l.

That system is not rebuilt per level.  Its junction components persist
from level to level, and an insertion changes only the components that
hold the old sides it touches, the end side of its left neighbour and
the start side of its right one: pairs between old sides only
disappear, and both ends of a removed pair are touched.  Only those
components are rebuilt, by a search from the new sides, to which the
touched ones are now paired, and no pass resets them first.  Only they
and the components pinned at the step before can change flags.  A flag
that stays on adds its letter at every level, so it is kept as one run
of letters, written once when it turns off.  Levels between two
distinct ranks repeat one unforced system, so they are taken in one
step, and the cost grows with the distinct ranks and the components
that change, not with the ranks' numeric values.

Each product pays only for what it returns.  One scan of the ranking
peels the projection and checks both ranking conditions, so a broken
ranking ends before any level is walked.  A count keeps no flag and
builds no code.  A match closes each run of letters once and spells
each code once.  An enumeration keeps, per variable, a table from the
bits of the free components that hold its sides to its code.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from itertools import accumulate, chain
from operator import itemgetter

from .compressed import decompressed_length, power_of_two
from .errors import EnumerationLimitError, SizeLimitError

DEFAULT_ENUM_LIMIT = 4096

# the cells of one match's codes, all told; the 4.05M cells of a
# 50k-position ruler lifted by 80 ranks fit
MAX_RUN_CELLS = 1 << 23


class RankedPattern:
    """A pattern (sequence of variable occurrences) plus a ranking.

    ``ranks`` must cover exactly the variables that occur.  Ranks do not
    need to be contiguous; missing levels just insert no new variables.
    """

    __slots__ = ("symbols", "ranks")

    def __init__(self, symbols, ranks):
        symbols, ranks = tuple(symbols), dict(ranks)
        if not symbols:
            raise ValueError("pattern must have at least one symbol")
        if ranks.keys() != set(symbols):
            raise ValueError("ranks must cover exactly the occurring variables")
        if set(map(type, ranks.values())) != {int} or min(ranks.values()) < 1:
            for var, rank in ranks.items():
                if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
                    raise ValueError(f"rank of {var!r} must be a positive integer")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "ranks", ranks)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RankedPattern is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols == other.symbols and self.ranks == other.ranks

    __hash__ = None  # ranks is a dict

    def __repr__(self):
        return f"RankedPattern(symbols={self.symbols!r}, ranks={self.ranks!r})"

    def __len__(self):
        return len(self.symbols)

    @property
    def max_rank(self) -> int:
        return max(self.ranks.values())

    @property
    def rank_sequence(self) -> tuple[int, ...]:
        return tuple(map(self.ranks.__getitem__, self.symbols))

    @property
    def variables(self) -> tuple:
        return tuple(dict.fromkeys(self.symbols))


# kind is "equal-ranks-unseparated" or "max-rank-repeated"
RankingViolation = namedtuple("RankingViolation", "kind positions")
# valuation maps each variable to its code; free_components is l, the
# free bits over all levels
MatchResult = namedtuple("MatchResult", "valuation free_components")


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
    violations = [
        RankingViolation("equal-ranks-unseparated", pair)
        for pair in sorted(_peel(seq)[1], key=itemgetter(1))
    ]
    top = max(seq)
    tops = tuple(pos for pos, rank in enumerate(seq) if rank == top)
    if len(tops) > 1:
        violations.append(RankingViolation("max-rank-repeated", tops))
    return tuple(violations)


def _peel(seq):
    """(steps, pairs) of the rank sequence ``seq``, peeled off the
    projection linked list from the bottom rank up, O(1) per position.

    Steps run top down as (top level, levels spanned, deletion records):
    one per distinct rank, whose records the engine replays in reverse,
    and one more per gap of unforced levels below it.  A pair (p, q) is
    a rank-i position p whose right neighbour q in the projection onto
    ranks >= i has rank i too; two top-rank positions always form one.
    """
    n = len(seq)
    by_rank: dict[int, list[int]] = {}
    for pos, rank in enumerate(seq):
        by_rank.setdefault(rank, []).append(pos)
    prv, nxt = list(range(-1, n - 1)), list(range(1, n + 1))
    steps, pairs, below = [], [], 0
    for level in sorted(by_rank):
        if level - below > 1:
            steps.append((level - 1, level - below - 1, ()))
        steps.append((level, 1, recs := []))
        for pos in by_rank[level]:
            left, right = prv[pos], nxt[pos]
            if right < n:
                if seq[right] == level:
                    pairs.append((pos, right))
                prv[right] = left
            if left >= 0:
                nxt[left] = right
            recs.append((pos, left, right))
        below = level
    steps.reverse()
    return steps, pairs


def _shift(count, old, new):
    """Move one slot of a counted side from neighbour old to new."""
    count[new] += 1
    count[old] -= 1
    if not count[old]:
        del count[old]


def _run(pattern: RankedPattern, shortest: bool = False, collect=None, codes: bool = True):
    """Descend the distinct ranks, maintaining compressed values.

    Returns None when the ranking breaks a condition, which a count of
    the top rank or a pair of _peel finds before any level is walked, or
    when a level system clashes, which some rankings that break neither
    condition also do.  Else returns (l, steps, spelled).  Without
    ``codes`` (a count) no flag is kept and spelled is None; else it is
    (names, ranks, runs, cells): runs[2v] and runs[2v + 1] list the
    letter runs of the end and start side of the v-th variable of names
    in the order they closed (None for no run), and cells is the exact
    number of letters of all codes (spelled by _spell).  Variables are
    interned in the order they enter, by rank and then last occurrence,
    both descending, so the active ones are always a prefix.

    The junction components live across levels, a label per vertex
    naming its component.  Each side keeps one neighbour slot per
    occurrence of its variable (for an end side the start side just
    after it, for a start side the end side just before it, else the
    sentinel vertex size), so re-inserting a position writes four slots
    and a pair's multiplicity is the number of slots that hold it.  A
    level's insertions drop the pair (end[lft], start[rgt]) and add
    pairs that each hold a new vertex and end[lft] or start[rgt], so
    only the components holding such an old vertex change.  They are
    rebuilt by a search from the new vertices, which reaches every piece:
    each holds a touched vertex, now paired with a new one.  A vertex is
    unplaced while its label is at most base, the last label before the
    step, so no pass resets labels.  A side with more than 8 slots is
    heavy.  On a level of few insertions, at most an eighth of the slots
    of the heavy sides that entered before, the search reads each of
    those through a Counter of its slots, kept up to date slot by slot
    until a level of many insertions, so a rebuild costs the distinct
    pairs of the component.  On other levels it reads slots, which the
    many insertions pay for.  A side's flag is read off its component:
    when pinned, the pin on end sides and its negation on start sides;
    else True on the start sides of a component of two or more sides (a
    start side has a partner iff its variable has a left neighbour) and
    False on the rest.  So flags are recomputed only for rebuilt
    components and for components pinned at the previous step.  The pins
    of a step are on new vertices, which are rebuilt, or with
    ``shortest`` on the head's component, which was pinned at the
    previous step too unless it was rebuilt.

    Each flag that turns True opens a run of letters at that step's top
    level; when it turns False, or at the end (level 1), the run closes
    as one range and its letters are counted.  The levels strictly
    between a rank and the next lower one (or 0) form a gap: they keep
    that rank's projection and force nothing, so the gap is one unforced
    step that adds gap * components to l and whose True flags cover all
    its levels.  The work grows with the distinct ranks and the
    components that change, not with the ranks' values.

    With ``collect`` (an enumeration limit), steps keeps one (level,
    sorted sides of a free component) per free bit while 2**l stays
    within the limit: levels top down, each gap level on its own, and a
    level's free components in order of their smallest vertex; else
    steps is None.
    """
    seq = pattern.rank_sequence
    if seq.count(max(seq)) > 1:
        return None  # max-rank-repeated, found at C speed
    peeled, pairs = _peel(seq)
    if pairs:
        return None  # equal-ranks-unseparated
    symbols = pattern.symbols
    ranks = pattern.ranks
    n = len(symbols)
    ids: dict = {}  # by rank, then last occurrence, both descending
    # each position's variable and index among that variable's occurrences
    vid, idx, occ = [0] * n, [0] * n, [0] * n
    for _, _, recs in peeled:
        for pos, _, _ in reversed(recs):
            v = vid[pos] = ids.setdefault(symbols[pos], len(ids))
            idx[pos] = occ[v]
            occ[v] += 1
    names = list(ids)
    del occ[len(names) :]
    end = [2 * v for v in vid]
    start = [e + 1 for e in end]
    size = 2 * len(names)

    # per side, one neighbour slot per occurrence; the sentinel size has none
    nb = list(map([size].__mul__, chain.from_iterable(zip(occ, occ))))
    nb.append(())
    srch = nb[:]  # what a search reads: a side's slots, or a heavy side's Counter
    # the variables with heavy sides, the slots of a side of each before it
    heavy = [v for v in range(len(names)) if occ[v] > 8] if max(occ) > 8 else ()
    heavy_slots = list(accumulate(map(occ.__getitem__, heavy), initial=0)) if heavy else ()
    counted = 0  # the heavy variables whose sides srch counts
    # component label, -1 until the vertex enters; no base reaches the sentinel's
    comp = [-1] * size + [float("inf")]
    members: dict[int, tuple] = {}  # label -> vertices
    pins: dict = {}  # label -> flag of the component's end sides, this step
    opened = [0] * size  # top level of the step where a side's run opened, 0 while off
    runs: list = [None] * size  # each side's closed runs
    cells = len(names)  # the peaks
    entering = Counter(ranks.values())  # level -> variables of that rank
    head = -1
    label = active = total_free = 0
    steps = [] if collect is not None else None

    for top, weight, recs in peeled:
        above, base = active, label  # a vertex labelled at most base is unplaced
        active += entering[top]
        if heavy and heavy[0] < above and recs:  # heavy sides entered before
            old = bisect_left(heavy, above)
            if 8 * len(recs) > heavy_slots[old]:  # many insertions: read slots
                for v in heavy[:counted]:
                    srch[2 * v], srch[2 * v + 1] = nb[2 * v], nb[2 * v + 1]
                counted = 0
            else:  # few: count the heavy sides, move the counts of rewritten slots
                for v in heavy[counted:old]:
                    srch[2 * v], srch[2 * v + 1] = Counter(nb[2 * v]), Counter(nb[2 * v + 1])
                counted = old
                for pos, lft, rgt in reversed(recs):
                    a = end[lft] if lft >= 0 else size
                    b = start[rgt] if rgt < n else size
                    if srch[a] is not nb[a]:
                        _shift(srch[a], b, start[pos])
                    if srch[b] is not nb[b]:
                        _shift(srch[b], a, end[pos])
        for pos, lft, rgt in reversed(recs):
            k = idx[pos]
            if lft >= 0:
                a = end[lft]
                nb[a][idx[lft]] = b = start[pos]
                nb[b][k] = a
                members.pop(comp[a], None)
            else:
                head = pos
            if rgt < n:
                b = start[rgt]
                nb[b][idx[rgt]] = a = end[pos]
                nb[a][k] = b
                members.pop(comp[b], None)

        for u in range(2 * above, 2 * active):  # the new sides reach every piece
            if comp[u] <= base:
                label += 1
                comp[u] = label
                group = [u]
                for x in group:
                    for y in srch[x]:
                        if comp[y] <= base:
                            comp[y] = label
                            group.append(y)
                members[label] = tuple(group)  # of ints only: the collector untracks it
        rebuilt = range(base + 1, label + 1)  # labels above base, so none is in prev

        prev, pins = pins, {}
        for v in range(above, active):
            if not pins.setdefault(comp[2 * v], True) or pins.setdefault(comp[2 * v + 1], False):
                return None
        free = len(members) - len(pins)
        if steps is not None and free:
            # the entering variables are pinned, so free sides are old ones
            groups = sorted(sorted(group) for lab, group in members.items() if lab not in pins)
            for lvl in range(top, top - weight, -1):
                steps += ((lvl, group) for group in groups)
                if _exceeds(len(steps), collect):
                    steps = None  # over the limit: stop keeping components
                    break
        total_free += weight * free
        if not codes:
            continue
        if shortest:
            # the tail's last flag is already False wherever it is free
            pins.setdefault(comp[start[head]], True)

        # the variables entering at this step emit no flags yet
        emitting = 2 * above
        for lab in chain(rebuilt, prev):
            group = members.get(lab)
            if group is None:
                continue  # dissolved: its vertices are in rebuilt components
            bit = pins.get(lab, len(group) == 1 and group[0] & 1)  # the end sides' flag
            for u in group:
                if u >= emitting:
                    continue
                now = bit != (u & 1)
                if now == (opened[u] > 0):
                    continue
                if now:
                    opened[u] = top
                    continue
                # letters opened[u] down to top + 1, ascending on a start side
                cells += opened[u] - top
                run = range(top + 1, opened[u] + 1) if u & 1 else range(opened[u], top, -1)
                runs[u] = [run] if runs[u] is None else runs[u] + [run]
                opened[u] = 0

    if not codes:
        return total_free, steps, None
    for u in range(size):
        if opened[u]:  # the run reaches letter 1
            cells += opened[u]
            run = range(1, opened[u] + 1) if u & 1 else range(opened[u], 0, -1)
            runs[u] = [run] if runs[u] is None else runs[u] + [run]
    return total_free, steps, (names, ranks, runs, cells)


def _spell(run):
    """The valuation of a _run result, each code letter by letter.  Raises
    SizeLimitError when the codes would hold more than MAX_RUN_CELLS cells.

    A start side's runs closed top down, so they are spelled in reverse;
    an end side's follow the peak in the order they closed."""
    names, ranks, runs, cells = run[2]
    if cells > MAX_RUN_CELLS:
        raise SizeLimitError(f"codes would hold {cells} cells, cap is {MAX_RUN_CELLS}")
    out = {}
    for v, var in enumerate(names):
        after, before = runs[2 * v], runs[2 * v + 1]
        if after is None and (before is None or len(before) == 1):  # the common codes
            out[var] = (ranks[var],) if before is None else (*before[0], ranks[var])
        else:
            tail = chain.from_iterable(after or ())
            out[var] = (*chain.from_iterable(reversed(before or ())), ranks[var], *tail)
    return out


def _exceeds(l: int, limit: int) -> bool:
    """2**l > limit, without building 2**l."""
    return l >= limit.bit_length()


def compressed_embedding(pattern: RankedPattern):
    """Canonical match, or None when the ranking admits none."""
    out = _run(pattern)
    return None if out is None else MatchResult(_spell(out), out[0])


def shortest_instance(pattern: RankedPattern):
    """Match whose instance is shortest possible.

    Junction letters are fixed by the systems; only the flags at the two
    projection ends are genuinely optional, and turning them off level
    by level is globally optimal.
    """
    out = _run(pattern, shortest=True)
    return None if out is None else MatchResult(_spell(out), out[0])


def count_instances(pattern: RankedPattern) -> int:
    """Exact number of distinct matches (2**l), 0 when there is none.

    Raises SizeLimitError when l exceeds MAX_EXPONENT.  The walk keeps
    no flag and builds no code, so MAX_RUN_CELLS does not apply."""
    out = _run(pattern, codes=False)
    return 0 if out is None else power_of_two(out[0])


def enumerate_instances(pattern: RankedPattern, limit: int = DEFAULT_ENUM_LIMIT):
    """All matches, canonical one first.

    The per-level systems do not depend on the bits chosen, so matches
    are exactly the 2**l combinations of the free component bits, all
    distinct.  Setting the bit of a free component of level i flips the
    letter i on every side of that component: a start side's letters
    precede the code's peak, an end side's follow it.  Bit vectors come
    in product order over the components _run collects.  Raises
    EnumerationLimitError (carrying l) instead of materializing more
    than ``limit`` results, and ValueError on a negative limit.

    A variable's code depends only on the bits of the components that
    hold its sides, so each variable keeps a table from its own bits to
    its code.  From one bit vector to the next only the trailing bits
    change, and only the codes of the variables they touch are looked
    up again: after the first match, each costs O(variables).
    """
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    run = _run(pattern, collect=limit)
    if run is None:
        return []
    total_free, steps = run[0], run[1]
    if _exceeds(total_free, limit):
        raise EnumerationLimitError(total_free, limit)
    canonical = _spell(run)
    names, codes = list(canonical), list(canonical.values())
    flips = []  # per bit, (variable, its bit in the variable's key)
    touches: list = [[] for _ in names]  # per variable and bit of its key, (level, sides)
    for level, group in steps:
        sides: dict = {}
        for u in group:
            sides.setdefault(u >> 1, []).append(u & 1)
        flips.append([(v, 1 << len(touches[v])) for v in sides])
        for v, on in sides.items():
            touches[v].append((level, on))
    tables = [{0: code} for code in codes]
    keys = [0] * len(names)
    out = [canonical]
    for o in range(1, 1 << total_free):
        for j in range(total_free - (o & -o).bit_length(), total_free):
            for v, bit in flips[j]:
                key = keys[v] = keys[v] ^ bit
                code = tables[v].get(key)
                if code is None:
                    code = tables[v][key] = _flipped(tables[v][0], touches[v], key)
                codes[v] = code
        out.append(dict(zip(names, codes)))
    return out


def _flipped(code, touches, key):
    """code with the letter of each touch whose bit is set in key flipped
    on the sides it touches."""
    peak = code.index(max(code))
    letters = [set(code[peak + 1 :]), set(code[:peak])]  # end side, start side
    for i, (level, sides) in enumerate(touches):
        if key >> i & 1:
            for side in sides:
                letters[side] ^= {level}
    return (*sorted(letters[1]), code[peak], *sorted(letters[0], reverse=True))


def instance_length(pattern: RankedPattern, valuation) -> int:
    """Length of the matched Zimin factor, as an exact integer.

    Raises SizeLimitError when a code's gap exponent exceeds
    MAX_EXPONENT (see decompressed_length)."""
    return sum(
        decompressed_length(valuation[var]) * times
        for var, times in Counter(pattern.symbols).items()
    )

