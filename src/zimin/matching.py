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
components are rebuilt, and only they and the components pinned at the
step before can change flags.  A flag that stays on adds its letter at
every level, so it is kept as one run of letters, written once when it
turns off.  Levels between two distinct ranks repeat one unforced
system, so they are taken in one step, and the cost grows with the
distinct ranks and the components that change, not with the ranks'
numeric values.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from itertools import chain, product

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
        if set(ranks) != set(symbols):
            raise ValueError("ranks must cover exactly the occurring variables")
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
        return tuple(self.ranks[s] for s in self.symbols)

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


def _steps(events):
    """The engine's steps, top down, as (top level, levels spanned,
    insertion records): each distinct rank is one step, and the gap of
    unforced levels below it, if there is one, is one more."""
    levels = sorted(events, reverse=True)
    for level, below in zip(levels, levels[1:] + [0]):
        yield level, 1, events[level]
        if level - below > 1:
            yield level - 1, level - below - 1, ()


def _run(pattern: RankedPattern, shortest: bool = False, collect=None):
    """Descend the distinct ranks, maintaining compressed values.

    Returns (runs, l, steps) or None when a level system clashes: runs
    maps each variable to its code as a deque of letter runs in code
    order (spelled by _spell).
    Every ranking that violates a condition clashes, and so do some that
    violate none (see validate_ranking).  Variables are interned in the
    order they enter, by rank and then last occurrence, both descending,
    so the active ones are always a prefix.

    The junction components live across levels: a dict per vertex maps
    each neighbour to its pair multiplicity, and a label per vertex names
    its component.  A level inserts occurrences of its entering variables
    only, so its insertions drop the pair (end[lft], start[rgt]) and add
    pairs that each hold a new vertex and end[lft] or start[rgt].  So
    only the components holding a touched old vertex (end[lft],
    start[rgt]) can change: they are dissolved and rebuilt,
    together with the new variables' vertices, by a search over the live
    pairs.  A side's flag is the pin of its component when pinned, else
    False for an end side and left[v] for a start side; left[v] changes
    only when the start side of v is touched.  So flags are recomputed
    only for rebuilt components and for components pinned at the
    previous step.  The pins of a step are on new vertices, which are
    rebuilt, or with ``shortest`` on the head's component, which was
    pinned at the previous step too unless it was rebuilt.

    Each flag that turns True opens a run of letters at that step's top
    level; when it turns False, or at the end (level 1), it enters the
    code as one range.  The levels strictly between a rank and the next
    lower one (or 0) form a gap: they keep that rank's projection and
    force nothing, so the gap is one unforced step that adds gap *
    components to l and whose True flags cover all its levels.  The work
    grows with the distinct ranks and the components that change, not
    with the ranks' values.

    With ``collect`` (an enumeration limit), steps keeps one (level,
    sorted sides of a free component) per free bit while 2**l stays
    within the limit: levels top down, each gap level on its own, and a
    level's free components in order of their smallest vertex; else
    steps is None.
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
    size = 2 * len(names)

    adj = [{} for _ in range(size)]  # vertex -> {neighbour: pair multiplicity}
    comp = [-1] * size  # component label, -1 until the vertex enters
    members: dict[int, list] = {}  # label -> vertices
    pins: dict = {}  # label -> flag of the component's end sides, this step
    flag = [False] * size  # each side's flag at the last step
    opened = [0] * size  # top level of the step where a True flag's run opened
    # has a left neighbour; positions only enter, so a flag never clears
    left = [False] * len(names)
    entering = Counter(ranks.values())  # level -> variables of that rank
    vals: list = []
    head = -1
    label = active = components = total_free = 0
    steps = [] if collect is not None else None

    for top, weight, recs in _steps(events):
        touched = set()  # labels of the components of touched vertices
        for pos, lft, rgt in reversed(recs):
            if lft >= 0:
                a, b = end[lft], start[pos]
                if rgt < n:
                    c = start[rgt]
                    cnt = adj[a][c] - 1
                    if cnt:
                        adj[a][c] = adj[c][a] = cnt
                    else:
                        del adj[a][c], adj[c][a]
                adj[a][b] = adj[b][a] = adj[a].get(b, 0) + 1
                left[vid[pos]] = True
                touched.add(comp[a])
            else:
                head = pos
            if rgt < n:
                a, b = end[pos], start[rgt]
                adj[a][b] = adj[b][a] = adj[a].get(b, 0) + 1
                left[vid[rgt]] = True
                touched.add(comp[b])

        above = active
        active += entering[top]
        vals.extend(deque(((top,),)) for _ in range(above, active))
        touched.discard(-1)  # the touched side is a new vertex
        fresh = list(range(2 * above, 2 * active))
        for lab in touched:
            fresh += members.pop(lab)
        for u in fresh:
            comp[u] = -1
        rebuilt = set()
        for u in fresh:
            if comp[u] < 0:
                label += 1
                comp[u] = label
                group = [u]
                for x in group:
                    for y in adj[x]:
                        if comp[y] < 0:
                            comp[y] = label
                            group.append(y)
                members[label] = group
                rebuilt.add(label)
        components += len(rebuilt) - len(touched)

        prev, pins = pins, {}
        for v in range(above, active):
            if not pins.setdefault(comp[2 * v], True) or pins.setdefault(comp[2 * v + 1], False):
                return None
        free = components - len(pins)
        if steps is not None and free:
            # the entering variables are pinned, so free sides are old ones
            groups = sorted(sorted(group) for lab, group in members.items() if lab not in pins)
            for lvl in range(top, top - weight, -1):
                steps += ((lvl, group) for group in groups)
                if _exceeds(len(steps), collect):
                    steps = None  # over the limit: stop keeping components
                    break
        total_free += weight * free
        if shortest:
            # the tail's last flag is already False wherever it is free
            pins.setdefault(comp[start[head]], True)

        # the variables entering at this step emit no flags yet
        emitting = 2 * above
        for lab in rebuilt.union(prev):
            group = members.get(lab)
            if group is None:
                continue  # dissolved: its vertices are in rebuilt components
            bit = pins.get(lab)
            for u in group:
                if u >= emitting:
                    continue
                if bit is not None:
                    now = bit != (u & 1)
                else:
                    now = left[u >> 1] if u & 1 else False
                if now == flag[u]:
                    continue
                flag[u] = now
                if now:
                    opened[u] = top
                else:
                    _add_run(vals[u >> 1], u, opened[u], top)

    for u in range(size):
        if flag[u]:
            _add_run(vals[u >> 1], u, opened[u], 0)
    return dict(zip(names, vals)), total_free, steps


def _add_run(code, side, opened, closed):
    """Letters opened down to closed + 1 as one range, at the front of
    code for a start side and at its back for an end side."""
    if side & 1:
        code.appendleft(range(closed + 1, opened + 1))
    else:
        code.append(range(opened, closed, -1))


def _spell(run):
    """The valuation of a _run result, each code letter by letter.  Raises
    SizeLimitError when the codes would hold more than MAX_RUN_CELLS cells."""
    runs = run[0]
    try:
        cells = sum(map(len, chain.from_iterable(runs.values())))
    except OverflowError:  # a range of more than sys.maxsize letters
        cells = sum(abs(r[-1] - r[0]) + 1 for r in chain.from_iterable(runs.values()))
    if cells > MAX_RUN_CELLS:
        raise SizeLimitError(f"codes would hold {cells} cells, cap is {MAX_RUN_CELLS}")
    return {var: tuple(chain.from_iterable(code)) for var, code in runs.items()}


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
    return None if out is None else MatchResult(_spell(out), out[1])


def shortest_instance(pattern: RankedPattern, *, validate: bool = True):
    """Match whose instance is shortest possible.

    Junction letters are fixed by the systems; only the flags at the two
    projection ends are genuinely optional, and turning them off level
    by level is globally optimal.
    """
    if validate and validate_ranking(pattern):
        return None
    out = _run(pattern, shortest=True)
    return None if out is None else MatchResult(_spell(out), out[1])


def count_instances(pattern: RankedPattern) -> int:
    """Exact number of distinct matches (2**l), 0 when there is none.

    Raises SizeLimitError when l exceeds MAX_EXPONENT; the codes are
    never spelled, so MAX_RUN_CELLS does not apply."""
    if validate_ranking(pattern):
        return 0
    out = _run(pattern)
    return 0 if out is None else power_of_two(out[1])


def enumerate_instances(pattern: RankedPattern, limit: int = DEFAULT_ENUM_LIMIT):
    """All matches, canonical one first.

    The per-level systems do not depend on the bits chosen, so matches
    are exactly the 2**l combinations of the free component bits, all
    distinct.  Setting the bit of a free component of level i flips the
    letter i on every side of that component: a start side's letters
    precede the code's peak, an end side's follow it.  Bit vectors come
    in product order over the components _run collects.  Raises
    EnumerationLimitError (carrying l) instead of materializing more
    than ``limit`` results.
    """
    if validate_ranking(pattern):
        return []
    run = _run(pattern, collect=limit)
    if run is None:
        return []
    total_free, steps = run[1], run[2]
    if _exceeds(total_free, limit):
        raise EnumerationLimitError(total_free, limit)
    canonical = _spell(run)

    sides = []  # the canonical letter sets, end side 2v and start side 2v + 1
    for code in canonical.values():
        peak = code.index(max(code))
        sides += (set(code[peak + 1 :]), set(code[:peak]))
    ranks = pattern.ranks
    out = []
    for bits in product((False, True), repeat=total_free):
        letters = sides.copy()
        for (level, group), bit in zip(steps, bits):
            if bit:
                for u in group:
                    letters[u] = letters[u] ^ {level}
        out.append({
            var: (*sorted(letters[2 * v + 1]), ranks[var], *sorted(letters[2 * v], reverse=True))
            for v, var in enumerate(canonical)
        })
    return out


def instance_length(pattern: RankedPattern, valuation) -> int:
    """Length of the matched Zimin factor, as an exact integer.

    Raises SizeLimitError when a code's gap exponent exceeds
    MAX_EXPONENT (see decompressed_length)."""
    return sum(
        decompressed_length(valuation[var]) * times
        for var, times in Counter(pattern.symbols).items()
    )


def min_instance_length(pattern: RankedPattern):
    res = shortest_instance(pattern)
    return None if res is None else instance_length(pattern, res.valuation)
