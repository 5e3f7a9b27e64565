"""Deciding whether a pattern is unavoidable.

Two deciders over one clash table (see ``boundary``).  Deleting a free
set F and placing a layer L under the placed set P both ask one
question of a projection: forcing F (or L) pins every end side True and
every start side False, so it clashes iff some component of the
projection's junction graph holds the end side of a member and the
start side of a member.  The table of a shown set S lists each such
component as an (ends, starts) pair of variable masks, so a test is a
few mask ANDs, and each decider builds it once per S it reaches;
``check_free_set`` reads its witness off the same table.  The reduction
method deletes free variable sets until the pattern vanishes,
remembering dead patterns up to renaming; the ranking method searches,
layer by layer from the top rank down, for a ranking admitting a
match, remembering dead sets of placed variables.  Both characterize
the same class, so they must always agree, which the test suite
exploits.

Variable counts are capped: both searches are exponential in the number
of distinct variables by nature.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import combinations

from .boundary import _clash_table
from .errors import SizeLimitError
from .matching import MatchResult, RankedPattern, compressed_embedding

MAX_VARIABLES = 8


class Verdict(Enum):
    UNAVOIDABLE = "unavoidable"
    AVOIDABLE = "avoidable"
    INCONCLUSIVE = "inconclusive"


# three frozensets: the candidate, and the sets A and B of the definition
FreeSetWitness = namedtuple("FreeSetWitness", "free_set a_set b_set")


def check_free_set(pattern, candidate):
    """Witness that ``candidate`` is a free set of the pattern, or None.

    Freeness asks for sets A, B with x in A iff y in B for every
    adjacent occurrence pair x y, and the candidate inside B minus A.
    With a_x = not last(x) and b_y = first(y) that is the junction
    system with the candidate forced, so the candidate is free iff
    forcing it does not clash.  A and B are then the end and start
    sides in the components that hold a candidate's start side.
    """
    cand = frozenset(candidate)
    if not cand:
        raise ValueError("candidate free set must be nonempty")
    pattern = tuple(pattern)  # read twice: names, then the clash table
    names = tuple(dict.fromkeys(pattern))
    bit = {v: 1 << i for i, v in enumerate(names)}
    for var in cand:
        if var not in bit:
            raise ValueError(f"candidate free set holds {var!r}, which does not occur in the pattern")
    free = sum(map(bit.__getitem__, cand))
    a = b = held = 0
    for ends, starts in _clash_table(list(map(bit.__getitem__, pattern))):
        held |= starts
        if starts & free:
            if ends & free:
                return None
            a |= ends
            b |= starts
    b |= free & ~held  # a candidate's start side in no pair is a component alone
    a_set, b_set = (frozenset(v for v in names if bit[v] & m) for m in (a, b))
    return FreeSetWitness(cand, a_set, b_set)


def delete_variables(pattern, variables) -> tuple:
    """Erase every occurrence of the given variables.

    The reduction step; meaningful when the deleted set is free."""
    drop = frozenset(variables)
    return tuple(s for s in pattern if s not in drop)


# trace is ((pattern, deleted_set), ...) down to the empty pattern, and
# nodes counts the dfs calls
ReductionResult = namedtuple("ReductionResult", "verdict trace nodes", defaults=(0,))


def _canonical(pattern) -> tuple:
    ren: dict = {}
    out = []
    for s in pattern:
        if s not in ren:
            ren[s] = len(ren)
        out.append(ren[s])
    return tuple(out)


def _variables(pattern, search: str) -> tuple:
    """The distinct variables; past MAX_VARIABLES, SizeLimitError naming the search."""
    variables = tuple(dict.fromkeys(pattern))
    if len(variables) > MAX_VARIABLES:
        raise SizeLimitError(
            f"{len(variables)} variables, {search} search is capped at {MAX_VARIABLES}"
        )
    return variables


def is_unavoidable_by_reduction(pattern, max_free_set_size=None) -> ReductionResult:
    """Search for a chain of free deletions emptying the pattern.

    With max_free_set_size the search is truncated and a miss is only
    INCONCLUSIVE; unrestricted (or covering all variables) it is a
    decision procedure.  Each node builds its clash table once;
    candidates are then tested on the table alone.
    """
    if max_free_set_size is not None and max_free_set_size < 1:
        raise ValueError(f"max_free_set_size must be at least 1, got {max_free_set_size}")
    pattern = tuple(pattern)
    variables = _variables(pattern, "reduction")
    if not pattern:
        return ReductionResult(Verdict.UNAVOIDABLE, ())
    complete = max_free_set_size is None or max_free_set_size >= len(variables)
    bit = {v: 1 << i for i, v in enumerate(variables)}

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
        table = _clash_table([bit[s] for s in p])
        pbits = [bit[v] for v in dict.fromkeys(p)]
        bound = len(pbits) if max_free_set_size is None else min(
            max_free_set_size, len(pbits)
        )
        for size in range(1, bound + 1):
            for combo in combinations(pbits, size):
                free = sum(combo)
                if any(e & free and s & free for e, s in table):
                    continue
                deleted = frozenset(v for v, b in bit.items() if b & free)
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


# ranking and match are None unless the verdict is UNAVOIDABLE, and
# nodes counts the layer systems tested
RankingResult = namedtuple("RankingResult", "verdict ranking match nodes", defaults=(0,))


def is_unavoidable_by_ranking(pattern) -> RankingResult:
    """Search rank layers top down for a ranking that admits a match.

    A ranking onto {1..m} is a sequence of layers, the variables of rank
    m, m-1, ..., 1.  The engine matches it iff no level system clashes,
    and the level-i system (the projection onto ranks >= i with the
    rank-i variables forced) depends only on the set P of variables
    ranked above i and on the layer of rank i.  So the search runs over
    placed sets P, from none to all, and remembers every P from which no
    layering succeeds: one test per P and nonempty layer of the rest,
    at most 3**k - 2**k in all, each on the clash table of P | layer,
    which is built once for each of the at most 2**k sets shown.  A
    pattern is unavoidable iff some ranking matches, so a miss decides.
    """
    pattern = tuple(pattern)
    variables = _variables(pattern, "ranking")
    if not pattern:
        return RankingResult(Verdict.UNAVOIDABLE, {}, MatchResult({}, 0))
    k = len(variables)

    bit = {v: 1 << i for i, v in enumerate(variables)}
    masks = [bit[s] for s in pattern]
    everything = (1 << k) - 1
    dead: set[int] = set()
    tables: dict[int, list] = {}  # shown set -> its projection's clash table
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
            table = tables.get(shown)
            if table is None:
                table = tables[shown] = _clash_table([m for m in masks if m & shown])
            if not any(e & layer and s & layer for e, s in table):
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
