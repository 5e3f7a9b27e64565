"""Boundary flags for pattern junctions.

When a valuation is refined from one letter level to the next, each
variable x needs two booleans: does val(x) start with the new letter,
does it end with it.  Every adjacent occurrence pair x y in the pattern
demands exactly one new letter at the junction, i.e. last(x) != first(y).

Those inequations live on a graph whose vertices are (variable, side)
and whose edges join an end side to a start side, so the graph is
bipartite and conflicts can only come from forced variables.  Each
connected component carries a single free bit.  ``AdjacencyGraph``
solves one such system; ``avoidability.check_free_set`` and the
name-level helpers below use it.  The deciders' searches only ask
whether a forced set clashes, which they read off per-projection clash
tables (see ``avoidability``).  The matching engine builds no
AdjacencyGraph at all: it keeps its components across levels and
rebuilds only those a level's insertions touch, and enumerates from
those components (see ``matching._run``).
"""

from __future__ import annotations


class AdjacencyGraph:
    """Junction system of one level over integer vertices.

    Variables are 0..size-1; vertex 2v is the end side of v and 2v+1 its
    start side, and each pair (2x, 2y+1) joins an end to a start.  A
    union-find with path halving, whose roots are the smallest vertex of
    their component, counts merges: there are 2*size - merges components.
    Pins are kept per root as the flag of the component's end sides;
    start sides hold the complement.  ``left[v]`` is true when v has a
    left neighbour, that is when the start side of v is in some pair.
    """

    def __init__(self, size, pairs):
        parent = list(range(2 * size))
        left = [False] * size
        merges = 0
        for a, b in pairs:
            left[b >> 1] = True
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                merges += 1
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
        # no parent exceeds its child, so one pass in vertex order leaves
        # every vertex holding its root
        for u in range(2 * size):
            parent[u] = parent[parent[u]]
        self.root = parent
        self.left = left
        self.pins: dict = {}  # root -> flag of the component's end sides
        self.components = 2 * size - merges

    @property
    def free(self) -> int:
        return self.components - len(self.pins)

    def pin(self, u, flag: bool) -> bool:
        """Pin the flag of vertex u; False when an earlier pin clashes."""
        bit = flag != (u & 1)
        return self.pins.setdefault(self.root[u], bit) == bit

    def force(self, variables):
        """Pin both flags of each variable True (its end sides' bit True,
        its start sides' bit False): the free component count, or None
        on a clash."""
        root, pins = self.root, self.pins
        for v in variables:
            if not pins.setdefault(root[2 * v], True) or pins.setdefault(root[2 * v + 1], False):
                return None
        return self.free

    def flags_with(self, size):
        """First flags and last flags of variables 0..size-1, as two lists
        of truth values.  A free component has its end sides False, and
        its start sides True when it has an end side, else False."""
        left = self.left
        bits = self.pins
        if not bits:
            return left[:size], [False] * size
        start_flags = {root: not bit for root, bit in bits.items()}
        # a free start side is True exactly when it has a left neighbour
        firsts = list(map(start_flags.get, self.root[1 : 2 * size : 2], left))
        return firsts, list(map(bits.get, self.root[: 2 * size : 2]))


def _solve(pattern, forced=(), shortest=False):
    """Variables of a name-level pattern and its junction graph with the
    forced variables pinned (and with shortest, the pattern's first and
    last flag pinned off where free); None on a clash.  Raises
    ValueError when a forced variable does not occur in the pattern."""
    names = tuple(dict.fromkeys(pattern))
    ids = dict(zip(names, range(len(names))))
    for var in forced:
        if var not in ids:
            raise ValueError(f"forced variable {var!r} does not occur in the pattern")
    vid = list(map(ids.__getitem__, pattern))
    pairs = {(2 * x, 2 * y + 1) for x, y in zip(vid, vid[1:])}
    graph = AdjacencyGraph(len(names), pairs)
    if graph.force(map(ids.__getitem__, forced)) is None:
        return None
    if shortest and pattern:
        graph.pin(2 * ids[pattern[0]] + 1, False)
        graph.pin(2 * ids[pattern[-1]], False)
    return names, graph


def _flags(solved):
    if solved is None:
        return None
    names, graph = solved
    firsts, lasts = graph.flags_with(len(names))
    return {var: (bool(first), bool(last)) for var, first, last in zip(names, firsts, lasts)}


def first_last(pattern, forced=()):
    """Canonical solution of the junction system, or None when the forced
    variables clash.  Free components take anchor False."""
    return _flags(_solve(pattern, forced))


def shortest_first_last(pattern, forced=()):
    """Like first_last, but spends the slack at the two pattern ends on
    suppressing boundary letters, which minimizes the matched length."""
    return _flags(_solve(pattern, forced, True))


def count_free_components(pattern, forced=(), boundary_minimize: bool = False):
    """Number of free bits left after forcing; None on a clash.

    With boundary_minimize the two pattern-end flags are pinned first,
    matching what shortest_first_last does.
    """
    solved = _solve(pattern, forced, boundary_minimize)
    return None if solved is None else solved[1].free
