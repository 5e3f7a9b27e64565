"""Junction systems: the one module that knows how they are stored.

When a valuation is refined from one letter level to the next, each
variable x needs two booleans: does val(x) start with the new letter,
does it end with it.  Every adjacent occurrence pair x y in the pattern
demands exactly one new letter at the junction, i.e. last(x) != first(y).

Those inequations live on a graph whose vertices are (variable, side)
and whose edges join an end side to a start side, so the graph is
bipartite and conflicts can only come from forced variables.  Each
connected component carries a single free bit.  The graph is kept in
two forms.  ``_clash_table`` lists its components as pairs of variable
masks, which is all the deciders and ``avoidability.check_free_set``
read.  ``AdjacencyGraph`` solves one level system for its flags, which
only ``oracle.uncompressed_embedding`` asks for.  The matching engine
uses neither: it keeps its components across levels and rebuilds only
those a level's insertions touch (see ``matching._run``).
"""

from __future__ import annotations


def _clash_table(masks) -> list:
    """Clash table of a pattern given as one variable bit per symbol.

    The junction graph joins x's end side to y's start side for every
    adjacent pair x y.  Each component with an edge becomes a pair
    (ends, starts) of the variables whose end sides and whose start
    sides it holds.  Forcing a set F clashes iff some pair meets F in
    both masks."""
    before: dict = {}  # start side's bit -> bits of the variables just before it
    for x, y in zip(masks, masks[1:]):
        before[y] = before.get(y, 0) | x
    table: list = []
    for starts, ends in before.items():
        kept = []
        for e, s in table:
            if e & ends:
                ends |= e
                starts |= s
            else:
                kept.append((e, s))
        kept.append((ends, starts))
        table = kept
    return table


class AdjacencyGraph:
    """Junction system of one level over integer vertices.

    Variables are 0..size-1; vertex 2v is the end side of v and 2v+1 its
    start side, and each pair (2x, 2y+1) joins an end to a start.  A
    union-find with path halving leaves every vertex holding its root,
    the smallest vertex of its component.  Pins are kept per root as the
    flag of the component's end sides; start sides hold the complement.
    ``left[v]`` is true when v has a left neighbour, that is when the
    start side of v is in some pair.
    """

    def __init__(self, size, pairs):
        parent = list(range(2 * size))
        left = [False] * size
        for a, b in pairs:
            left[b >> 1] = True
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            else:  # a no-op when a == b
                parent[a] = b
        # no parent exceeds its child, so one pass in vertex order leaves
        # every vertex holding its root
        for u in range(2 * size):
            parent[u] = parent[parent[u]]
        self.root = parent
        self.left = left
        self.pins: dict = {}  # root -> flag of the component's end sides

    def force(self, variables) -> bool:
        """Pin both flags of each variable True (its end sides' bit True,
        its start sides' bit False); False on a clash."""
        root, pins = self.root, self.pins
        for v in variables:
            if not pins.setdefault(root[2 * v], True) or pins.setdefault(root[2 * v + 1], False):
                return False
        return True

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

    @classmethod
    def _level_flags(cls, pattern, forced):
        """Canonical flags of a name-level pattern's junction system with
        the ``forced`` variables pinned: each variable's (first, last),
        free components taking their end sides False; None on a clash."""
        names = tuple(dict.fromkeys(pattern))
        ids = dict(zip(names, range(len(names))))
        vid = list(map(ids.__getitem__, pattern))
        graph = cls(len(names), {(2 * x, 2 * y + 1) for x, y in zip(vid, vid[1:])})
        if not graph.force(map(ids.__getitem__, forced)):
            return None
        firsts, lasts = graph.flags_with(len(names))
        return {var: (bool(first), bool(last)) for var, first, last in zip(names, firsts, lasts)}
