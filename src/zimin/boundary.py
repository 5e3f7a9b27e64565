"""Junction systems: the one module that knows how they are stored.

When a valuation is refined from one letter level to the next, each
variable x needs two booleans: does val(x) start with the new letter,
does it end with it.  Every adjacent occurrence pair x y in the pattern
demands exactly one new letter at the junction, i.e. last(x) != first(y).

Those inequations live on a graph whose vertices are (variable, side)
and whose edges join an end side to a start side, so the graph is
bipartite and conflicts can only come from forced variables.  Each
connected component carries a single free bit.  The graph is kept in
one form: ``_clash_table`` lists its components as pairs of variable
masks.  The deciders read it directly; ``AdjacencyGraph`` wraps it with
the names' bits for ``avoidability.check_free_set`` and solves one level
system for its flags for ``oracle.uncompressed_embedding``.  The
matching engine uses neither: it keeps its components across levels and
rebuilds only those a level's insertions touch (see ``matching._run``).
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
    """Clash table of a name-level pattern, with each name's bit.

    A class only so that its build and its solve can be timed apart;
    the deciders call ``_clash_table`` directly."""

    def __init__(self, pattern):
        pattern = tuple(pattern)  # read twice: names, then the table
        self.bit = {v: 1 << i for i, v in enumerate(dict.fromkeys(pattern))}
        self.table = _clash_table(list(map(self.bit.__getitem__, pattern)))

    def flags_with(self, forced):
        """Each variable's (first, last) with the ``forced`` ones pinned
        True, or None on a clash.  A component whose ends meet the forced
        mask has its end sides True, any other its start sides True."""
        bit = self.bit
        mask = sum({bit[v] for v in forced})
        first = last = mask
        for ends, starts in self.table:
            if ends & mask:
                if starts & mask:
                    return None
                last |= ends
            else:
                first |= starts
        return {v: (bool(first & b), bool(last & b)) for v, b in bit.items()}
