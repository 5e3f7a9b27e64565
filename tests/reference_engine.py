"""The level engine as it was before the union-find solver, kept verbatim
as the reference for differential tests: the BFS junction graph over
(variable, side) vertices, ``_run`` rebuilding it at every level from
max_rank down to 1, gap levels included, from its own per-level
``_peel_events``, and the ``flags_with``-based enumeration.  The new
engine must give the same valuations, l, shortest matches and
enumeration order.

Its name-level helpers (``first_last``, ``shortest_first_last``,
``count_free_components``) are the references for the library's
junction code.  Below them, the 2-SAT solver over an implication graph,
which ``tests/test_boundary.py`` checks those helpers against.

``reference_validate_ranking``, the stack scan of the ranking
conditions, is the reference for ``validate_ranking``.  The enumeration
prechecks with it, so the reference shares no ranking code with the
library.

``make_scaling_pattern`` builds the long matchable patterns of the
scaling tests (acceptance criterion 5), and ``hub`` the hub family,
whose sides hold many slots.  The scaling sweeps of
``tools/bench_rows.py`` import both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from zimin.errors import EnumerationLimitError
from zimin.matching import DEFAULT_ENUM_LIMIT, RankedPattern, RankingViolation

END = "end"
START = "start"

# variable -> (first, last)
BoundaryAssignment = dict


class AdjacencyGraph:
    """Junction graph over (variable, side) vertices.

    Values are stored per component as the bit carried by its end-side
    vertices; start sides hold the complement.  ``valuate`` is
    idempotent and reports clashes instead of raising.
    """

    def __init__(self, variables, pairs):
        self._vars = list(dict.fromkeys(variables))
        self._index = {}
        for i, var in enumerate(self._vars):
            self._index[(var, END)] = 2 * i
            self._index[(var, START)] = 2 * i + 1
        n = 2 * len(self._vars)
        adj: list[list[int]] = [[] for _ in range(n)]
        for x, y in pairs:
            a = self._index[(x, END)]
            b = self._index[(y, START)]
            adj[a].append(b)
            adj[b].append(a)
        self._comp = [-1] * n
        self._has_end: list[bool] = []
        for start in range(n):
            if self._comp[start] >= 0:
                continue
            cid = len(self._has_end)
            self._has_end.append(False)
            queue = [start]
            self._comp[start] = cid
            while queue:
                v = queue.pop()
                if v % 2 == 0:
                    self._has_end[cid] = True
                for u in adj[v]:
                    if self._comp[u] < 0:
                        self._comp[u] = cid
                        queue.append(u)
        # end-side bit per component, None while free
        self._bit: list = [None] * len(self._has_end)

    @property
    def variables(self):
        return tuple(self._vars)

    def component_of(self, vertex) -> int:
        return self._comp[self._index[vertex]]

    def _implied_bit(self, vertex, value: bool) -> bool:
        # start sides store the complement of the component bit
        if self._index[vertex] % 2 == 0:
            return value
        return not value

    def valuate(self, vertex, value: bool) -> bool:
        """Pin a flag; False means it clashes with an earlier decision."""
        cid = self._comp[self._index[vertex]]
        bit = self._implied_bit(vertex, value)
        if self._bit[cid] is None:
            self._bit[cid] = bit
            return True
        return self._bit[cid] == bit

    def value_of(self, vertex):
        cid = self._comp[self._index[vertex]]
        if self._bit[cid] is None:
            return None
        return self._bit[cid] if self._index[vertex] % 2 == 0 else not self._bit[cid]

    def unvalued_components(self) -> tuple:
        return tuple(cid for cid, bit in enumerate(self._bit) if bit is None)

    def set_anchor(self, cid: int, anchor: bool):
        """Anchor is the end-side bit when the component has end vertices,
        otherwise the start-side bit.  False is the canonical choice."""
        self._bit[cid] = anchor if self._has_end[cid] else not anchor

    def flags(self) -> BoundaryAssignment:
        return self.flags_with({})

    def flags_with(self, overrides) -> BoundaryAssignment:
        """Flags under per-component anchor overrides, without mutating
        the stored bits."""
        bits = list(self._bit)
        for cid, anchor in overrides.items():
            bits[cid] = anchor if self._has_end[cid] else not anchor
        out: BoundaryAssignment = {}
        for i, var in enumerate(self._vars):
            end_bit = bits[self._comp[2 * i]]
            start_bit = bits[self._comp[2 * i + 1]]
            if end_bit is None or start_bit is None:
                raise ValueError("component left unvalued")
            out[var] = (not start_bit, end_bit)
        return out


def _graph_for(pattern, forced):
    variables = dict.fromkeys(pattern)
    for var in forced:
        if var not in variables:
            raise ValueError(f"forced variable {var!r} does not occur in the pattern")
    graph = AdjacencyGraph(variables, dict.fromkeys(zip(pattern, pattern[1:])))
    for var in forced:
        if not graph.valuate((var, END), True) or not graph.valuate((var, START), True):
            return None
    return graph


def first_last(pattern, forced=()):
    """Canonical solution of the junction system, or None when the forced
    variables clash.  Free components take anchor False."""
    if not pattern:
        return {}
    graph = _graph_for(pattern, forced)
    if graph is None:
        return None
    for cid in graph.unvalued_components():
        graph.set_anchor(cid, False)
    return graph.flags()


def shortest_first_last(pattern, forced=()):
    """Like first_last, but spends the slack at the two pattern ends on
    suppressing boundary letters, which minimizes the matched length."""
    if not pattern:
        return {}
    graph = _graph_for(pattern, forced)
    if graph is None:
        return None
    if graph.value_of((pattern[0], START)) is None:
        graph.valuate((pattern[0], START), False)
    if graph.value_of((pattern[-1], END)) is None:
        graph.valuate((pattern[-1], END), False)
    for cid in graph.unvalued_components():
        graph.set_anchor(cid, False)
    return graph.flags()


def count_free_components(pattern, forced=(), boundary_minimize: bool = False):
    """Number of free bits left after forcing; None on a clash.

    With boundary_minimize the two pattern-end flags are pinned first,
    matching what shortest_first_last does.
    """
    if not pattern:
        return 0
    graph = _graph_for(pattern, forced)
    if graph is None:
        return None
    if boundary_minimize:
        if graph.value_of((pattern[0], START)) is None:
            graph.valuate((pattern[0], START), False)
        if graph.value_of((pattern[-1], END)) is None:
            graph.valuate((pattern[-1], END), False)
    return len(graph.unvalued_components())


def _peel_events(pattern: RankedPattern):
    """Per-level deletion records of the projection linked list.

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
    for level in range(1, pattern.max_rank + 1):
        recs = []
        for pos in by_rank.get(level, ()):
            left, right = prv[pos], nxt[pos]
            recs.append((pos, left, right))
            if left >= 0:
                nxt[left] = right
            if right < n:
                prv[right] = left
        events[level] = recs
    return events


def reference_validate_ranking(pattern: RankedPattern):
    """Violations of the two matchability conditions, in scan order, by a
    stack of strictly decreasing ranks: the reference for the library's
    ``validate_ranking``, which reads them off its peel scan.

    (equal-ranks-unseparated) two equal ranks with nothing larger in
    between, (max-rank-repeated) the top rank occurring more than once.
    Both conditions are necessary, not sufficient: a ranking with a
    violation admits no match, but ``xyzxwy`` with x=3, y=2, z=4, w=1
    has none and admits no match either.
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


def _run(pattern: RankedPattern, shortest: bool = False, collect: bool = False):
    """Descend levels max_rank..1, maintaining compressed values.

    Returns (valuation, l, steps) or None when a level system clashes.
    Every ranking that violates a condition clashes, and so do some that
    violate none (see reference_validate_ranking).
    """
    symbols = pattern.symbols
    ranks = pattern.ranks
    n = len(symbols)
    events = _peel_events(pattern)
    rank_vars: dict[int, list] = {}
    for var in pattern.variables:
        rank_vars.setdefault(ranks[var], []).append(var)

    prv = [0] * n
    nxt = [0] * n
    head = tail = -1
    pair_count: dict[tuple, int] = {}
    active: dict = {}  # variable -> occurrence count, in activation order
    val: dict = {}
    total_free = 0
    steps = [] if collect else None

    for level in range(pattern.max_rank, 0, -1):
        for pos, left, right in reversed(events[level]):
            if left >= 0 and right < n:
                key = (symbols[left], symbols[right])
                cnt = pair_count[key] - 1
                if cnt:
                    pair_count[key] = cnt
                else:
                    del pair_count[key]
            prv[pos], nxt[pos] = left, right
            if left >= 0:
                nxt[left] = pos
                key = (symbols[left], symbols[pos])
                pair_count[key] = pair_count.get(key, 0) + 1
            else:
                head = pos
            if right < n:
                prv[right] = pos
                key = (symbols[pos], symbols[right])
                pair_count[key] = pair_count.get(key, 0) + 1
            else:
                tail = pos
            var = symbols[pos]
            active[var] = active.get(var, 0) + 1
            if var not in val:
                val[var] = deque((level,))

        graph = AdjacencyGraph(active, pair_count)
        for var in rank_vars.get(level, ()):
            if not graph.valuate((var, END), True) or not graph.valuate(
                (var, START), True
            ):
                return None
        free_cids = graph.unvalued_components()
        total_free += len(free_cids)
        if shortest:
            if graph.value_of((symbols[head], START)) is None:
                graph.valuate((symbols[head], START), False)
            if graph.value_of((symbols[tail], END)) is None:
                graph.valuate((symbols[tail], END), False)
        for cid in graph.unvalued_components():
            graph.set_anchor(cid, False)
        for var, (first, last) in graph.flags().items():
            if ranks[var] > level:
                if first:
                    val[var].appendleft(level)
                if last:
                    val[var].append(level)
        if collect:
            steps.append((level, graph, free_cids))

    return val, total_free, steps


def enumerate_instances(pattern: RankedPattern, limit: int = DEFAULT_ENUM_LIMIT):
    """All matches, canonical one first.

    The per-level systems do not depend on the bits chosen, so matches
    are exactly the combinations of the free component bits.  Raises
    EnumerationLimitError (carrying the count) instead of materializing
    more than ``limit`` results.
    """
    if reference_validate_ranking(pattern):
        return []
    probe = _run(pattern)
    if probe is None:
        return []
    count = 2 ** probe[1]
    if count > limit:
        raise EnumerationLimitError(probe[1], limit)
    _, _, steps = _run(pattern, collect=True)

    ranks = pattern.ranks
    slots = [(i, cid) for i, (_, _, cids) in enumerate(steps) for cid in cids]
    out = []
    seen = set()
    for bits in product((False, True), repeat=len(slots)):
        overrides: dict[int, dict] = {}
        for (i, cid), bit in zip(slots, bits):
            overrides.setdefault(i, {})[cid] = bit
        val: dict = {}
        for i, (level, graph, _) in enumerate(steps):
            for var, (first, last) in graph.flags_with(overrides.get(i, {})).items():
                if ranks[var] == level:
                    val.setdefault(var, deque((level,)))
                elif ranks[var] > level:
                    if first:
                        val[var].appendleft(level)
                    if last:
                        val[var].append(level)
        frozen = {v: tuple(c) for v, c in val.items()}
        key = tuple(frozen[v] for v in pattern.variables)
        if key not in seen:
            seen.add(key)
            out.append(frozen)
    return out


# The 2-SAT reference for the same junction systems, independent of the
# graph solver above and of ``zimin.boundary.AdjacencyGraph``.


@dataclass(frozen=True)
class ConstraintSystem:
    """Declarative form of a junction system, for checking and for the
    reference solver."""

    variables: tuple
    xor_edges: tuple  # ((x, END), (y, START)): the two flags must differ
    forced: tuple  # vertices pinned to True

    def satisfied_by(self, flags) -> bool:
        def value(vertex):
            var, side = vertex
            first, last = flags[var]
            return first if side == START else last

        for a, b in self.xor_edges:
            if value(a) == value(b):
                return False
        return all(value(v) for v in self.forced)


def build_constraints(pattern, forced=()) -> ConstraintSystem:
    variables = tuple(dict.fromkeys(pattern))
    known = set(variables)
    for var in forced:
        if var not in known:
            raise ValueError(f"forced variable {var!r} does not occur in the pattern")
    edges = dict.fromkeys(
        ((x, END), (y, START)) for x, y in zip(pattern, pattern[1:])
    )
    pins = []
    for var in dict.fromkeys(forced):
        pins.append((var, START))
        pins.append((var, END))
    return ConstraintSystem(variables, tuple(edges), tuple(pins))


def solve_by_implication_graph(system: ConstraintSystem):
    """Reference 2-SAT solver over the same systems.

    Each flag becomes a boolean; every xor edge contributes the clauses
    (a or b) and (not a or not b).  Kept independent of AdjacencyGraph
    so the two can be tested against each other.
    """
    bools: dict = {}
    for var in system.variables:
        for side in (END, START):
            bools[(var, side)] = len(bools)
    m = len(bools)

    def lit(vertex, positive: bool) -> int:
        return 2 * bools[vertex] + (0 if positive else 1)

    imp: list[list[int]] = [[] for _ in range(2 * m)]

    def clause(a: int, b: int):
        imp[a ^ 1].append(b)
        imp[b ^ 1].append(a)

    for a, b in system.xor_edges:
        clause(lit(a, True), lit(b, True))
        clause(lit(a, False), lit(b, False))
    for v in system.forced:
        pos = lit(v, True)
        clause(pos, pos)

    total = 2 * m
    comp = [-1] * total
    low = [0] * total
    num = [-1] * total
    counter = 0
    ncomp = 0
    stack: list[int] = []
    on_stack = [False] * total
    for root in range(total):
        if num[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                num[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if ptr < len(imp[v]):
                work[-1] = (v, ptr + 1)
                u = imp[v][ptr]
                if num[u] < 0:
                    work.append((u, 0))
                elif on_stack[u]:
                    low[v] = min(low[v], num[u])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == num[v]:
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        comp[u] = ncomp
                        if u == v:
                            break
                    ncomp += 1

    for vertex, b in bools.items():
        if comp[2 * b] == comp[2 * b + 1]:
            return None
    flags: BoundaryAssignment = {}
    for var in system.variables:
        # Tarjan pops sink components first, so the smaller id wins
        first = comp[lit((var, START), True)] < comp[lit((var, START), False)]
        last = comp[lit((var, END), True)] < comp[lit((var, END), False)]
        flags[var] = (first, last)
    return flags


def make_scaling_pattern(n: int, top_rank: int = 1000, ruler_max: int = 18) -> RankedPattern:
    """Matchable pattern with n symbols and the given top rank.

    A strictly decreasing chain of fresh variables covers the ranks down
    to ruler_max + 1; the remainder follows the ruler sequence, whose
    values obey the separation condition by construction.  The matched
    instance length grows like 2**top_rank while the work stays near
    linear in n, which is what acceptance criterion 5 checks.
    """
    chain = top_rank - ruler_max
    m = n - chain
    if m < 1:
        raise ValueError(f"n must exceed {chain} for top rank {top_rank}")
    if m >= 2 ** ruler_max:
        raise ValueError("ruler part too long for its rank ceiling")
    symbols = [f"v{r}" for r in range(top_rank, ruler_max, -1)]
    ranks = {f"v{r}": r for r in range(top_rank, ruler_max, -1)}
    for p in range(1, m + 1):
        j = (p & -p).bit_length()
        var = f"w{j}"
        symbols.append(var)
        ranks[var] = j
    return RankedPattern(tuple(symbols), ranks)


def hub(m, l_ranks=None, ruler=False):
    """The hub h l1 y1 h l2 y2 ... h lm ym, with rank(h) = m + 1, rank(l_j)
    = l_ranks[j - 1] (j by default) and rank(y_j) = m + 1 + j.  Every
    step inserts one l after an h, which touches the component that
    holds the end side of h and the start side of every y still after
    an h, and each side of h holds one slot per occurrence.  With
    ``ruler`` the y's are one variable per ruler value v of j, ranked
    m + 1 + v, and the pattern clashes from m = 3 on."""
    symbols, ranks = [], {"h": m + 1}
    for j, rank in enumerate(l_ranks or range(1, m + 1), 1):
        value = (j & -j).bit_length() if ruler else j
        y = ("y", value)
        symbols += ["h", ("l", j), y]
        ranks[("l", j)] = rank
        ranks[y] = m + 1 + value
    return RankedPattern(symbols, ranks)
