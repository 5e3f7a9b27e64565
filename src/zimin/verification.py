"""Self-checks used by the verify command, and the scaling pattern of
acceptance criterion 5."""

from __future__ import annotations

from .avoidability import (
    Verdict,
    is_unavoidable_by_ranking,
    is_unavoidable_by_reduction,
)
from .compressed import check_concatenation, compose, compress, decompress
from .matching import (
    RankedPattern,
    compressed_embedding,
    count_instances,
    enumerate_instances,
    instance_length,
    shortest_instance,
)
from .words import generate_zimin, is_zimin_factor


def run_small_suite():
    """Fast end-to-end sanity checks; returns (name, passed) rows."""
    rows = []

    def check(name: str, ok: bool):
        rows.append((name, bool(ok)))

    check("generate Z_4", generate_zimin(4) == tuple(map(int, "121312141213121")))
    check("factor test accepts a Z_5 slice", is_zimin_factor(tuple(map(int, "2141213121512131"))))
    check("factor test rejects 1221", not is_zimin_factor((1, 2, 2, 1)))
    check(
        "compress round trip",
        compress(decompress((2, 4, 5, 3, 1))) == (2, 4, 5, 3, 1),
    )
    check(
        "concatenation check accepts a factor split",
        check_concatenation([(1, 3, 1), (2,), (1,), (4, 1)]),
    )
    check(
        "concatenation check rejects 1.1",
        not check_concatenation([(1,), (1,)]),
    )
    check("compose of 1 and 21", compose([(1,), (2, 1)]) == (1, 2, 1))

    rp = RankedPattern(tuple("babca"), {"a": 2, "b": 1, "c": 3})
    res = compressed_embedding(rp)
    check(
        "embedding of babca with ranks 2,1,3",
        res is not None
        and res.valuation == {"a": (2,), "b": (1,), "c": (3, 1)}
        and res.free_components == 0,
    )
    single = RankedPattern(("x",), {"x": 2})
    check("count for one rank-2 variable", count_instances(single) == 4)
    check(
        "enumeration matches the count",
        len(enumerate_instances(single)) == 4,
    )
    short = shortest_instance(single)
    check(
        "shortest instance of one rank-2 variable",
        short is not None and instance_length(single, short.valuation) == 1,
    )

    check(
        "aba is unavoidable by reduction",
        is_unavoidable_by_reduction(tuple("aba")).verdict is Verdict.UNAVOIDABLE,
    )
    check(
        "aa is avoidable by ranking",
        is_unavoidable_by_ranking(tuple("aa")).verdict is Verdict.AVOIDABLE,
    )
    return rows


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
