"""The self-checks of the verify command, loaded only by that command."""

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
