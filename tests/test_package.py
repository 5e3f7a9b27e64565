"""What importing zimin costs, and the semantics of its record types."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

import zimin
from zimin import (
    FreeSetWitness,
    MatchResult,
    OracleBudget,
    RankedPattern,
    RankingResult,
    RankingViolation,
    ReductionResult,
    Verdict,
    ZBlock,
)

SRC = str(Path(zimin.__file__).resolve().parent.parent)


def _modules_after(statement: str) -> set:
    """sys.modules of a fresh interpreter (no site hooks) after ``statement``."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); {statement}; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_oracles_or_self_checks():
    loaded = _modules_after("import zimin.cli")
    assert not {"dataclasses", "inspect", "zimin.oracle", "zimin.verification"} & loaded
    # the modules whose functions the span tracer wraps after importing zimin.cli
    hooked = {"zimin.words", "zimin.compressed", "zimin.boundary", "zimin.matching", "zimin.avoidability"}
    assert hooked <= loaded


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import zimin")
    assert "zimin" in loaded
    assert [name for name in loaded if name.startswith("zimin.")] == []


def test_oracle_import_loads_no_engine():
    assert "zimin.matching" not in _modules_after("import zimin.oracle")


def test_every_public_name_is_listed_and_resolves():
    assert len(zimin.__all__) == len(set(zimin.__all__)) == 39
    assert set(zimin.__all__) <= set(dir(zimin))
    for name in zimin.__all__:
        assert getattr(zimin, name) is not None, name
    assert zimin.uncompressed_embedding.__module__ == "zimin.oracle"
    with pytest.raises(AttributeError, match="no_such_name"):
        zimin.no_such_name


def test_readme_public_api_lists_all():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)`", section[section.index("\n- "):])  # the list, not the prose
    assert sorted(names) == zimin.__all__


RECORDS = [
    # type, positional fields, repr
    (RankingViolation, ("max-rank-repeated", (0, 1)),
     "RankingViolation(kind='max-rank-repeated', positions=(0, 1))"),
    (MatchResult, ({"a": (1,)}, 2), "MatchResult(valuation={'a': (1,)}, free_components=2)"),
    (FreeSetWitness, (frozenset("a"), frozenset(), frozenset("b")),
     "FreeSetWitness(free_set=frozenset({'a'}), a_set=frozenset(), b_set=frozenset({'b'}))"),
    (ReductionResult, (Verdict.AVOIDABLE, (), 3),
     "ReductionResult(verdict=<Verdict.AVOIDABLE: 'avoidable'>, trace=(), nodes=3)"),
    (RankingResult, (Verdict.UNAVOIDABLE, {"a": 1}, None, 1),
     "RankingResult(verdict=<Verdict.UNAVOIDABLE: 'unavoidable'>, ranking={'a': 1},"
     " match=None, nodes=1)"),
    (OracleBudget, (3, 5), "OracleBudget(max_k=3, max_pattern_len=5)"),
    (RankedPattern, (("a", "b"), {"a": 1, "b": 2}),
     "RankedPattern(symbols=('a', 'b'), ranks={'a': 1, 'b': 2})"),
    (ZBlock, (3,), "Z3"),
]
FIELDS = {
    RankingViolation: ("kind", "positions"),
    MatchResult: ("valuation", "free_components"),
    FreeSetWitness: ("free_set", "a_set", "b_set"),
    ReductionResult: ("verdict", "trace", "nodes"),
    RankingResult: ("verdict", "ranking", "match", "nodes"),
    OracleBudget: ("max_k", "max_pattern_len"),
    RankedPattern: ("symbols", "ranks"),
    ZBlock: ("order",),
}


@pytest.mark.parametrize("kind, values, shown", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(kind, values, shown):
    fields = FIELDS[kind]
    record = kind(*values)
    assert kind(**dict(zip(fields, values))) == record
    assert tuple(getattr(record, f) for f in fields) == values
    assert repr(record) == shown
    assert record == kind(*values) and not record != kind(*values)
    for field, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == value


def test_record_defaults():
    assert ReductionResult(Verdict.UNAVOIDABLE, ()).nodes == 0
    assert RankingResult(Verdict.AVOIDABLE, None, None).nodes == 0
    assert OracleBudget() == OracleBudget(4, 8)
    assert OracleBudget(max_pattern_len=6) == OracleBudget(4, 6)


def test_record_equality_is_field_wise():
    assert MatchResult({"a": (1,)}, 0) != MatchResult({"a": (1,)}, 1)
    assert OracleBudget(3) != OracleBudget(4)
    assert ZBlock(2) != ZBlock(3)
    assert ZBlock(2) != 2 and 2 != ZBlock(2)
    p = RankedPattern("ab", {"a": 1, "b": 2})
    assert p == RankedPattern(["a", "b"], {"b": 2, "a": 1})
    assert p != RankedPattern("ab", {"a": 2, "b": 1})
    assert p != RankedPattern("ba", {"a": 1, "b": 2})
    # a match unpacks as its valuation and l
    valuation, l = MatchResult({"a": (1,)}, 5)
    assert (valuation, l) == ({"a": (1,)}, 5)


def test_zblock_hash_and_order():
    assert hash(ZBlock(3)) == hash(ZBlock(3))
    assert len({ZBlock(3), ZBlock(3), ZBlock(4)}) == 2
    for order in (0, -1):
        with pytest.raises(ValueError, match="block order must be >= 1"):
            ZBlock(order)
    block = ZBlock(3)
    with pytest.raises(AttributeError):
        del block.order
    assert block.order == 3


def test_ranked_pattern_copies_and_validates():
    symbols, ranks = ["a", "b", "a"], {"a": 1, "b": 2}
    p = RankedPattern(symbols, ranks)
    symbols.append("c")
    ranks["c"] = 3
    assert p.symbols == ("a", "b", "a") and p.ranks == {"a": 1, "b": 2}
    assert p.ranks is not ranks
    with pytest.raises(ValueError, match="at least one symbol"):
        RankedPattern((), {})
    with pytest.raises(ValueError, match="cover exactly"):
        RankedPattern("ab", {"a": 1})
    for bad in (0, -2, True, 1.0, "1"):
        with pytest.raises(ValueError, match="positive integer"):
            RankedPattern("a", {"a": bad})
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(AttributeError):
        del p.ranks
    assert len(p) == 3 and p.max_rank == 2 and p.variables == ("a", "b")
