from __future__ import annotations

import random
from itertools import product

import pytest

from reference_engine import (
    build_constraints,
    count_free_components,
    first_last,
    shortest_first_last,
    solve_by_implication_graph,
)
from zimin.boundary import AdjacencyGraph


def test_first_last_worked_example():
    # b a b c a with a forced: the unique solution
    flags = first_last(("b", "a", "b", "c", "a"), forced=("a",))
    assert flags == {"a": (True, True), "b": (False, False), "c": (True, False)}


def test_first_last_conflict():
    assert first_last(("a", "a"), forced=("a",)) is None
    # x y x y forces an odd cycle on the flags once x is pinned
    assert first_last(("a", "b", "a", "b"), forced=("a", "b")) is None


def test_first_last_trivial():
    assert first_last(()) == {}
    assert first_last(("a",), forced=("a",)) == {"a": (True, True)}


def test_free_component_counts():
    assert count_free_components(("a", "b"), forced=("a",)) == 1
    assert count_free_components(("b", "c")) == 3
    assert count_free_components(("b", "c"), boundary_minimize=True) == 1
    assert count_free_components(("a", "a"), forced=("a",)) is None


def test_shortest_pins_pattern_boundary():
    # without forcing, the minimizer zeroes the leading first-flag and the
    # trailing last-flag
    flags = shortest_first_last(("b", "c"))
    assert flags["b"][0] is False
    assert flags["c"][1] is False


def test_canonical_fill_is_deterministic():
    a = first_last(("b", "a", "c"), forced=("a",))
    b = first_last(("b", "a", "c"), forced=("a",))
    assert a == b


def _enumerate_satisfying(pattern, forced):
    system = build_constraints(pattern, forced=forced)
    variables = sorted(system.variables)
    count = 0
    for bits in product((False, True), repeat=2 * len(variables)):
        flags = {
            v: (bits[2 * i], bits[2 * i + 1]) for i, v in enumerate(variables)
        }
        if system.satisfied_by(flags):
            count += 1
    return count


PATTERNS = [
    (("a", "b"), ()),
    (("a", "b"), ("a",)),
    (("b", "a", "b", "c", "a"), ("a",)),
    (("a", "b", "a"), ("a",)),
    (("a", "b", "c", "a", "b"), ("b",)),
    (("x", "y", "x", "z", "x", "y", "x"), ("x",)),
    (("a", "a"), ("a",)),
    (("a", "b", "b", "a"), ()),
]


@pytest.mark.parametrize("pattern, forced", PATTERNS)
def test_count_matches_brute_force(pattern, forced):
    l = count_free_components(pattern, forced=forced)
    expected = _enumerate_satisfying(pattern, forced)
    if l is None:
        assert expected == 0
    else:
        assert expected == 2**l


@pytest.mark.parametrize("pattern, forced", PATTERNS)
def test_first_last_agrees_with_two_sat(pattern, forced):
    system = build_constraints(pattern, forced=forced)
    direct = first_last(pattern, forced=forced)
    reference = solve_by_implication_graph(system)
    assert (direct is None) == (reference is None)
    if direct is not None:
        assert system.satisfied_by(direct)
        assert system.satisfied_by(reference)


def test_differential_random_patterns():
    rng = random.Random(41)
    alphabet = "abcde"
    for _ in range(300):
        n = rng.randrange(1, 10)
        pattern = tuple(rng.choice(alphabet) for _ in range(n))
        pool = sorted(set(pattern))
        forced = tuple(v for v in pool if rng.random() < 0.4)
        system = build_constraints(pattern, forced=forced)
        direct = first_last(pattern, forced=forced)
        reference = solve_by_implication_graph(system)
        assert (direct is None) == (reference is None), (pattern, forced)
        if direct is not None:
            assert system.satisfied_by(direct)
            assert system.satisfied_by(reference)
            short = shortest_first_last(pattern, forced=forced)
            assert system.satisfied_by(short)


def test_adjacency_graph_direct():
    # the pair a b joins a's end side to b's start side: forcing a makes
    # last(a) True, so first(b) is False
    assert AdjacencyGraph(("a", "b")).flags_with(("a",)) == {"a": (True, True), "b": (False, False)}


def test_adjacency_graph_components():
    # a's end side and b's start side form one component, which forcing
    # both a and b pins both ways
    assert AdjacencyGraph(("a", "b")).flags_with(("a", "b")) is None
