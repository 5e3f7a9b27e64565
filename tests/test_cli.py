from __future__ import annotations

import io
import json
import random
import sys

import pytest

from zimin import RankedPattern, instance_length, is_unavoidable_by_ranking, shortest_instance
from zimin.cli import (
    MAX_RANK_DIGITS,
    format_code,
    format_pattern,
    format_word,
    main,
    parse_code,
    parse_pattern,
    parse_ranks,
    parse_word,
)
from zimin.matching import MAX_RUN_CELLS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_gen(capsys):
    code, out, _ = run(capsys, "gen", "3")
    assert code == 0
    assert out == "1213121\n"


def test_gen_json(capsys):
    code, payload, _ = run_json(capsys, "gen", "3")
    assert code == 0
    assert payload == {"format_version": "1", "word": [1, 2, 1, 3, 1, 2, 1]}


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "0")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "gen", "99")
    assert code == 3
    assert "cap" in err


def test_closed_stdout_ends_quietly(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["gen", "5"]) == 1
    assert capsys.readouterr().err == ""


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", "1213121")
    assert (code, out) == (0, "FACTOR\n")
    code, out, _ = run(capsys, "factor", "212")
    assert (code, out) == (1, "NOT-FACTOR (letter 2)\n")
    code, payload, _ = run_json(capsys, "factor", "212")
    assert code == 1
    assert payload == {"factor": False, "format_version": "1", "violation": 2}


def test_factor_bad_input(capsys):
    code, _, err = run(capsys, "factor", "xyz")
    assert code == 2
    assert "error:" in err


def test_compress_decompress(capsys):
    code, out, _ = run(capsys, "compress", "2141213121512131")
    assert (code, out) == (0, "2,4,5,3,1\n")
    code, out, _ = run(capsys, "decompress", "2,4,5,3,1")
    assert (code, out) == (0, "2141213121512131\n")
    code, payload, _ = run_json(capsys, "compress", "2141213121512131")
    assert payload == {"code": [2, 4, 5, 3, 1], "format_version": "1"}


def test_compress_non_factor(capsys):
    code, _, err = run(capsys, "compress", "212")
    assert code == 1
    assert "NOT-FACTOR" in err


def test_decompress_invalid_code(capsys):
    code, _, err = run(capsys, "decompress", "2,1,2")
    assert code == 2
    assert "unimodal" in err


def test_concat(capsys):
    code, out, _ = run(capsys, "concat", "1,3,2", "1,4,3,1", "2,5,3,2", "1,4,3,1")
    assert (code, out) == (0, "1,3,4,5,4,3,1\n")
    code, _, err = run(capsys, "concat", "1", "1")
    assert code == 1
    assert "NOT-FACTOR" in err


def test_concat_json_round_trip(capsys):
    code, payload, _ = run_json(capsys, "concat", "1,2", "1")
    assert code == 0
    assert payload["code"] == [1, 2, 1]


def test_match(capsys):
    code, out, _ = run(capsys, "match", "babca", "--ranks", "a=2,b=1,c=3")
    assert code == 0
    assert out == "b = 1\na = 2\nc = 3,1\nl = 0\n"


def test_match_json(capsys):
    code, payload, _ = run_json(capsys, "match", "babca", "--ranks", "a=2,b=1,c=3")
    assert code == 0
    assert payload == {
        "format_version": "1",
        "l": 0,
        "valuation": {"a": [2], "b": [1], "c": [3, 1]},
    }


def test_match_no_match(capsys):
    code, out, _ = run(capsys, "match", "aa", "--ranks", "a=1")
    assert (code, out) == (1, "NO-MATCH\n")
    code, payload, _ = run_json(capsys, "match", "aa", "--ranks", "a=1")
    assert code == 1
    assert payload["valuation"] is None


def test_match_invalid_ranking(capsys):
    # two rank-1 variables side by side can never both be the letter 1
    code, out, _ = run(capsys, "match", "ab", "--ranks", "a=1,b=1")
    assert (code, out) == (1, "NO-MATCH\n")


def test_no_match_names_violations(capsys):
    # the top rank twice: its two occurrences are also unseparated
    code, out, err = run(capsys, "match", "aa", "--ranks", "a=1")
    assert (code, out) == (1, "NO-MATCH\n")
    assert "reason: max-rank-repeated at positions 0, 1" in err
    code, payload, _ = run_json(capsys, "shortest", "aa", "--ranks", "a=1")
    assert code == 1
    assert {"kind": "max-rank-repeated", "positions": [0, 1]} in payload["violations"]
    code, payload, _ = run_json(capsys, "match", "cab", "--ranks", "c=3,a=1,b=1")
    assert (code, payload["valuation"]) == (1, None)
    assert payload["violations"] == [{"kind": "equal-ranks-unseparated", "positions": [1, 2]}]
    code, out, err = run(capsys, "shortest", "cab", "--ranks", "c=3,a=1,b=1")
    assert (code, out) == (1, "NO-MATCH\n")
    assert err == "reason: equal-ranks-unseparated at positions 1, 2\n"


def test_no_match_on_a_level_clash(capsys):
    # both ranking conditions hold, yet a level system clashes
    argv = ("match", "xyzxwy", "--ranks", "x=3,y=2,z=4,w=1")
    code, payload, _ = run_json(capsys, *argv)
    assert code == 1
    assert payload == {"format_version": "1", "valuation": None, "violations": []}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "NO-MATCH\n")
    assert "clashes" in err


def test_match_bad_ranks(capsys):
    code, _, err = run(capsys, "match", "babca", "--ranks", "a=2;b=1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "match", "ab", "--ranks", "a=1,b=2,a=3")
    assert code == 2
    assert "'a'" in err


def test_shortest(capsys):
    code, out, _ = run(capsys, "shortest", "babca", "--ranks", "a=2,b=1,c=3")
    assert code == 0
    assert out.endswith("length = 6\n")
    code, payload, _ = run_json(capsys, "shortest", "x", "--ranks", "x=2")
    assert payload == {"format_version": "1", "length": 1, "valuation": {"x": [2]}}


def test_shortest_past_the_decimal_digit_limit(capsys):
    """A length of more than 4,300 decimal digits is printed in exact hex."""
    args = ("shortest", "cab", "--ranks", "c=20000,b=19999,a=1")
    rp = RankedPattern(tuple("cab"), {"c": 20000, "b": 19999, "a": 1})
    length = instance_length(rp, shortest_instance(rp).valuation)
    assert length.bit_length() > 19000
    code, payload, _ = run_json(capsys, *args)
    assert code == 0
    assert "length" not in payload
    assert int(payload["length_hex"], 16) == length
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.endswith(f"length = {hex(length)}\n")


def test_count(capsys):
    code, out, _ = run(capsys, "count", "x", "--ranks", "x=2")
    assert (code, out) == (0, "4\n")
    # zero is still a definite answer
    code, payload, _ = run_json(capsys, "count", "aa", "--ranks", "a=1")
    assert code == 0
    assert payload["count"] == 0


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "x", "--ranks", "x=2")
    assert code == 0
    assert out == "x=2\nx=1,2\nx=2,1\nx=1,2,1\n"
    code, payload, _ = run_json(capsys, "enumerate", "x", "--ranks", "x=2")
    assert payload["count"] == 4
    assert payload["valuations"][0] == {"x": [2]}


def test_enumerate_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "aa", "--ranks", "a=1")
    assert (code, out) == (1, "NO-MATCH\n")


def test_enumerate_limit(capsys):
    code, _, err = run(capsys, "enumerate", "x", "--ranks", "x=3", "--limit", "8")
    assert code == 3
    assert "16" in err and "8" in err
    code, out, _ = run(capsys, "enumerate", "x", "--ranks", "x=3", "--limit", "16")
    assert code == 0
    assert len(out.splitlines()) == 16


def test_sparse_ranks(capsys):
    """Exit codes on huge ranks: exact answers where the output is small,
    3 at a documented cap, 2 only for input that is not a rank."""
    b = 10**18
    code, payload, _ = run_json(capsys, "match", "aba", "--ranks", f"a=1,b={b}")
    assert code == 0
    assert payload["valuation"] == {"a": [1], "b": [b]}
    assert payload["l"] == 2 * b - 4
    code, out, err = run(capsys, "count", "aba", "--ranks", f"a=1,b={b}")
    assert (code, out) == (3, "")
    assert "exponent cap" in err
    # 2^19996 has more than 4300 digits, so the count is given as a power
    code, out, err = run(capsys, "enumerate", "aba", "--ranks", "a=1,b=10000")
    assert (code, out) == (3, "")
    assert "2^19996 solutions exceed enumeration limit 4096" in err
    code, out, err = run(capsys, "match", "cab", "--ranks", f"c={b},b={b - 1},a=1")
    assert (code, out) == (3, "")
    assert f"cap is {MAX_RUN_CELLS}" in err


def test_rank_digit_cap(capsys):
    code, out, err = run(capsys, "match", "aba", "--ranks", "a=1,b=" + "9" * 5001)
    assert (code, out) == (3, "")
    assert f"5001 digits, cap is {MAX_RANK_DIGITS}" in err
    # underscores are not digits: both ranks are over the cap, not bad input
    for digits in (4101, 4501):
        code, out, err = run(capsys, "match", "aba", "--ranks", "a=1,b=1_" + "0" * (digits - 1))
        assert (code, out) == (3, "")
        assert f"{digits} digits, cap is {MAX_RANK_DIGITS}" in err
    # at the cap the rank is read, and l = 2b - 4 still prints
    b = int("9" * MAX_RANK_DIGITS)
    code, payload, _ = run_json(capsys, "match", "aba", "--ranks", f"a=1,b=+00{b}")
    assert code == 0
    assert payload["l"] == 2 * b - 4
    for bad in ("b=x", "b=" + "x" * 5001, "b=1.5", "b=1__" + "0" * 5000, "b=_1" + "0" * 5000):
        code, out, err = run(capsys, "match", "aba", "--ranks", "a=1," + bad)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def test_enumerate_negative_limit(capsys):
    code, out, err = run(capsys, "enumerate", "x", "--ranks", "x=3", "--limit", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "-1" in err


def test_avoid_max_size_below_one(capsys):
    for size in ("0", "-1"):
        code, out, err = run(capsys, "avoid", "aba", "--method", "reduction", "--max-size", size)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and size in err


def test_avoid_unavoidable(capsys):
    code, out, _ = run(capsys, "avoid", "aba")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "UNAVOIDABLE"
    assert lines[1] == "ranking: a=1, b=2"
    assert lines[2] == "delete {a} from aba"
    assert lines[3] == "delete {b} from b"


def test_avoid_empty_pattern(capsys):
    # the empty pattern's ranking is {}: no "ranking:" line, but the JSON keeps it
    assert run(capsys, "avoid", "") == (0, "UNAVOIDABLE\n", "")
    code, payload, _ = run_json(capsys, "avoid", "")
    assert code == 0
    assert payload["verdict"] == "unavoidable"
    assert payload["ranking"] == {} and payload["valuation"] == {}
    assert payload["trace"] is None


def test_avoid_json(capsys):
    code, payload, _ = run_json(capsys, "avoid", "aba")
    assert code == 0
    assert payload["verdict"] == "unavoidable"
    assert payload["ranking"] == {"a": 1, "b": 2}
    assert payload["trace"] == [["aba", ["a"]], ["b", ["b"]]]
    assert payload["valuation"] == {"a": [1], "b": [2]}
    assert payload["nodes"] == {"ranking": 3, "reduction": 3}


def test_avoid_json_nodes_of_one_method(capsys):
    # a decider that was not run reports null
    _, payload, _ = run_json(capsys, "avoid", "aba", "--method", "ranking")
    assert payload["nodes"] == {"ranking": 3, "reduction": None}
    _, payload, _ = run_json(capsys, "avoid", "aba", "--method", "reduction")
    assert payload["nodes"] == {"ranking": None, "reduction": 3}


def test_avoid_avoidable(capsys):
    code, out, _ = run(capsys, "avoid", "aa", "--method", "ranking")
    assert (code, out) == (0, "AVOIDABLE\n")
    code, out, _ = run(capsys, "avoid", "abacdbacabdcdbd")
    assert (code, out.splitlines()[0]) == (0, "AVOIDABLE")


def test_avoid_inconclusive(capsys):
    code, out, _ = run(
        capsys, "avoid", "abacdbacabdcdbd", "--method", "reduction", "--max-size", "1"
    )
    assert (code, out) == (1, "INCONCLUSIVE\n")


def test_avoid_merges_an_inconclusive_reduction(capsys):
    # the ranking decider is complete, so its verdict stands when the
    # truncated reduction search gives up
    code, payload, _ = run_json(capsys, "avoid", "abacdbacabdcdbd", "--max-size", "1")
    assert code == 0
    assert payload["verdict"] == "avoidable"
    assert payload["nodes"] == {"ranking": 15, "reduction": 5}


def test_avoid_trace_of_longer_names_reads_back(capsys):
    code, out, _ = run(capsys, "avoid", "ab c ab")
    assert code == 0
    assert out.splitlines()[2:] == ["delete {ab} from ab c ab", "delete {c} from c"]
    _, payload, _ = run_json(capsys, "avoid", "ab c ab")
    assert payload["trace"] == [["ab c ab", ["ab"]], ["c", ["c"]]]


def test_avoid_cap(capsys):
    code, _, err = run(capsys, "avoid", "abcdefghi")
    assert code == 3
    assert "capped" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert all(line.endswith("PASS") for line in lines[:-1])
    assert lines[-1] == "13/13 passed"


def test_verify_takes_no_mode(capsys):
    for option in ("--bench", "--suite"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_json_outputs_are_versioned(capsys):
    for argv in [
        ("gen", "2"),
        ("factor", "121"),
        ("compress", "121"),
        ("decompress", "1,2,1"),
        ("count", "x", "--ranks", "x=1"),
        ("avoid", "aba"),
    ]:
        _, payload, _ = run_json(capsys, *argv)
        assert payload["format_version"] == "1"


def test_parse_word_forms():
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("121") == (1, 2, 1)  # compact digits
    assert parse_word("12") == (1, 2)
    assert parse_word("+12") == (12,)  # signed, so a single letter
    assert parse_word("7") == (7,)
    assert parse_word("10") == (10,)  # contains 0, so a single letter
    assert parse_word("1 10 1") == (1, 10, 1)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("1 x 1")


def test_format_word_round_trip():
    for word in [(1, 2, 1), (1,), (10,), (12,), (1, 10, 1), (2, 9, 2), (1, 12, 1)]:
        assert parse_word(format_word(word)) == word
    assert format_word((1, 2, 1)) == "121"
    assert format_word((1, 10, 1)) == "1 10 1"
    assert format_word((10,)) == "10"
    assert format_word((7,)) == "7"
    # a lone letter that would read back as compact digits is signed
    assert format_word((12,)) == "+12"
    assert format_word((256,)) == "+256"
    assert format_word((300,)) == "300"


def test_format_pattern_forms():
    assert format_pattern(tuple("aba")) == "aba"
    assert format_pattern(("ab", "c", "ab")) == "ab c ab"
    assert format_pattern(()) == ""
    # one variable with a longer name has no text form: it reads as letters
    assert parse_pattern(format_pattern(("ab",))) == ("a", "b")


def test_compressed_forms_round_trip_in_cli(capsys):
    code, out, _ = run(capsys, "decompress", "12")
    assert (code, out) == (0, "+12\n")
    assert run(capsys, "compress", out) == (0, "12\n", "")


def _random_word(rng):
    """1 to 5 letters, each a digit, a letter of 10..300 or a corner case."""
    pools = (range(1, 10), range(10, 301), (11, 12, 99, 100, 255, 256))
    return tuple(rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 5)))


def _random_pattern(rng, names, low):
    return tuple(rng.choice(names) for _ in range(rng.randint(low, 6)))


def test_printed_forms_read_back(capsys):
    """Every text form the CLI prints parses back to what it printed."""
    rng = random.Random(25)
    short = list("abcxyz01")
    mixed = short + ["ab", "x1", "foo", "v10"]
    for _ in range(1200):
        word = _random_word(rng)
        assert parse_word(format_word(word)) == word, word
        code = tuple(rng.randint(1, 10**rng.randint(1, 20)) for _ in range(rng.randint(0, 6)))
        assert parse_code(format_code(code)) == code, code
        for pattern in (_random_pattern(rng, mixed, 2), _random_pattern(rng, short, 0)):
            assert parse_pattern(format_pattern(pattern)) == pattern, pattern
    for _ in range(150):
        pattern = _random_pattern(rng, ["a", "b", "c", "ab", "x1"], 2)
        text = format_pattern(pattern)
        ranking = is_unavoidable_by_ranking(pattern).ranking
        code, out, _ = run(capsys, "avoid", text, "--method", "ranking")
        assert code == 0
        shown = [line for line in out.splitlines() if line.startswith("ranking: ")]
        if ranking is None:
            assert shown == [], text
        else:
            assert parse_ranks(shown[0].removeprefix("ranking: ")) == ranking, text
