"""Command line interface, and the one module that knows its text forms:
words (parse_word, format_word), codes (parse_code, format_code),
patterns (parse_pattern, format_pattern) and rankings (parse_ranks).
Each printed form reads back through its parser.

Exit codes: 0 for a positive answer, 1 for a negative one (no match,
not a factor, inconclusive), 2 for bad input, 3 when a size or
enumeration cap is hit (MAX_RANK_DIGITS here, the exponent cap, and the
run-cell cap on one match or on all the valuations of an enumeration).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .avoidability import (
    Verdict,
    is_unavoidable_by_ranking,
    is_unavoidable_by_reduction,
)
from .compressed import compose, compress, decompress
from .errors import EnumerationLimitError, NotAFactorError, SizeLimitError
from .matching import (
    DEFAULT_ENUM_LIMIT,
    RankedPattern,
    compressed_embedding,
    count_instances,
    enumerate_instances,
    instance_length,
    shortest_instance,
    validate_ranking,
)
from .words import first_violation, generate_zimin

FORMAT_VERSION = "1"

# ranks are read with at most this many digits, so that l = 2b - 4 of
# aba and every other output stays under Python's 4300-digit str limit
MAX_RANK_DIGITS = 4000


def _compact(token: str) -> bool:
    """True iff parse_word reads ``token`` alone as one letter per digit."""
    return token.isdigit() and len(token) > 1 and "0" not in token


def parse_word(text: str) -> tuple:
    """Parse a word from text.

    Two encodings are accepted: whitespace-separated integers
    ("1 2 1 3"), or a single run of digits ("1213") read one letter per
    character.  The compact form is only unambiguous when every letter
    is a single digit, so a lone token containing a '0', of length 1 or
    signed ("+12") is read as one integer.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty word")
    if len(tokens) == 1:
        tok = tokens[0]
        if _compact(tok):
            return tuple(int(ch) for ch in tok)
        return (int(tok),)
    return tuple(int(tok) for tok in tokens)


def format_word(word) -> str:
    """Render a word; compact digits when possible, else space separated.
    A lone letter that would read back as compact digits is signed: +12."""
    if len(word) > 1 and all(1 <= x <= 9 for x in word):
        return "".join(str(x) for x in word)
    text = " ".join(str(x) for x in word)
    return f"+{text}" if len(word) == 1 and _compact(text) else text


def parse_code(text: str) -> tuple:
    return tuple(int(p) for p in text.replace(",", " ").split())


def format_code(code) -> str:
    return ",".join(str(x) for x in code)


def parse_pattern(text: str) -> tuple:
    """Single token means one variable per character, otherwise the
    tokens are the variable names."""
    tokens = text.split()
    if len(tokens) == 1:
        return tuple(tokens[0])
    return tuple(tokens)


def format_pattern(pattern) -> str:
    """The inverse of parse_pattern: one-character names run together,
    longer names are separated by spaces.  A pattern of one variable
    whose name is longer than a character has no text form."""
    names = [str(s) for s in pattern]
    return ("" if all(len(n) == 1 for n in names) else " ").join(names)


def parse_ranks(text: str) -> dict:
    """``a=2,b=1`` as a dict.  A rank of more than MAX_RANK_DIGITS digits
    raises SizeLimitError; a repeated variable, or anything int()
    rejects, is a ValueError."""
    ranks: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        var, _, value = item.partition("=")
        if not _:
            raise ValueError(f"expected VAR=RANK, got {item!r}")
        var = var.strip()
        if var in ranks:
            raise ValueError(f"variable {var!r} is ranked twice")
        text = value.strip().removeprefix("+")
        # int() also reads single underscores between digits, which are
        # not digits; "__" in "_text_" finds every misplaced underscore
        digits = text.replace("_", "").lstrip("0")
        if len(digits) > MAX_RANK_DIGITS and digits.isdecimal() and "__" not in f"_{text}_":
            raise SizeLimitError(
                f"rank of {var!r} has {len(digits)} digits, cap is {MAX_RANK_DIGITS}"
            )
        ranks[var] = int(value)
    return ranks


def _emit(args, payload: dict, text: str):
    if args.json:
        payload = {"format_version": FORMAT_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def _valuation_payload(valuation) -> dict:
    return {str(var): list(code) for var, code in valuation.items()}


def _valuation_text(pattern: RankedPattern, valuation) -> str:
    return "\n".join(
        f"{var} = {format_code(valuation[var])}" for var in pattern.variables
    )


def cmd_gen(args) -> int:
    word = generate_zimin(args.order)
    _emit(args, {"word": list(word)}, format_word(word))
    return 0


def cmd_factor(args) -> int:
    word = parse_word(args.word)
    violation = first_violation(word)
    ok = violation is None
    _emit(
        args,
        {"factor": ok, "violation": violation},
        "FACTOR" if ok else f"NOT-FACTOR (letter {violation})",
    )
    return 0 if ok else 1


def cmd_compress(args) -> int:
    word = parse_word(args.word)
    code = compress(word)
    _emit(args, {"code": list(code)}, format_code(code))
    return 0


def cmd_decompress(args) -> int:
    word = decompress(parse_code(args.code))
    _emit(args, {"word": list(word)}, format_word(word))
    return 0


def cmd_concat(args) -> int:
    code = compose([parse_code(c) for c in args.codes])
    _emit(args, {"code": list(code)}, format_code(code))
    return 0


def _ranked(args) -> RankedPattern:
    return RankedPattern(parse_pattern(args.pattern), parse_ranks(args.ranks))


def _match_or_explain(args, engine):
    """The ranked pattern and its match by ``engine``; on NO-MATCH the
    match is None and the violated ranking conditions are reported (none
    when both hold but a level system clashes), on stderr in text mode."""
    rp = _ranked(args)
    res = engine(rp)
    if res is None:
        listed = [{"kind": v.kind, "positions": list(v.positions)} for v in validate_ranking(rp)]
        _emit(args, {"valuation": None, "violations": listed}, "NO-MATCH")
        if not args.json:
            for v in listed:
                where = ", ".join(map(str, v["positions"]))
                print(f"reason: {v['kind']} at positions {where}", file=sys.stderr)
            if not listed:
                print("reason: both ranking conditions hold, but a level clashes", file=sys.stderr)
    return rp, res


def cmd_match(args) -> int:
    rp, res = _match_or_explain(args, compressed_embedding)
    if res is None:
        return 1
    _emit(
        args,
        {"valuation": _valuation_payload(res.valuation), "l": res.free_components},
        _valuation_text(rp, res.valuation) + f"\nl = {res.free_components}",
    )
    return 0


def cmd_shortest(args) -> int:
    rp, res = _match_or_explain(args, shortest_instance)
    if res is None:
        return 1
    length = instance_length(rp, res.valuation)
    payload = {"valuation": _valuation_payload(res.valuation), "length": length}
    try:
        shown = str(length)
    except ValueError:  # past int's decimal digit limit; hex is exact at any size
        shown = payload["length_hex"] = hex(payload.pop("length"))
    _emit(args, payload, _valuation_text(rp, res.valuation) + f"\nlength = {shown}")
    return 0


def cmd_count(args) -> int:
    count = count_instances(_ranked(args))
    _emit(args, {"count": count}, str(count))
    return 0


def cmd_enumerate(args) -> int:
    rp = _ranked(args)
    instances = enumerate_instances(rp, limit=args.limit)
    lines = [
        " ".join(f"{var}={format_code(val[var])}" for var in rp.variables)
        for val in instances
    ]
    _emit(
        args,
        {
            "count": len(instances),
            "valuations": [_valuation_payload(v) for v in instances],
        },
        "\n".join(lines) if lines else "NO-MATCH",
    )
    return 0 if instances else 1


def cmd_avoid(args) -> int:
    pattern = parse_pattern(args.pattern)
    payload: dict = {"verdict": None, "ranking": None, "valuation": None, "trace": None}
    nodes = payload["nodes"] = {"ranking": None, "reduction": None}
    lines: list[str] = []
    verdict = None
    if args.method in ("ranking", "both"):
        rk = is_unavoidable_by_ranking(pattern)
        verdict = rk.verdict
        nodes["ranking"] = rk.nodes
        if rk.ranking is not None:
            payload["ranking"] = {str(v): r for v, r in rk.ranking.items()}
        if rk.ranking:  # the empty pattern's ranking is {}
            lines.append("ranking: " + ", ".join(f"{v}={r}" for v, r in rk.ranking.items()))
        if rk.match is not None:
            payload["valuation"] = _valuation_payload(rk.match.valuation)
    if args.method in ("reduction", "both"):
        rd = is_unavoidable_by_reduction(pattern, args.max_size)
        nodes["reduction"] = rd.nodes
        if verdict is None:
            verdict = rd.verdict
        elif rd.verdict is not Verdict.INCONCLUSIVE and rd.verdict is not verdict:
            print("error: deciders disagree, please report this input", file=sys.stderr)
            return 1
        if rd.trace:
            payload["trace"] = [
                [format_pattern(pat), sorted(str(s) for s in deleted)] for pat, deleted in rd.trace
            ]
            lines.extend(
                "delete {%s} from %s" % (",".join(names), pat) for pat, names in payload["trace"]
            )
    payload["verdict"] = verdict.value
    _emit(args, payload, "\n".join([verdict.value.upper()] + lines))
    return 1 if verdict is Verdict.INCONCLUSIVE else 0


def cmd_verify(args) -> int:
    from .verification import run_small_suite  # only verify pays for loading it

    rows = run_small_suite()
    failed = [name for name, ok in rows if not ok]
    lines = [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in rows]
    lines.append(f"{len(rows) - len(failed)}/{len(rows)} passed")
    _emit(args, {"suite": [{"name": name, "passed": ok} for name, ok in rows]}, "\n".join(lines))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")

    parser = argparse.ArgumentParser(
        prog="zimin",
        description="Zimin words, compressed factors, and ranked pattern matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="print the Zimin word Z_ORDER")
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("factor", parents=[common], help="test the Zimin factor condition")
    p.add_argument("word")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("compress", parents=[common], help="record letters of a factor")
    p.add_argument("word")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", parents=[common], help="expand a code to its word")
    p.add_argument("code")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser(
        "concat", parents=[common], help="code of a concatenation of coded factors"
    )
    p.add_argument("codes", nargs="+")
    p.set_defaults(func=cmd_concat)

    for name, func, extra in (
        ("match", cmd_match, "canonical match of a ranked pattern"),
        ("shortest", cmd_shortest, "match with the shortest instance"),
        ("count", cmd_count, "number of matches"),
        ("enumerate", cmd_enumerate, "list all matches"),
    ):
        p = sub.add_parser(name, parents=[common], help=extra)
        p.add_argument("pattern", help="variable names, e.g. 'aba' or 'x y x'")
        p.add_argument("--ranks", required=True, help="comma list, e.g. a=2,b=1")
        if name == "enumerate":
            p.add_argument("--limit", type=int, default=DEFAULT_ENUM_LIMIT)
        p.set_defaults(func=func)

    p = sub.add_parser("avoid", parents=[common], help="decide unavoidability")
    p.add_argument("pattern")
    p.add_argument("--method", choices=("ranking", "reduction", "both"), default="both")
    p.add_argument(
        "--max-size",
        type=int,
        default=None,
        help="cap on deleted free set size (reduction only)",
    )
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("verify", parents=[common], help="run the self-check suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone: end quietly, and point a real stdout at
        # devnull so that the flush at exit cannot fail again
        try:
            fd = sys.stdout.fileno()
        except ValueError:  # no descriptor (io.UnsupportedOperation): nothing to redirect
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except (SizeLimitError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotAFactorError as exc:
        print(f"NOT-FACTOR: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
