"""The four workloads: seeded inputs, the timed call of each op, its check.

Inputs are plain tuples, dicts and strings made here from the seed; the
generators share no code with the library, so a change to the library
(including ``verification.make_scaling_pattern``) cannot change them.
A seed yields a pool of rounds.  A round is a fixed list of ops, one per
op kind in a fixed order, so every round has the same mix.  The run
repeats the whole pool for as long as it measures.

Every answer is checked against an expectation that does not come from
the matching engine: construction class, closed forms, brute-force
oracles for small inputs, and the code algebra of ``zimin.compressed``.
The one exception is the count of a large ``match`` input, which has no
closed form here and is compared with 2**l from ``compressed_embedding``.
``check`` returns None when the answer is right and a message otherwise.
An op that raises or exits with an error is a failed op, counted apart
from a wrong answer.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from time import perf_counter

# ---------------------------------------------------------------------------
# Library-independent helpers


def zimin_word(k: int) -> list:
    word = [1]
    for letter in range(2, k + 1):
        word = word + [letter] + word
    return word


def ruler(start: int, count: int) -> list:
    """1 + 2-adic valuation of start+1 .. start+count; between two equal
    values there is always a larger one, and the maximum is unique."""
    return [(p & -p).bit_length() for p in range(start + 1, start + count + 1)]


def records(word) -> tuple:
    """Left-to-right maxima then right-to-left maxima: the code of a factor."""
    prefix, best = [], 0
    for x in word:
        if x > best:
            prefix.append(x)
            best = x
    suffix, best = [], 0
    for x in reversed(word):
        if x > best:
            suffix.append(x)
            best = x
    return tuple(prefix[:-1] + suffix[::-1])


def tops_at(code, rank: int) -> bool:
    """Strictly unimodal with maximum ``rank``: a factor whose top letter is rank."""
    if not code or max(code) != rank or min(code) < 1:
        return False
    top = code.index(rank)
    return all(a < b for a, b in zip(code[:top], code[1 : top + 1])) and all(
        a > b for a, b in zip(code[top:], code[top + 1 :])
    )


def code_length(code) -> int:
    """Letters spelled by a code: records plus a Z_{min-1} between neighbours."""
    return len(code) + sum((1 << (min(a, b) - 1)) - 1 for a, b in zip(code, code[1:]))


def split_points(rng, length: int, parts: int) -> list:
    cuts = sorted(rng.sample(range(1, length), parts - 1))
    return list(zip([0] + cuts, cuts + [length]))


def _broken_adjacent(seq) -> bool:
    return any(a == b for a, b in zip(seq, seq[1:]))


def _broken_top(seq) -> bool:
    return seq.count(max(seq)) > 1


def _rename(rng, count: int, prefix: str) -> list:
    """``count`` distinct variable names, shuffled by the seed."""
    names = [f"{prefix}{i}" for i in range(count)]
    rng.shuffle(names)
    return names


class Workload:
    name = ""
    # rounds in one pool; generate(seed, rounds) overrides it
    pool_rounds = 1

    def __init__(self, lib):
        # lib: namespace of freshly imported zimin modules.  Checks use the
        # functions captured here, before any tracing hook is installed.
        self.lib = lib
        self.check_concatenation = lib.compressed.check_concatenation
        self.tracer = None  # set during a traced pass

    def prepare(self, kind, spec):
        """The op's input, made from its entry in the pool before the op is timed."""
        return spec

    def failure(self, out):
        """Cause of an op that returned without an answer, or None."""
        return None

    def after_trace(self, tracer):
        """Record measurements that belong to a traced pass but to no op."""

    def generate(self, seed: int, rounds: int | None = None) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.round(rng, index) for index in range(rounds or self.pool_rounds)]

    def match_ok(self, symbols, ranks, valuation):
        """Each variable's code tops at its rank and the codes, in pattern
        order, concatenate to a Zimin factor."""
        for var, code in valuation.items():
            if not tops_at(code, ranks[var]):
                return f"code of {var} does not top at rank {ranks[var]}"
        if set(valuation) != set(ranks):
            return "valuation misses variables"
        if not self.check_concatenation([valuation[s] for s in symbols]):
            return "codes in pattern order do not concatenate to a factor"
        return None


# ---------------------------------------------------------------------------
# codes: factor test and code algebra; the matching engine stays idle


class Codes(Workload):
    """Long windows of Z_17 and perturbed non-factors.  Sizes put every op
    kind at a few milliseconds.  A window is held as (start, length) and
    spelled out just before its op, so the pool adds little to the run's
    peak RSS."""

    name = "codes"
    pool_rounds = 24
    ORDER = 17
    FV_LEN = 1 << 16
    ROUNDTRIP_LEN = 1 << 15
    SPLIT_LEN = 1 << 14
    COMPOSE_PARTS = 800
    REDUCE_PARTS = 90

    def __init__(self, lib):
        super().__init__(lib)
        self.z = zimin_word(self.ORDER)
        # a word with top letter m is a factor iff it occurs in Z_m, and
        # Z_17 holds every Z_m, m <= 17, as a block
        self.z_text = "".join(map(chr, self.z))

    def is_factor(self, word) -> bool:
        return "".join(map(chr, word)) in self.z_text

    def spell(self, window) -> tuple:
        start, length = window
        return tuple(self.z[start : start + length])

    def window(self, rng, length):
        return rng.randrange(len(self.z) - length + 1), length

    def non_factor(self, rng, length):
        """(window, position, letter): the window with one letter changed."""
        while True:
            window = self.window(rng, length)
            word = list(self.spell(window))
            pos = rng.randrange(length // 4, 3 * length // 4)
            if word[pos] < 2:
                pos += 1
            word[pos] = rng.choice([x for x in range(2, self.ORDER + 1) if x != word[pos]])
            if not self.is_factor(word):
                return window, pos, word[pos]

    def split_codes(self, rng, word, parts):
        return tuple(records(word[a:b]) for a, b in split_points(rng, len(word), parts))

    def round(self, rng, index):
        half = self.SPLIT_LEN // 2
        while True:
            joined = self.spell(self.window(rng, half)) + self.spell(self.window(rng, half))
            if not self.is_factor(joined):
                break
        reduce_window = self.window(rng, self.SPLIT_LEN)
        compose_window = self.window(rng, self.SPLIT_LEN)
        # each part lies inside one half, so each part is itself a factor
        bad_codes = self.split_codes(rng, joined[:half], self.COMPOSE_PARTS // 2) + self.split_codes(
            rng, joined[half:], self.COMPOSE_PARTS // 2
        )
        compose_codes = self.split_codes(rng, self.spell(compose_window), self.COMPOSE_PARTS)
        reduce_codes = self.split_codes(rng, self.spell(reduce_window), self.REDUCE_PARTS)
        return [
            ("first_violation", self.window(rng, self.FV_LEN)),
            ("first_violation_non_factor", self.non_factor(rng, self.FV_LEN)),
            ("roundtrip", self.window(rng, self.ROUNDTRIP_LEN)),
            ("compose", (compose_window, compose_codes)),
            ("check_concatenation_non_factor", bad_codes),
            ("reduce_extended", (reduce_window, reduce_codes)),
        ]

    def prepare(self, kind, spec):
        if kind == "check_concatenation_non_factor":
            return spec
        if kind in ("compose", "reduce_extended"):
            return self.spell(spec[0]), spec[1]
        if kind == "first_violation_non_factor":
            window, pos, letter = spec
            word = list(self.spell(window))
            word[pos] = letter
            return tuple(word)
        return self.spell(spec)

    def call(self, kind, inp):
        words, compressed = self.lib.words, self.lib.compressed
        if kind in ("first_violation", "first_violation_non_factor"):
            return words.first_violation(inp)
        if kind == "roundtrip":
            code = compressed.compress(inp)
            return code, compressed.decompress(code)
        if kind == "compose":
            return compressed.compose(inp[1])
        if kind == "check_concatenation_non_factor":
            return compressed.check_concatenation(inp)
        if kind == "reduce_extended":
            return compressed.reduce_extended([t for code in inp[1] for t in compressed.extend(code)])
        raise ValueError(kind)

    def check(self, kind, inp, out):
        if kind == "first_violation":
            return None if out is None else f"window of Z_{self.ORDER} reported NOT-FACTOR at {out}"
        if kind == "first_violation_non_factor":
            if isinstance(out, int) and 1 <= out <= max(inp):
                return None
            return f"non-factor reported as {out!r}"
        if kind == "roundtrip":
            code, word = out
            if code != records(inp):
                return "compress differs from the record letters"
            return None if word == inp else "decompress(compress(w)) != w"
        if kind == "compose":
            return None if out == records(inp[0]) else "compose differs from the record letters"
        if kind == "check_concatenation_non_factor":
            return None if out is False else "split of a non-factor accepted"
        if kind == "reduce_extended":
            ZBlock = self.lib.compressed.ZBlock
            spelled = []
            for tok in out:
                spelled.extend(self.z[: (1 << tok.order) - 1] if isinstance(tok, ZBlock) else (tok,))
            if tuple(spelled) != inp[0]:
                return "reduced tokens do not spell the window"
            for left, mid, right in zip(out, out[1:], out[2:]):
                if (
                    not isinstance(mid, ZBlock)
                    and left == right == ZBlock(mid - 1)
                ):
                    return "reduced tokens still hold a mergeable Z_(i-1) i Z_(i-1)"
            return None
        return f"unknown op {kind}"


# ---------------------------------------------------------------------------
# match: the level engine on dense ranks


class Match(Workload):
    """Two dense-rank shapes through all four products, small-l inputs for
    enumeration, and rankings built to break one condition each."""

    name = "match"
    pool_rounds = 12
    CHAIN_TOP = 100
    CHAIN_RULER = 7  # ruler part: ranks 1..7, 127 positions
    DRULER_LEN = 300  # inside one 512-block: ruler values 1..9
    DRULER_SHIFT = 10
    PRODUCTS = ("compressed_embedding", "shortest_instance", "count_instances")
    ALL_PRODUCTS = PRODUCTS + ("enumerate_instances",)

    def __init__(self, lib):
        super().__init__(lib)
        # the engine's own l, to check count == 2**l across products
        self.ref_embedding = lib.matching.compressed_embedding
        self.decompress = lib.compressed.decompress
        self.oracle = lib.oracle

    def chain_ruler(self, rng, top, ruler_top, ruler_len, at=None):
        """Decreasing chain of fresh variables over ranks top..ruler_top+1,
        inserted into a ruler over ranks 1..ruler_top: l is about top^2/2."""
        chain_names = _rename(rng, top - ruler_top, "c")
        ruler_names = _rename(rng, ruler_top, "w")
        ranks = {}
        chain = []
        for name, rank in zip(chain_names, range(top, ruler_top, -1)):
            chain.append(name)
            ranks[name] = rank
        part = []
        for value in ruler(0, ruler_len):
            part.append(ruler_names[value - 1])
            ranks[ruler_names[value - 1]] = value
        at = rng.randrange(len(part) + 1) if at is None else at
        return tuple(part[:at] + chain + part[at:]), ranks

    def distinct_ruler(self, rng, length, shift, tail_first):
        """A distinct variable per ruler position with ranks shifted up, plus
        a descending tail over ranks shift..1 so no level is empty."""
        block = 1 << length.bit_length()
        start = block * rng.randrange(1, 64) + rng.randrange(block - length)
        names = _rename(rng, length + shift, "x")
        ranks = {}
        body = []
        for name, value in zip(names, ruler(start, length)):
            body.append(name)
            ranks[name] = value + shift
        tail = []
        for name, rank in zip(names[length:], range(shift, 0, -1)):
            tail.append(name)
            ranks[name] = rank
        return tuple(tail + body if tail_first else body + tail), ranks

    def round(self, rng, index):
        chain = self.chain_ruler(rng, self.CHAIN_TOP, self.CHAIN_RULER, (1 << self.CHAIN_RULER) - 1)
        druler = self.distinct_ruler(rng, self.DRULER_LEN, self.DRULER_SHIFT, rng.random() < 0.5)
        # small inputs within the oracle's budget (at most 8 symbols, top
        # rank 4), so their counts and enumerations meet the brute force
        small_chain = self.chain_ruler(rng, 4, 2, 3, at=0)
        small_ruler = self.distinct_ruler(rng, 7, 1, False)
        ops = [(p, chain) for p in self.PRODUCTS] + [(p, druler) for p in self.PRODUCTS]
        ops += [(p, small) for small in (small_chain, small_ruler) for p in ("count_instances", "enumerate_instances")]
        # one ranking built to break a condition: over eight rounds, each
        # product meets each of the two conditions
        product = self.ALL_PRODUCTS[index % len(self.ALL_PRODUCTS)]
        if (index // len(self.ALL_PRODUCTS)) % 2 == 0:
            symbols, ranks = self.chain_ruler(rng, self.CHAIN_TOP, self.CHAIN_RULER, (1 << self.CHAIN_RULER) - 1)
            top = max(ranks, key=ranks.get)
            pos = rng.randrange(len(symbols) + 1)
            broken = (symbols[:pos] + (top,) + symbols[pos:], ranks)  # max-rank-repeated
        else:
            symbols, ranks = self.distinct_ruler(rng, self.DRULER_LEN, self.DRULER_SHIFT, False)
            pos = rng.randrange(1, self.DRULER_LEN)
            ranks = dict(ranks)
            ranks[symbols[pos]] = ranks[symbols[pos - 1]]  # equal-ranks-unseparated
            broken = (symbols, ranks)
        ops.append(("no_match:" + product, broken))
        return ops

    def call(self, kind, inp):
        matching = self.lib.matching
        product = kind.partition(":")[2] or kind
        return getattr(matching, product)(matching.RankedPattern(inp[0], inp[1]))

    def in_budget(self, symbols, ranks):
        budget = self.oracle.OracleBudget()
        return max(ranks.values()) <= budget.max_k and len(symbols) <= budget.max_pattern_len

    def check(self, kind, inp, out):
        symbols, ranks = inp
        if kind.startswith("no_match:"):
            seq = [ranks[s] for s in symbols]
            if not (_broken_adjacent(seq) or _broken_top(seq)):
                return "no_match input does not break a condition"
            return None if out in (None, 0, []) else f"broken ranking matched: {type(out).__name__}"
        if out is None:
            return "valid dense ranking reported NO-MATCH"
        if kind in ("compressed_embedding", "shortest_instance"):
            return self.match_ok(symbols, ranks, out.valuation)
        pattern = self.lib.matching.RankedPattern(symbols, ranks)
        ref = self.ref_embedding(pattern)
        if kind == "count_instances":
            # 2**l, with l from compressed_embedding, is the engine's own
            # figure; only inputs within the oracle budget meet an outside one
            if out != 1 << ref.free_components:
                return "count != 2**free_components"
            if self.in_budget(symbols, ranks) and out != self.oracle.oracle_count(pattern):
                return "count differs from the brute-force oracle"
            return None
        if kind == "enumerate_instances":
            if len(out) != 1 << ref.free_components:
                return "enumeration size != 2**free_components"
            if out[0] != ref.valuation:
                return "enumeration does not start with the canonical match"
            keys = {tuple(v[s] for s in ranks) for v in out}
            if len(keys) != len(out):
                return "enumeration repeats a valuation"
            for val in out:
                bad = self.match_ok(symbols, ranks, val)
                if bad:
                    return bad
            if self.in_budget(symbols, ranks):
                order = pattern.variables
                explicit = {tuple(self.decompress(v[s]) for s in order) for v in out}
                if explicit != self.oracle.oracle_enumerate(pattern):
                    return "enumeration differs from the brute-force oracle"
            return None
        return f"unknown op {kind}"


# ---------------------------------------------------------------------------
# avoid: both deciders

AVOID_VARIABLES = 5
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def square(rng) -> str:
    """u u' with u' a permutation of u: every variable occurs twice."""
    v = rng.sample(LETTERS, AVOID_VARIABLES)
    return "".join(v + rng.sample(v, len(v)))


def shuffled(rng) -> str:
    """A shuffle in which every variable occurs two or three times."""
    letters = [x for x in rng.sample(LETTERS, AVOID_VARIABLES) for _ in range(rng.choice((2, 3)))]
    rng.shuffle(letters)
    return "".join(letters)


def zimin_factor(rng) -> str:
    """A renamed factor, maybe reversed, of the Zimin pattern Z_5, Z_6 or Z_7."""
    z = zimin_word(rng.choice((5, 6, 7)))
    while True:
        i = rng.randrange(len(z))
        j = rng.randrange(i + 1, len(z) + 1)
        if len(set(z[i:j])) == AVOID_VARIABLES:
            break
    part = z[i:j] if rng.random() < 0.5 else z[i:j][::-1]
    rename = dict(zip(sorted(set(part)), rng.sample(LETTERS, AVOID_VARIABLES)))
    return "".join(rename[x] for x in part)


class Avoid(Workload):
    """Five-variable patterns: squares and shuffles in which every variable
    occurs at least twice (AVOIDABLE: an unavoidable pattern has a variable
    occurring once), and renamed factors of Zimin patterns (UNAVOIDABLE).
    Each op asks for a decision as ``zimin avoid`` does: reduction, then
    ranking.  At five variables the ranking search costs about 10x the
    reduction search; at six it is about 40x and at seven about 170x."""

    name = "avoid"
    pool_rounds = 20

    def round(self, rng, index):
        return [
            ("avoidable", square(rng)),
            ("avoidable", shuffled(rng)),
            ("unavoidable", zimin_factor(rng)),
            ("avoidable", square(rng)),
            ("avoidable", shuffled(rng)),
            ("unavoidable", zimin_factor(rng)),
        ]

    def call(self, kind, inp):
        avoidability = self.lib.avoidability
        pattern = tuple(inp)
        return (
            avoidability.is_unavoidable_by_reduction(pattern),
            avoidability.is_unavoidable_by_ranking(pattern),
        )

    def check(self, kind, inp, out):
        reduction, ranking = out
        want = kind  # "avoidable" or "unavoidable"
        if reduction.verdict.value != want or ranking.verdict.value != want:
            return (
                f"{want} pattern decided {reduction.verdict.value} by reduction, "
                f"{ranking.verdict.value} by ranking"
            )
        if want == "unavoidable":
            bad = self.match_ok(tuple(inp), ranking.ranking, ranking.match.valuation)
            if bad:
                return "ranking witness: " + bad
            rest = tuple(inp)
            for pattern, deleted in reduction.trace:
                if pattern != rest:
                    return "reduction trace does not follow its deletions"
                rest = tuple(s for s in rest if s not in deleted)
            if rest:
                return "reduction trace does not empty the pattern"
        return None


# ---------------------------------------------------------------------------
# cli: one ``python -m zimin.cli ... --json`` process at a time


class Cli(Workload):
    """Typed-size commands, sparse ranks of 10^3..10^4 on ``aba``, and the
    200-variable decreasing chain whose ``count`` (2^19900) is a known
    failure: it exits 2 on the 4300-digit integer conversion limit."""

    # one round: every op gets many repetitions per run, which is what makes
    # the median cost of a process start-up steady
    name = "cli"
    pool_rounds = 1
    CHAIN = 200

    INTERPRETER_RUNS = 5

    def __init__(self, lib, env, probe, trace_dir):
        super().__init__(lib)
        self.env = env  # puts the checkout's src/ on PYTHONPATH
        self.probe = probe  # argv prefix of a traced CLI process
        self.trace_dir = trace_dir
        self.z = zimin_word(8)
        self.z_text = "".join(map(chr, self.z))
        self.oracle = lib.oracle
        self.decompress = lib.compressed.decompress
        self.RankedPattern = lib.matching.RankedPattern

    def word(self, rng, length):
        i = rng.randrange(len(self.z) - length + 1)
        return self.z[i : i + length]

    def ranks_arg(self, ranks):
        return ",".join(f"{v}={r}" for v, r in ranks.items())

    def sparse(self, rng, low, high):
        return f"a=1,b={rng.randrange(low, high + 1)}"

    def round(self, rng, index):
        w = self.word(rng, rng.randrange(40, 80))
        bad = list(self.word(rng, rng.randrange(40, 80)))
        pos = rng.randrange(len(bad))
        bad[pos] = 1 if bad[pos] > 1 else 2
        parts = [w[a:b] for a, b in split_points(rng, len(w), rng.randrange(3, 6))]
        # a chain over ranks 9..5 in a ruler over 1..4: about 20 symbols
        top = 9
        ruler_names = rng.sample("abcd", 4)
        chain_names = rng.sample("efghi", top - 4)
        sym = [ruler_names[v - 1] for v in ruler(0, 15)]
        at = rng.randrange(len(sym) + 1)
        sym[at:at] = chain_names
        ranks = {n: r for n, r in zip(chain_names, range(top, 4, -1))}
        ranks.update({n: i + 1 for i, n in enumerate(ruler_names)})
        pattern = "".join(sym)
        broken = dict(ranks)
        broken[chain_names[1]] = top  # max-rank-repeated
        chain_len = rng.randrange(10, 27)
        chain = "".join(rng.sample("abcdefghijklmnopqrstuvwxyz", chain_len))
        small = rng.sample("pqrstuvw", 8)  # ruler 2,3,2,4,2,3,2 then 1
        small_ranks = {n: v + 1 for n, v in zip(small, ruler(0, 7))}
        small_ranks[small[7]] = 1
        avoid = square(rng) if rng.random() < 0.5 else zimin_factor(rng)
        big = [f"v{i}" for i in range(self.CHAIN)]
        ops = [
            ("factor", ["factor", "".join(map(str, w))]),
            ("factor", ["factor", "".join(map(str, bad))]),
            ("compress", ["compress", "".join(map(str, w))]),
            ("concat", ["concat"] + [",".join(map(str, records(p))) for p in parts]),
            ("match", ["match", pattern, "--ranks", self.ranks_arg(ranks)]),
            ("shortest", ["shortest", pattern, "--ranks", self.ranks_arg(ranks)]),
            ("match", ["match", pattern, "--ranks", self.ranks_arg(broken)]),
            ("count", ["count", chain, "--ranks", self.ranks_arg({v: chain_len - i for i, v in enumerate(chain)})]),
            ("enumerate", ["enumerate", "".join(small), "--ranks", self.ranks_arg(small_ranks)]),
            ("avoid", ["avoid", avoid]),
            # sparse ranks, log-spaced over 10^3..10^4: the engine's time is
            # linear in b; count stays below b = 7144, where 4^(b-2) reaches
            # 4300 digits.  The match on b near 9000 is cli's slowest op and
            # sets its tail, so b moves by only 2% with the seed.
            ("match", ["match", "aba", "--ranks", self.sparse(rng, 9000, 9180)]),
            ("shortest", ["shortest", "aba", "--ranks", self.sparse(rng, 3000, 3060)]),
            ("count", ["count", "aba", "--ranks", self.sparse(rng, 1000, 1020)]),
            ("count", ["count", " ".join(big), "--ranks", self.ranks_arg({v: self.CHAIN - i for i, v in enumerate(big)})]),
        ]
        return ops

    def _run(self, argv):
        return subprocess.run(argv, capture_output=True, text=True, env=self.env, timeout=120)

    def call(self, kind, argv):
        if self.tracer is None:
            return self._run([sys.executable, "-m", "zimin.cli"] + argv + ["--json"])
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        spans = self.trace_dir / "probe.json"
        proc = self._run(self.probe + [str(spans)] + argv + ["--json"])
        dump = json.loads(spans.read_text())
        spans.unlink()
        self.tracer.merge(dump, self.tracer.current())
        self.tracer.count("cli.processes", 1)
        self.tracer.count("cli.import_ms", dump["import_ms"])
        self.tracer.count(f"cli.exit_codes.{proc.returncode}", 1)
        return proc

    def after_trace(self, tracer):
        for _ in range(self.INTERPRETER_RUNS):
            t0 = perf_counter()
            self._run([sys.executable, "-c", "pass"])
            tracer.count("cli.interpreter_ms", (perf_counter() - t0) * 1000.0)
            tracer.count("cli.interpreter_runs", 1)

    def failure(self, proc):
        """Cause of an error exit, or None for an answer (exit 0 or 1)."""
        if proc.returncode in (0, 1):
            return None
        lines = proc.stderr.strip().splitlines()
        return f"exit {proc.returncode}: {lines[-1] if lines else 'no message'}"

    def check(self, kind, argv, proc):
        try:
            out = json.loads(proc.stdout, parse_int=_big_int)
        except ValueError:
            return f"output is not JSON: {proc.stdout[:80]!r}"
        rc = proc.returncode
        if kind == "factor":
            word = tuple(int(c) for c in argv[1])
            want = "".join(map(chr, word)) in self.z_text
            if out.get("factor") is not want or rc != (0 if want else 1):
                return "factor verdict differs from substring search in Z_8"
            return None
        if kind == "compress":
            return None if tuple(out["code"]) == records(tuple(int(c) for c in argv[1])) else "wrong code"
        if kind == "concat":
            codes = [tuple(int(x) for x in c.split(",")) for c in argv[1:]]
            word = [x for c in codes for x in self.decompress(c)]
            return None if tuple(out["code"]) == records(word) else "wrong concatenation code"
        if kind == "avoid":
            pattern = argv[1]
            counts = [pattern.count(x) for x in set(pattern)]
            want = "avoidable" if min(counts) >= 2 else "unavoidable"
            return None if out["verdict"] == want and rc == 0 else f"verdict {out['verdict']}, want {want}"
        symbols, ranks = _parse_ranked(argv)
        seq = [ranks[s] for s in symbols]
        if kind in ("match", "shortest"):
            if _broken_adjacent(seq) or _broken_top(seq):
                return None if rc == 1 and out["valuation"] is None else "broken ranking matched"
            if rc != 0 or out["valuation"] is None:
                return "valid ranking reported NO-MATCH"
            val = {v: tuple(c) for v, c in out["valuation"].items()}
            bad = self.match_ok(symbols, ranks, val)
            if bad or kind == "match":
                return bad
            length = sum(code_length(val[s]) for s in symbols)
            return None if out["length"] == length else "reported length differs from the codes"
        if kind == "count":
            if sorted(seq, reverse=True) == seq and len(set(seq)) == len(seq):
                want = 1 << (len(seq) * (len(seq) - 1) // 2)  # decreasing chain
            else:
                want = 1 << (2 * (ranks["b"] - 2))  # aba with a = 1
            return None if rc == 0 and out["count"] == want else "count differs from its closed form"
        if kind == "enumerate":
            pattern = self.RankedPattern(symbols, ranks)
            got = {
                tuple(self.decompress(tuple(v[s])) for s in pattern.variables)
                for v in out["valuations"]
            }
            if len(got) != out["count"] or got != self.oracle.oracle_enumerate(pattern):
                return "enumeration differs from the brute-force oracle"
            return None
        return f"unknown op {kind}"


def _parse_ranked(argv):
    pattern = argv[1]
    symbols = tuple(pattern.split()) if " " in pattern else tuple(pattern)
    ranks = {}
    for item in argv[argv.index("--ranks") + 1].split(","):
        var, _, value = item.partition("=")
        ranks[var] = int(value)
    return symbols, ranks


def _big_int(text: str) -> int:
    """Exact int of a decimal string of any length, without the global
    conversion limit (counts here reach thousands of digits)."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


WORKLOADS = {w.name: w for w in (Codes, Match, Avoid, Cli)}
