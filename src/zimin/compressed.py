"""Compressed representations of Zimin factors.

A factor w of a Zimin word is determined by its record letters: the
left-to-right maxima followed by the right-to-left maxima.  That
sequence c(w) is strictly unimodal, has at most 2k - 1 entries when
max(w) = k, and the gap between consecutive records a, b of w is
exactly Z_{min(a,b)-1}, so a record x spans 2^(x-1) letters with its
gap: the records before the peak are the binary digits of the peak's
index, and those after it the digits of the letter count after it.  All
operations here work on such codes without expanding the underlying
word unless explicitly asked to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotAFactorError, SizeLimitError
from .words import Word, _scan, generate_zimin

Code = tuple[int, ...]

# decompress() refuses to materialize words longer than this
DEFAULT_MAX_LETTERS = 2 ** 25 - 1

# the largest x for which a power 2**x (a count 2**l, a gap of
# 2**(x-1) - 1 letters) is ever built; past it SizeLimitError is raised
MAX_EXPONENT = 1 << 20


def power_of_two(x: int) -> int:
    """2**x, or SizeLimitError when x exceeds MAX_EXPONENT."""
    if x > MAX_EXPONENT:
        raise SizeLimitError(f"2^{x} is past the exponent cap {MAX_EXPONENT}")
    return 1 << x


def is_unimodal(seq) -> bool:
    """True iff ``seq`` strictly increases to a unique maximum and then
    strictly decreases.  Singletons and the empty sequence qualify."""
    if not seq:
        return True
    top = seq.index(max(seq))
    for i in range(top):
        if seq[i] >= seq[i + 1]:
            return False
    for i in range(top, len(seq) - 1):
        if seq[i] <= seq[i + 1]:
            return False
    return True


def validate_code(code) -> Code:
    code = tuple(code)
    if code and min(code) < 1:
        raise ValueError("code letters must be positive integers")
    if not is_unimodal(code):
        raise ValueError(f"not a strictly unimodal sequence: {code}")
    return code


def is_valid_code(code) -> bool:
    try:
        validate_code(code)
    except ValueError:
        return False
    return True


def _records(seq) -> Code:
    """Left-to-right maxima followed by right-to-left maxima of a
    sequence whose maximum is unique, keeping that maximum once."""
    prefix: list[int] = []
    best = 0
    for x in seq:
        if x > best:
            prefix.append(x)
            best = x
    suffix: list[int] = []
    best = 0
    for x in reversed(seq):
        if x > best:
            suffix.append(x)
            best = x
    suffix.reverse()
    return tuple(prefix[:-1] + suffix)


def compress(word) -> Code:
    """Compute c(word), read off the binary digits of the peak's index p
    and of n - 1 - p.  Raises NotAFactorError on non-factors."""
    violation, p = _scan(word)
    if violation is not None:
        raise NotAFactorError(f"factor condition fails at letter {violation}")
    if not word:
        return _records(word)  # (), or a TypeError for a falsy non-sequence
    q = len(word) - 1 - p
    up = [x for x in range(1, p.bit_length() + 1) if p >> x - 1 & 1]
    down = [x for x in range(q.bit_length(), 0, -1) if q >> x - 1 & 1]
    return (*up, word[p], *down)


def decompressed_length(code) -> int:
    """Length of the word encoded by ``code``, as an exact integer.

    The gap between records a and b has 2**(min(a,b)-1) - 1 letters, and
    the smaller of the two is the one farther from the peak.  So every
    letter x but the peak adds 2**(x-1) letters with its gap, and the
    letters on each side of the peak are distinct: each side's sum is
    one integer's set bits, built in time linear in its bit length.
    Raises SizeLimitError when an exponent exceeds MAX_EXPONENT.
    """
    code = validate_code(code)
    if not code:
        return 0
    peak = code.index(max(code))
    up, down = code[:peak], code[peak + 1 :]
    # each side is monotone, so its letter next to the peak is its largest
    top = max(up[-1] if up else 1, down[0] if down else 1)
    if top - 1 > MAX_EXPONENT:
        raise SizeLimitError(
            f"a gap of 2^{top - 1} - 1 letters is past the exponent cap {MAX_EXPONENT}"
        )
    total = 1
    for side in (up, down):
        bits = bytearray(top + 7 >> 3)
        for x in side:
            bits[x - 1 >> 3] |= 1 << (x - 1 & 7)
        total += int.from_bytes(bits, "little")
    return total


def decompress(code, max_letters: int = DEFAULT_MAX_LETTERS) -> Word:
    """Expand a code back into an explicit word.

    The gap between records a and b is Z_{min(a,b)-1}, empty when the
    smaller record is 1.
    """
    code = validate_code(code)
    if not code:
        return ()
    n = decompressed_length(code)
    if n > max_letters:
        raise SizeLimitError(f"decompressed word has {n} letters, cap is {max_letters}")
    gaps: dict[int, Word] = {}
    out = [code[0]]
    for a, b in zip(code, code[1:]):
        m = min(a, b) - 1
        if m > 0:
            out.extend(gaps.get(m) or gaps.setdefault(m, generate_zimin(m)))
        out.append(b)
    return tuple(out)


def check_concatenation(parts) -> bool:
    """Decide whether w_1 w_2 ... w_m is itself a Zimin factor, given only
    the codes of the parts.

    Round j removes letter j from every part boundary; the concatenation
    is a factor iff every junction carries exactly one j at its two
    facing ends in every round until a single part remains.  Runs in
    time linear in the total code length.
    """
    return _joins([validate_code(p) for p in parts])


def _joins(codes) -> bool:
    """check_concatenation on codes that are already validated."""
    active = [deque(code) for code in codes if code]
    level = 1
    while len(active) > 1:
        for left, right in zip(active, active[1:]):
            if (left[-1] == level) == (right[0] == level):
                return False
        for rep in active:
            if rep[-1] == level:
                rep.pop()
            if rep and rep[0] == level:
                rep.popleft()
        active = [rep for rep in active if rep]
        level += 1
    return True


def compose(parts) -> Code:
    """Code of the concatenation, or NotAFactorError if it is not a factor.

    Records of the whole word are found among the parts' records, so
    scanning the flattened codes for running maxima suffices; the word
    itself is never expanded.
    """
    codes = [validate_code(p) for p in parts]
    if not _joins(codes):
        raise NotAFactorError("concatenation is not a Zimin factor")
    return _records([x for code in codes for x in code])


@dataclass(frozen=True)
class ZBlock:
    """Token standing for a whole Zimin word Z_order."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"block order must be >= 1, got {self.order}")

    def __repr__(self):
        return f"Z{self.order}"


Token = int | ZBlock


def block_code(order: int) -> Code:
    """c(Z_order) = 1 2 ... order ... 2 1."""
    if order < 1:
        raise ValueError(f"block order must be >= 1, got {order}")
    up = list(range(1, order + 1))
    return tuple(up + up[-2::-1])


def extend(code) -> list:
    """Rewrite a code as tokens, making the implicit Zimin gaps explicit.

    Records stay as plain letters except that a boundary 1 is already a
    full Z_1; every nonempty gap becomes its ZBlock.
    """
    code = validate_code(code)
    blocks, tokens = {}, []  # one block per order
    for x, y in zip(code, code[1:] + (0,)):
        # unimodality puts 1 only at the ends, where it spans Z_1
        tokens.append(x if x > 1 else blocks.get(1) or blocks.setdefault(1, ZBlock(1)))
        m = (x if x < y else y) - 1
        if m > 0:
            tokens.append(blocks.get(m) or blocks.setdefault(m, ZBlock(m)))
    return tokens


def token_code(token) -> Code:
    if isinstance(token, ZBlock):
        return block_code(token.order)
    return (token,)


def expand_tokens(tokens, max_letters: int = DEFAULT_MAX_LETTERS) -> Word:
    """Explicit word spelled by a token sequence."""
    total = 0
    for tok in tokens:
        if isinstance(tok, ZBlock):
            # past the cap's bit length one block alone exceeds the cap
            total += 2 ** min(tok.order, max_letters.bit_length() + 1) - 1
        else:
            total += 1
        if total > max_letters:
            raise SizeLimitError(f"token expansion exceeds cap {max_letters}")
    out: list[int] = []
    for tok in tokens:
        if isinstance(tok, ZBlock):
            out.extend(generate_zimin(tok.order))
        else:
            if tok < 1:
                raise ValueError("letters must be positive integers")
            out.append(tok)
    return tuple(out)


def reduce_extended(tokens) -> list:
    """Merge a token sequence into its shortest equivalent form.

    Z_{i-1} i Z_{i-1} collapses to Z_i in one left-to-right stack pass,
    in O(tokens): letter 1 is Z_1, and while a block Z_{i-1} meets
    Z_{i-1} i on top of the stack the three merge into Z_i, which may
    complete a triple below.  Merges only regroup tokens, and two
    triples can share only a block, as in Z_{i-1} i Z_{i-1} i Z_{i-1},
    which is no factor (two i's in a Zimin word are 2^i apart), so every
    merge order ends in this same form.  Raises NotAFactorError when the
    spelled word is not a Zimin factor.
    """
    stack: list = []  # a letter x as x, a block Z_i as -i, so letter 1 as -1
    for tok in tokens:
        if isinstance(tok, ZBlock):
            t = -tok.order
        elif tok < 1:
            raise ValueError("letters must be positive integers")
        else:
            t = -1 if tok == 1 else tok
        while t < 0 and len(stack) >= 2 and stack[-1] == 1 - t and stack[-2] == t:
            del stack[-2:]
            t -= 1
        stack.append(t)
    if not _joins([block_code(-t) if t < 0 else (t,) for t in stack]):
        raise NotAFactorError("token sequence does not spell a Zimin factor")
    blocks = {t: ZBlock(-t) for t in set(stack) if t < 0}
    return [blocks.get(t, t) for t in stack]
