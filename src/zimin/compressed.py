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

Concatenations are decided by a left fold over each part's peak and the
bit masks of its two sides, taken in the loop that walks the part
(check_concatenation); compose reads the records of the whole off the
parts whose peak tops every part before or after them.  Expansions spell
Zimin words as bytes: a call spells its largest gap once, and every
smaller gap is a prefix of it.
"""

from __future__ import annotations

from .errors import NotAFactorError, SizeLimitError
from .words import MAX_ORDER, Word, _scan, _spell_zimin

Code = tuple[int, ...]

# decompress() and expand_tokens() spell no word longer than Z_MAX_ORDER
MAX_LETTERS = 2**MAX_ORDER - 1

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
    rising, items = True, iter(seq)
    for prev in items:
        for x in items:
            if not (prev < x if rising else x < prev):
                if not (rising and x < prev):
                    return False
                rising = False
            prev = x
    return True


def validate_code(code) -> Code:
    code = tuple(code)
    if code and min(code) < 1:
        raise ValueError("code letters must be positive integers")
    if not is_unimodal(code):
        raise ValueError(f"not a strictly unimodal sequence: {code}")
    return code


def compress(word) -> Code:
    """Compute c(word), read off the binary digits of the peak's index p
    and of n - 1 - p.  Raises NotAFactorError on non-factors."""
    word = word if isinstance(word, (tuple, list)) else tuple(word)  # _scan and word[p] read it
    violation, p = _scan(word)
    if violation is not None:
        raise NotAFactorError(f"factor condition fails at letter {violation}")
    if not word:
        return ()
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
    return 1 + (_bits(up, top) + _bits(down, top) >> 1)


def _bits(letters, top: int) -> int:
    """Sum of 2**x over distinct letters x <= top, in linear time."""
    bits = bytearray((top >> 3) + 1)
    for x in letters:
        if x <= top:
            bits[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(bits, "little")


def decompress(code) -> Word:
    """Expand a code back into an explicit word.

    The gap between records a and b is Z_{min(a,b)-1}, empty when the
    smaller record is 1.  Each gap Z_m is the first 2^m - 1 bytes of the
    largest gap so far, so the call spells its largest gap once.  Raises
    SizeLimitError past MAX_LETTERS letters, before any is spelled.
    """
    code = tuple(code)
    n = decompressed_length(code)  # validates the code
    if n > MAX_LETTERS:
        raise SizeLimitError(f"decompressed word has {n} letters, cap is {MAX_LETTERS}")
    z, out = b"", list(code[:1])
    for a, b in zip(code, code[1:]):
        m = min(a, b) - 1
        if m > 0:
            if m > len(z).bit_length():
                z = _spell_zimin(m, word=z)
            out += z[: (1 << m) - 1]
        out.append(b)
    return tuple(out)


def check_concatenation(parts) -> bool:
    """Decide whether w_1 w_2 ... w_m is itself a Zimin factor, given only
    the codes of the parts.

    Round j removes letter j from every part boundary; the concatenation
    is a factor iff every junction carries exactly one j at its two
    facing ends in every round until a single part remains: bits
    1..min(a, b) of the parts so far's end mask (peak a) XOR the next
    part's start mask (peak b) must all be set, and min(a, b) past a cap
    of the letter count fails unread.  Linear in the letters plus the
    peaks divided by the word size.
    """
    return _peaks([tuple(part) for part in parts]) is not None


def _peaks(codes: list):
    """The parts' peaks if every junction passes, else None.  Each part is
    walked and validated as validate_code does, also after a failing
    junction, in the loop that takes its junction with the parts before."""
    cap = sum(map(len, codes))
    lim = cap if cap < 4096 else 4096
    peaks, a, end = [], 0, 0  # a < 0 once a junction fails
    for code in codes:
        start = end_b = peak = prev = 0
        for x in code:
            if x > peak and prev == peak:
                if x > lim:
                    peak, start, end_b = _long_sides(code, x, start, cap)
                    break
                start |= (end_b := 1 << x)
                peak = x
            elif 0 < x < prev:
                end_b |= 1 << x
            else:
                validate_code(code)  # rejects the code, with its own error
            prev = x
        peaks.append(peak)
        if a >= 0:
            m = a if a < peak else peak
            if m > cap or (end ^ start) & (need := (2 << m) - 2) != need:
                a = -1
            else:
                a, end = (a if a > peak else peak), end & -(2 << m) | end_b
    return peaks if a >= 0 else None


def _long_sides(code: Code, x, start: int, cap: int):
    """(peak, start mask, end mask) of a code whose rising letter x is past
    ``cap`` or 4096, given the start mask of the letters before x: from x
    on, _bits sets the bits, none above ``cap``, in linear time where
    shifts are quadratic."""
    rest = code[code.index(x) :]
    if not is_unimodal(rest) or rest[-1] < 1:
        validate_code(code)
    i, top = rest.index(peak := max(rest)), min(peak, cap)
    return peak, start | _bits(rest[: i + 1], top), _bits(rest[i:], top)


def _fold(sides, cap: int) -> bool:
    """True iff every junction of the (peak, start, end mask) triples passes."""
    a = end = 0
    for b, start_b, end_b in sides:
        m = a if a < b else b
        if m > cap or (end ^ start_b) & (need := (2 << m) - 2) != need:
            return False
        a, end = (a if a > b else b), end & -(2 << m) | end_b
    return True


def compose(parts) -> Code:
    """Code of the concatenation, or NotAFactorError if it is not a factor.

    The junctions are decided as in check_concatenation.  A left-to-right
    maximum of the whole word is one of its part's that tops every peak
    before that part, so the records are read off the parts whose peak
    tops every part before (or after) them, and no word is expanded.
    """
    codes = [tuple(part) for part in parts]
    peaks = _peaks(codes)
    if peaks is None:
        raise NotAFactorError("concatenation is not a Zimin factor")
    up, best = [], 0
    for code, peak in zip(codes, peaks):
        if peak > best:
            up += [x for x in code[: code.index(peak) + 1] if x > best]
            best = peak
    down, best = [], 0
    for code, peak in zip(reversed(codes), reversed(peaks)):
        if peak > best:
            down += [x for x in reversed(code[code.index(peak) :]) if x > best]
            best = peak
    return (*up[:-1], *reversed(down))  # both end at the word's peak


class ZBlock:
    """Token standing for a whole Zimin word Z_order."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        if order < 1:
            raise ValueError(f"block order must be >= 1, got {order}")
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ZBlock is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.order == other.order if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"Z{self.order}"


Token = int | ZBlock


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


def expand_tokens(tokens) -> Word:
    """Explicit word spelled by a token sequence.  Raises SizeLimitError
    on more than MAX_LETTERS letters, before any is spelled."""
    tokens, total = list(tokens), 0  # read twice: counted, then spelled
    for tok in tokens:
        # past MAX_ORDER one block alone exceeds the cap
        total += 2 ** min(tok.order, MAX_ORDER + 1) - 1 if isinstance(tok, ZBlock) else 1
        if total > MAX_LETTERS:
            raise SizeLimitError(f"token expansion exceeds cap {MAX_LETTERS}")
    z, out = b"", []  # every block is a prefix of the largest so far
    for tok in tokens:
        if isinstance(tok, ZBlock):
            if tok.order > len(z).bit_length():
                z = _spell_zimin(tok.order, word=z)
            out += z[: (1 << tok.order) - 1]
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
    # junctions read no bit past the second peak or past the bits the tokens supply
    cap = min(([0, 0] + sorted(map(abs, stack)))[-2], sum(-t if t < 0 else 1 for t in stack))
    bits = ((2 << min(-t, cap)) - 2 if t < 0 else 1 << t if t <= cap else 0 for t in stack)
    if not _fold(((abs(t), m, m) for t, m in zip(stack, bits)), cap):
        raise NotAFactorError("token sequence does not spell a Zimin factor")
    blocks = {t: ZBlock(-t) for t in set(stack) if t < 0}
    return [blocks.get(t, t) for t in stack]
